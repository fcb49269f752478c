"""Shared fixtures: small deterministic data makers and the three full-scale
experiment models used by the acceptance tests (session scoped, built once)."""

import numpy as np
import pytest

from flowcast import ode
from flowcast.burgers import _boundary_states
from flowcast.cli import load_experiment
from flowcast.pipeline import build_training_data, compare_cases, offline


def make_training_set(rng, n, p, q, spread=1.0):
    """Random distinct inputs in [0, spread]^p with standard normal targets."""
    inputs = spread * rng.random((n, p))
    targets = rng.standard_normal((n, q))
    return inputs, targets


def well_separated_set(rng, n, p, q):
    """Jittered-grid inputs with pairwise separation, targets, matched width.

    The guaranteed separation keeps the kernel matrix far from singular, so
    dense-solve oracles are meaningful at full rank.
    """
    m = int(np.ceil(n ** (1.0 / p)))
    axes = [np.arange(m, dtype=float)] * p
    nodes = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, p)
    pick = rng.choice(nodes.shape[0], size=n, replace=False)
    inputs = (nodes[pick] + rng.uniform(-0.2, 0.2, size=(n, p))) / m
    return inputs, rng.standard_normal((n, q)), 0.8 * m


def finite_difference_jacobian(fn, u):
    """Central-difference Jacobian with per-component step 1e-6 * max(1, |u_j|),
    the reference the analytic Jacobians are checked against."""
    u = np.asarray(u, dtype=float)
    cols = []
    for j in range(u.size):
        h = 1e-6 * max(1.0, abs(u[j]))
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        cols.append((np.asarray(fn(up)) - np.asarray(fn(um))) / (2.0 * h))
    return np.stack(cols, axis=1)


def shock_position(u, mu, grid):
    """Center of the first Burgers cell at or below the midpoint of the
    boundary states (the half width if there is none)."""
    u_l, u_r = _boundary_states(mu)
    mid = 0.5 * (u_l + u_r)
    below = np.nonzero(np.asarray(u) <= mid)[0]
    if below.size == 0:
        return float(grid.half_width)
    return float(grid.centers[below[0]])


def report_criterion(capsys, number, name, ok, detail):
    """One always-visible pass/fail line per acceptance criterion."""
    with capsys.disabled():
        print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def exp1():
    return load_experiment("experiment1")


@pytest.fixture(scope="session")
def exp1_data(exp1):
    """Experiment1's 369 deduplicated training pairs (no training run)."""
    return build_training_data(exp1.offline)[0]


@pytest.fixture(scope="session")
def exp2():
    return load_experiment("experiment2")


@pytest.fixture(scope="session")
def exp1_model(exp1):
    return offline(exp1.offline)


@pytest.fixture(scope="session")
def exp2_model(exp2):
    return offline(exp2.offline)


@pytest.fixture(scope="session")
def exp3():
    return load_experiment("experiment3")


@pytest.fixture(scope="session")
def exp3_model(exp3):
    # The slowest fixture: 5,200 training pairs and a 50-width 5-fold search.
    return offline(exp3.offline)


@pytest.fixture(scope="session")
def exp1_results(exp1, exp1_model):
    # Iteration counts are deterministic, so one repetition suffices here.
    return compare_cases(exp1_model, exp1.test_cases(), exp1.test_horizon)


@pytest.fixture(scope="session")
def exp2_results(exp2, exp2_model):
    return compare_cases(exp2_model, exp2.test_cases(), exp2.test_horizon)


@pytest.fixture(scope="session")
def exp3_results(exp3, exp3_model):
    return compare_cases(exp3_model, exp3.test_cases(), exp3.test_horizon)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def step_calls(monkeypatch):
    """A list that gains one entry per implicit Euler step, lone or stacked."""
    calls = []
    for name in ("ie_step", "_ie_step_stack"):
        step = getattr(ode, name)
        monkeypatch.setattr(ode, name, lambda *args, name=name, step=step:
                            calls.append(name) or step(*args))
    return calls
