"""Shared fixtures: small deterministic data makers and the two full-scale
experiment models used by the acceptance tests (session scoped, built once)."""

import numpy as np
import pytest

from flowcast.cli import load_experiment
from flowcast.pipeline import compare_cases, offline


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


def report_criterion(capsys, number, name, ok, detail):
    """One always-visible pass/fail line per acceptance criterion."""
    with capsys.disabled():
        print(f"ACCEPTANCE {number:2d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="session")
def exp1():
    return load_experiment("experiment1")


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
def exp1_results(exp1, exp1_model):
    # Iteration counts are deterministic, so one repetition suffices here.
    return compare_cases(exp1_model, exp1.test_cases(), exp1.test_horizon)


@pytest.fixture(scope="session")
def exp2_results(exp2, exp2_model):
    return compare_cases(exp2_model, exp2.test_cases(), exp2.test_horizon)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
