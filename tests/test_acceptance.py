"""Acceptance gate: eleven end-to-end criteria with pinned tolerances.

Each criterion test prints one always-visible ACCEPTANCE line (PASS/FAIL
plus the measured numbers). Criteria 5-8 and 11 run the shipped experiment
presets at full scale through session fixtures, so this file takes about
two and a half minutes.
"""

import time

import numpy as np
from scipy.linalg import solve

from flowcast.burgers import (
    BurgersGrid,
    burgers_initial,
    make_burgers_problem,
    shock_position,
)
from flowcast.greedy import (
    GreedyState,
    TrainConfig,
    TrainingSet,
    greedy_train,
    select_next,
    update_basis,
)
from flowcast.kernels import GaussianKernel, KernelExpansion
from flowcast.model_selection import CvConfig, epsilon_grid, select_epsilon
from flowcast.ode import IvpProblem, integrate
from flowcast.pipeline import load_model, save_model

from conftest import make_training_set, report_criterion, well_separated_set


def dense_interpolant(inputs, targets, epsilon):
    """Oracle: solve the full kernel system directly."""
    alpha = solve(GaussianKernel(epsilon)(inputs), targets, assume_a="pos")
    return KernelExpansion(inputs, alpha, epsilon)


def test_criterion_1_oracle_equivalence(capsys):
    rng = np.random.default_rng(20260825)
    start = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 31))
        p = int(rng.integers(1, 6))
        q = int(rng.integers(1, 4))
        inputs, targets, eps = well_separated_set(rng, n, p, q)
        greedy = greedy_train(
            TrainingSet(inputs, targets),
            TrainConfig(eps, tolerance=0.0, max_centers=n),
        ).model
        dense = dense_interpolant(inputs, targets, eps)
        pts = rng.random((50, p))
        got, want = greedy(pts), dense(pts)
        rel = float(np.max(np.abs(got - want)) / max(np.max(np.abs(want)), 1e-12))
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 10.0
    report_criterion(
        capsys, 1, "oracle equivalence",
        ok, f"max rel err {worst:.2e} <= 1e-8 over 20 sets, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_power_monotonicity(capsys, exp1_model, exp2_model):
    # Full-scale runs: recorded history of max unselected squared power.
    max_rise = max(
        float(np.max(np.diff(h))) if len(h) > 1 else -np.inf
        for h in (exp1_model.diagnostics.max_power_history,
                  exp2_model.diagnostics.max_power_history)
    )
    # Small runs: track the same maximum while stepping manually, and check
    # that selected points end at zero power, 1 - sum_m B[k, m]^2.
    rng = np.random.default_rng(7)
    max_selected = 0.0
    for _ in range(3):
        inputs, targets = make_training_set(rng, 40, 3, 2)
        state = GreedyState(TrainingSet(inputs, targets), TrainConfig(1.5))
        prev = np.inf
        for _ in range(25):
            best = select_next(state)
            if best is None:
                break
            k, _ = best
            current = float(np.max(state.pool_power))
            max_rise = max(max_rise, current - prev)
            prev = current
            update_basis(state, k)
        basis = state.newton_basis[state.selected, :state.n_selected]
        max_selected = max(
            max_selected, float(np.max(np.abs(1.0 - np.sum(basis**2, axis=1))))
        )
    ok = max_rise <= 1e-12 and max_selected <= 1e-12
    report_criterion(
        capsys, 2, "power monotonicity",
        ok,
        f"max rise {max_rise:.2e} <= 1e-12, "
        f"selected power {max_selected:.2e} <= 1e-12",
    )
    assert ok


def test_criterion_3_implicit_euler_order(capsys):
    start = time.perf_counter()
    problem = IvpProblem(
        dim=1,
        rhs=lambda u, mu: -u,
        initial_value=lambda mu: np.ones(1),
        jacobian=lambda u, mu: -np.eye(1),
    )
    dts = np.array([0.1, 0.05, 0.025, 0.0125])
    errors = []
    for dt in dts:
        traj = integrate(problem, [], dt, 1.0)
        errors.append(abs(traj.final_state[0] - np.exp(-1.0)))
    slope = float(np.polyfit(np.log(dts), np.log(errors), 1)[0])
    elapsed = time.perf_counter() - start
    ok = abs(slope - 1.0) <= 0.1 and elapsed < 1.0
    report_criterion(
        capsys, 3, "implicit Euler order",
        ok, f"log-log slope {slope:.3f} in 1.0 +/- 0.1, {elapsed:.2f}s",
    )
    assert ok


def test_criterion_4_burgers_physics(capsys):
    start = time.perf_counter()
    problem = make_burgers_problem(cells=200, half_width=5.0)
    grid = BurgersGrid(200, 5.0)
    mu = (3.4, 0.2)
    traj = integrate(problem, mu, 0.01, 2.0)
    assert traj.completed

    pos0 = shock_position(burgers_initial(mu, grid), mu, grid)
    pos2 = shock_position(traj.final_state, mu, grid)
    speed = (pos2 - pos0) / 2.0
    speed_err = abs(speed - 1.8)

    const = integrate(problem, (2.5, 2.5), 0.01, 0.5)
    const_err = float(np.max(np.abs(const.states - 2.5)))

    # Per step, h * sum(du) must equal dt * (inflow - outflow boundary flux).
    def num_flux(a, b):
        return 0.25 * (a * a + b * b) - 0.5 * max(abs(a), abs(b)) * (b - a)

    cons_err = 0.0
    for i in range(traj.n_steps):
        u = traj.states[i + 1]
        mass_change = grid.h * float(np.sum(u - traj.states[i]))
        flux_in = num_flux(mu[0], u[0])
        flux_out = num_flux(u[-1], mu[1])
        cons_err = max(cons_err, abs(mass_change - 0.01 * (flux_in - flux_out)))

    elapsed = time.perf_counter() - start
    ok = speed_err <= 0.05 and const_err <= 1e-12 and cons_err <= 1e-12 and elapsed < 30.0
    report_criterion(
        capsys, 4, "Burgers physics",
        ok,
        f"shock speed err {speed_err:.3f} <= h=0.05, constant {const_err:.1e} <= 1e-12, "
        f"conservation {cons_err:.1e} <= 1e-12, {elapsed:.0f}s",
    )
    assert ok


def test_criterion_5_training_parameter_gain(capsys, exp1_results):
    row = next(r for r in exp1_results if r.mu == (3.4, 0.2))
    ok = row.gain_iter_pct >= 20.0
    report_criterion(
        capsys, 5, "experiment-1 gain at training parameter",
        ok,
        f"{row.iter_old:.2f} -> {row.iter_vkoga:.2f} iterations/step, "
        f"gain {row.gain_iter_pct:.2f}% >= 20%",
    )
    assert ok


def test_criterion_6_generalization_gain(capsys, exp2_results):
    gains = [r.gain_iter_pct for r in exp2_results]
    mean_gain = float(np.mean(gains))
    ok = (
        len(exp2_results) == 9
        and all(r.completed for r in exp2_results)
        and mean_gain >= 10.0
        and min(gains) >= 0.0
    )
    report_criterion(
        capsys, 6, "experiment-2 generalization",
        ok,
        f"mean gain {mean_gain:.2f}% >= 10%, "
        f"min gain {min(gains):.2f}% >= 0% over {len(exp2_results)} parameters",
    )
    assert ok


def test_criterion_7_sparsity(capsys, exp1_model, exp2_model):
    n1 = exp1_model.expansion.n_centers
    n2 = exp2_model.expansion.n_centers
    n1_data = exp1_model.provenance["n_training_before_dedup"]
    n2_data = exp2_model.provenance["n_training_before_dedup"]
    ok = n1 <= 150 and n2 <= 450 and n1_data == 400 and n2_data == 1600
    report_criterion(
        capsys, 7, "sparsity",
        ok,
        f"experiment 1: n={n1} <= 150 of N={n1_data}; "
        f"experiment 2: n={n2} <= 450 of N={n2_data}",
    )
    assert ok


def test_criterion_8_accuracy_preservation(capsys, exp2_results):
    worst = 0.0
    for row in exp2_results:
        assert row.baseline.completed and row.surrogate.completed
        worst = max(worst, float(np.max(np.abs(row.baseline.states - row.surrogate.states))))
    ok = worst <= 1e-10 and len(exp2_results) == 9
    report_criterion(
        capsys, 8, "accuracy preservation",
        ok, f"max |baseline - surrogate| = {worst:.2e} <= 1e-10 over 9 parameters",
    )
    assert ok


def test_criterion_9_cv_planted_width(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20260825)
    grid = epsilon_grid(1e-2, 1e1, 15)
    planted_index = 7
    planted = KernelExpansion(
        rng.random((25, 2)), rng.standard_normal((25, 2)), grid[planted_index]
    )
    X = rng.random((160, 2))
    data = TrainingSet(X, planted(X))
    result = select_epsilon(
        data,
        CvConfig(epsilon_min=1e-2, epsilon_max=1e1, grid_size=15, max_centers=80),
        tolerance=1e-12,
    )
    elapsed = time.perf_counter() - start
    ok = abs(result.best_index - planted_index) <= 1 and elapsed < 60.0
    report_criterion(
        capsys, 9, "cross-validation width recovery",
        ok,
        f"selected grid index {result.best_index} vs planted {planted_index} "
        f"(eps {result.epsilon:.4g} vs {grid[planted_index]:.4g}), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_10_persistence_roundtrip(capsys, exp1_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(exp1_model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(99)
    pts = rng.uniform(0.0, 3.5, size=(100, exp1_model.expansion.input_dim))
    pts[:, 0] = 0.01
    identical = bool(np.array_equal(exp1_model.predict(pts), loaded.predict(pts)))
    ok = identical and loaded.provenance == exp1_model.provenance
    report_criterion(
        capsys, 10, "persistence round-trip",
        ok, f"bit-identical evaluation at 100 inputs: {identical}",
    )
    assert ok


def test_criterion_11_step_size_generalization(capsys, exp3_model, exp3_results):
    # Floors fixed from the first measured run (mean 30.99%, min 19.40%,
    # gap 7.51e-14); they are not to be tuned to later runs.
    cv = exp3_model.cv
    n_centers = exp3_model.expansion.n_centers
    done = [r for r in exp3_results if r.completed]
    gains = [r.gain_iter_pct for r in done] or [float("nan")]
    gap = max((float(np.max(np.abs(r.baseline.states - r.surrogate.states))) for r in done),
              default=float("inf"))
    mean_gain, min_gain = float(np.mean(gains)), min(gains)
    ok = (
        (cv.best_index, cv.epsilon) == (22, 0.04941713361323833)
        and n_centers == 450
        and len(exp3_results) == len(done) == 10
        and gap <= 1e-10
        and mean_gain >= 25.0
        and min_gain >= 15.0
    )
    report_criterion(
        capsys, 11, "experiment-3 step-size generalization",
        ok,
        f"CV index {cv.best_index} (eps {cv.epsilon:.4g}), n={n_centers}; "
        f"{len(done)} of {len(exp3_results)} step sizes complete; "
        f"mean gain {mean_gain:.2f}% >= 25%, min gain {min_gain:.2f}% >= 15%; "
        f"max |baseline - surrogate| = {gap:.2e} <= 1e-10",
    )
    assert ok


def test_preset_cv_choices(exp1_model, exp2_model):
    # The widths each preset's 50-width 5-fold cross validation picks.
    assert (exp1_model.cv.best_index, exp1_model.cv.epsilon) == (22, 0.04941713361323833)
    assert (exp2_model.cv.best_index, exp2_model.cv.epsilon) == (18, 0.015998587196060572)
    # Widths at which some fold's greedy run stalled at the power floor.
    assert exp1_model.cv.stalled_widths == 12
    assert exp2_model.cv.stalled_widths == 0
