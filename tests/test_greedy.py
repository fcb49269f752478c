"""Greedy trainer: P-greedy selection, Newton basis updates, termination."""

import warnings

import numpy as np
import pytest
from scipy.linalg import solve
from scipy.linalg.blas import dger
from scipy.spatial.distance import cdist

from flowcast.greedy import (
    POWER_FLOOR,
    GreedyState,
    TrainConfig,
    TrainingSet,
    greedy_train,
    run_greedy,
    select_next,
    update_basis,
)
from flowcast.kernels import GaussianKernel, KernelExpansion, _gaussian

from conftest import make_training_set, well_separated_set


def small_data(rng, n=12, p=2, q=2):
    inputs, targets = make_training_set(rng, n, p, q, spread=3.0)
    return TrainingSet(inputs, targets)


def test_training_set_validation(rng):
    with pytest.raises(ValueError, match="2-d"):
        TrainingSet(np.zeros(3), np.zeros((3, 1)))
    with pytest.raises(ValueError, match="inputs but"):
        TrainingSet(np.zeros((3, 2)), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="at least one"):
        TrainingSet(np.zeros((0, 2)), np.zeros((0, 1)))
    with pytest.raises(ValueError, match="pairwise distinct"):
        TrainingSet(np.zeros((2, 2)), np.ones((2, 1)))
    # Inputs must be finite; targets are not read by selection (see
    # test_p_rule_matches_incremental_reference) and are left unchecked.
    for bad in (np.nan, np.inf):
        inputs, targets = make_training_set(rng, 30, 2, 1)
        inputs[7, 1] = bad
        with pytest.raises(ValueError, match="inputs must be finite"):
            TrainingSet(inputs, targets)
    data = small_data(rng)
    assert (data.size, data.input_dim, data.output_dim) == (12, 2, 2)


def test_train_config_validation():
    cfg = TrainConfig("0.5", tolerance=0)
    assert cfg.epsilon == 0.5
    assert cfg.tolerance == 0.0
    with pytest.raises(ValueError, match="positive real"):
        TrainConfig(0.0)
    with pytest.raises(ValueError, match="tolerance"):
        TrainConfig(1.0, tolerance=-1e-3)
    with pytest.raises(ValueError, match="max_centers"):
        TrainConfig(1.0, max_centers=0)
    with pytest.raises(TypeError, match="rule"):
        TrainConfig(1.0, rule="p")


def test_full_run_matches_dense_solve(rng):
    data = small_data(rng)
    eps = 0.8
    model = greedy_train(data, TrainConfig(eps, tolerance=0.0)).model
    alpha = solve(GaussianKernel(eps)(data.inputs), data.targets, assume_a="pos")
    dense = KernelExpansion(data.inputs, alpha, eps)
    pts = rng.random((30, 2)) * 3.0
    assert np.allclose(model(pts), dense(pts), atol=1e-10)


def test_interpolates_at_selected_centers(rng):
    data = small_data(rng, n=20)
    result = greedy_train(data, TrainConfig(1.0, max_centers=8))
    picked = result.selected_indices
    assert len(picked) == 8
    pred = result.model(data.inputs[picked])
    assert np.max(np.abs(pred - data.targets[picked])) < 1e-8


def test_selected_sets_are_nested(rng):
    data = small_data(rng, n=15)
    full = greedy_train(data, TrainConfig(1.0, tolerance=0.0)).selected_indices
    for k in range(1, len(full)):
        part = greedy_train(data, TrainConfig(1.0, tolerance=0.0, max_centers=k))
        assert np.array_equal(part.selected_indices, full[:k])


def test_tie_breaks_to_lowest_index():
    inputs = np.array([[-1.0], [1.0], [0.0]])
    targets = np.array([[3.0], [3.0], [0.1]])
    state = GreedyState(TrainingSet(inputs, targets), TrainConfig(0.5))
    # Every power starts at K(x, x) = 1.
    assert select_next(state) == (0, 1.0)
    # The middle center leaves the two outer points at equal powers.
    update_basis(state, 2)
    assert state.pool_power[0] == state.pool_power[1]
    assert select_next(state) == (0, state.pool_power[0])


def test_update_basis_invariants(rng):
    data = small_data(rng, n=10)
    state = GreedyState(data, TrainConfig(1.0))
    update_basis(state, 3)
    assert state.pool_power[3] == -np.inf
    assert state.selected == [3]
    with pytest.raises(ValueError, match="already selected"):
        update_basis(state, 3)
    state.pool_power[5] = POWER_FLOOR / 2
    with pytest.raises(ValueError, match="numerically zero"):
        update_basis(state, 5)


def test_excluded_rows_are_never_candidates(rng):
    data = small_data(rng, n=10)
    excluded = np.array([1, 4, 7])
    state = GreedyState(data, TrainConfig(1.0, tolerance=0.0, max_centers=20), excluded=excluded)
    assert state.max_centers == 7
    assert np.all(state.pool_power[excluded] == -np.inf)
    with pytest.raises(ValueError, match="already selected or excluded"):
        update_basis(state, 4)
    status, _ = run_greedy(state)
    assert status == "exhausted"
    assert sorted(state.selected) == [0, 2, 3, 5, 6, 8, 9]
    capped = GreedyState(data, TrainConfig(1.0, tolerance=0.0, max_centers=3), excluded=excluded)
    assert run_greedy(capped)[0] == "max_centers"


def test_shared_distance_matrix_gives_identical_run(rng):
    data = small_data(rng)
    cfg = TrainConfig(0.7, tolerance=0.0)
    on_demand = GreedyState(data, cfg)
    shared = GreedyState(data, cfg, sq_dists=cdist(data.inputs, data.inputs, "sqeuclidean"))
    assert run_greedy(on_demand) == run_greedy(shared)
    assert shared.selected == on_demand.selected
    assert np.array_equal(shared.newton_basis, on_demand.newton_basis)


def incremental_reference(data, eps, max_centers=None, excluded=None, sq_dists=None):
    """The greedy loop that updates every residual with ``dger`` at each step
    and stores c_n = residual[k] / v_k; kernel columns come from the columns
    of ``sq_dists``. Returns the selection, status, Newton
    basis, Newton coefficients and residuals."""
    size = data.size
    in_pool = np.ones(size, dtype=bool)
    in_pool[[] if excluded is None else excluded] = False
    pool = int(np.count_nonzero(in_pool))
    n_max = pool if max_centers is None else min(pool, max_centers)
    basis = np.zeros((size, n_max))
    residuals = data.targets.copy()
    power_sq = np.ones(size)
    coeffs = np.zeros((n_max, data.output_dim))
    selected = []
    while True:
        mask = in_pool & (power_sq > POWER_FLOOR)
        crit = np.full(size, -np.inf)
        crit[mask] = power_sq[mask]
        if not np.any(np.isfinite(crit)):
            status = "stalled"
            break
        k = int(np.argmax(crit))
        n = len(selected)
        if sq_dists is None:
            col = GaussianKernel(eps)(data.inputs, data.inputs[[k]])[:, 0]
        else:
            col = _gaussian(sq_dists[:, k], eps)
        if n:
            col -= basis[:, :n] @ basis[k, :n]
        v = col / np.sqrt(power_sq[k])
        basis[:, n] = v
        c = residuals[k] / v[k]
        coeffs[n] = c
        dger(-1.0, c, v, a=residuals.T, overwrite_a=1)
        power_sq -= v * v
        power_sq[k] = 0.0
        in_pool[k] = False
        selected.append(k)
        if len(selected) >= n_max:
            status = "max_centers" if in_pool.any() else "exhausted"
            break
    n = len(selected)
    return selected, status, basis[:, :n], coeffs[:n], residuals


@pytest.mark.parametrize("shared", [False, True], ids=["on-demand", "shared"])
@pytest.mark.parametrize("held_out", [False, True], ids=["all-rows", "excluded"])
def test_p_rule_matches_incremental_reference(held_out, shared):
    # Well-separated inputs keep the kernel matrix well conditioned, so the
    # forward substitution and the incremental coefficients differ only by
    # round-off.
    rng = np.random.default_rng(2024)
    inputs, targets, eps = well_separated_set(rng, 36, 2, 3)
    data = TrainingSet(inputs, targets)
    excluded = rng.choice(data.size, 9, replace=False) if held_out else None
    sq_dists = cdist(inputs, inputs, "sqeuclidean") if shared else None
    cfg = TrainConfig(eps, tolerance=0.0, max_centers=20)
    want, want_status, basis, coeffs, residuals = incremental_reference(
        data, eps, 20, excluded, sq_dists)
    state = GreedyState(data, cfg, excluded, sq_dists)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status, _ = run_greedy(state)
    assert (state.selected, status) == (want, want_status)
    assert np.array_equal(state.newton_basis, basis)
    got = state.newton_coefficients()
    assert np.max(np.abs(got - coeffs)) <= 1e-10 * np.max(np.abs(coeffs))
    rows = np.arange(data.size) if excluded is None else excluded
    held_out = targets[rows] - state.newton_basis[rows, :state.n_selected] @ got
    err = np.max(np.abs(held_out - residuals[rows]))
    assert err <= 1e-10 * np.max(np.abs(residuals[rows]))
    # The run never reads the targets: NaN targets select the same centers.
    blind = GreedyState(TrainingSet(inputs, np.full_like(targets, np.nan)), cfg,
                        excluded, sq_dists)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_greedy(blind)[0] == want_status
    assert blind.selected == want


def test_status_tolerance(rng):
    inputs = 3.0 * rng.random((40, 2))
    targets = np.column_stack(
        [np.sin(inputs.sum(axis=1)), np.cos(inputs[:, 0] * inputs[:, 1])]
    )
    data = TrainingSet(inputs, targets)
    result = greedy_train(data, TrainConfig(1.0, tolerance=1e-2))
    assert result.status == "tolerance"
    assert result.n_centers < data.size
    # The tolerance bounds the squared power: the run stops at the first
    # pool maximum at or below it.
    history = result.max_power_history
    assert len(history) == result.n_centers + 1
    assert history[-1] <= 1e-2 < np.min(history[:-1])
    # The power bounds the pointwise error, |f - s| <= P ||f||_H, so on these
    # smooth targets every residual norm is at most sqrt(tol).
    final_res = result.model(data.inputs) - data.targets
    assert np.max(np.linalg.norm(final_res, axis=1)) <= 1e-1 + 1e-12


def test_status_max_centers(rng):
    data = small_data(rng)
    result = greedy_train(data, TrainConfig(1.0, tolerance=0.0, max_centers=4))
    assert result.status == "max_centers"
    assert result.n_centers == 4


def test_status_exhausted(rng):
    data = small_data(rng, n=6)
    result = greedy_train(data, TrainConfig(1.0, tolerance=0.0))
    assert result.status == "exhausted"
    assert result.n_centers == 6


def test_status_stalled_without_warning():
    # Two nearly identical points: after one is selected the other's power
    # collapses below the floor. The status is the only record of the stall.
    inputs = np.array([[0.0], [1e-9], [3.0]])
    targets = np.array([[1.0], [2.0], [0.5]])
    data = TrainingSet(inputs, targets)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = greedy_train(data, TrainConfig(1.0, tolerance=0.0))
    assert result.status == "stalled"
    assert result.n_centers == 2


def test_select_next_returns_none_at_floor():
    inputs = np.array([[0.0], [1e-9]])
    targets = np.array([[1.0], [2.0]])
    state = GreedyState(TrainingSet(inputs, targets), TrainConfig(1.0))
    update_basis(state, 0)
    assert select_next(state) is None


def test_zero_targets_give_empty_model(rng):
    # The selection never reads the targets: a tolerance at the initial
    # power K(x, x) = 1 stops before the first center.
    inputs = rng.random((5, 2))
    data = TrainingSet(inputs, np.zeros((5, 1)))
    result = greedy_train(data, TrainConfig(1.0, tolerance=1.0))
    assert result.status == "tolerance"
    assert result.n_centers == 0
    assert np.array_equal(result.model(inputs), np.zeros((5, 1)))


def test_histories_are_recorded(rng):
    data = small_data(rng)
    result = greedy_train(data, TrainConfig(1.0, tolerance=0.0, max_centers=5))
    assert len(result.max_power_history) == 5
    assert result.max_power_history[0] == 1.0
    assert np.all(np.diff(result.max_power_history) <= 1e-12)


def test_single_point():
    data = TrainingSet(np.array([[2.0, 1.0]]), np.array([[5.0, -1.0]]))
    model = greedy_train(data, TrainConfig(1.0, tolerance=0.0)).model
    assert np.allclose(model(data.inputs[0]), data.targets[0], atol=1e-14)
