"""Greedy trainer: P-greedy selection, Newton basis updates, termination."""

import re
import warnings

import numpy as np
import pytest
from scipy.linalg import solve
from scipy.linalg.blas import dger
from scipy.spatial.distance import cdist

from flowcast import greedy as greedy_module
from flowcast.greedy import (
    POWER_FLOOR,
    GreedyState,
    TrainConfig,
    TrainingSet,
    cached_kernel_rows,
    greedy_train,
    run_greedy,
    select_next,
    update_basis,
)
from flowcast.kernels import GaussianKernel, KernelExpansion, _gaussian
from flowcast.model_selection import CvConfig, epsilon_grid

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
    with pytest.raises(ValueError, match="pairwise distinct"):  # -0 equals +0
        TrainingSet(np.array([[0.1, 0.0], [0.2, 1.0], [0.1, -0.0]]), np.ones((3, 1)))
    # Inputs and targets must be finite. Selection never reads the targets
    # (see test_p_rule_matches_incremental_reference), but the coefficients
    # and the cross-validation scores do, and would fail there unnamed.
    for bad in (np.nan, np.inf):
        for name in ("inputs", "targets"):
            arrays = dict(zip(("inputs", "targets"), make_training_set(rng, 30, 2, 1)))
            arrays[name][7, 0] = bad
            with pytest.raises(ValueError, match=f"training {name} must be finite"):
                TrainingSet(**arrays)
    data = small_data(rng)
    assert (data.size, data.input_dim, data.output_dim) == (12, 2, 2)


def test_train_config_validation():
    cfg = TrainConfig(np.float32(0.5), tolerance=0)
    assert type(cfg.epsilon) is float and cfg.epsilon == 0.5
    assert type(cfg.tolerance) is float and cfg.tolerance == 0.0
    with pytest.raises(ValueError, match="epsilon must be a real number > 0"):
        TrainConfig("0.5")
    with pytest.raises(ValueError, match="epsilon must be a real number > 0"):
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


def test_row_indices_outside_the_training_set_are_refused(rng):
    # A negative index would otherwise select a row counted from the end and
    # record the negative index; one past the end would raise IndexError.
    data = small_data(rng, n=10)
    state = GreedyState(data, TrainConfig(1.0))
    for index in (-1, 10, np.int64(-3)):
        with pytest.raises(ValueError, match=rf"point {index} is outside the rows \[0, 10\)"):
            update_basis(state, index)
    assert state.selected == [] and np.all(state.pool_power == 1.0)
    for excluded, bad in (([10], [10]), ([-1], [-1]), (np.array([3, 12, -2]), [12, -2])):
        with pytest.raises(ValueError, match=re.escape(f"excluded rows must lie in [0, 10), "
                                                       f"got {bad}")):
            GreedyState(data, TrainConfig(1.0), excluded=excluded)


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
    sq_dists = cdist(data.inputs, data.inputs, "sqeuclidean")
    shared = GreedyState(data, cfg, kernel_row=cached_kernel_rows(sq_dists, cfg.epsilon))
    assert run_greedy(on_demand) == run_greedy(shared)
    assert shared.selected == on_demand.selected
    assert np.array_equal(shared.newton_basis, on_demand.newton_basis)


def test_kernel_row_is_kernel_column(exp1_data, rng):
    """A training step evaluates kernel(X[[k]], X)[0]; cdist gives it the same
    bits as the column kernel(X, X[[k]])[:, 0] and as row k of cdist(X, X)."""
    for inputs in (exp1_data.inputs, 3.0 * rng.random((50, 4))):
        kernel = GaussianKernel(0.3)
        full = cdist(inputs, inputs, "sqeuclidean")
        for k in range(0, len(inputs), 3):
            row = kernel(inputs[[k]], inputs)[0]
            assert row.tobytes() == kernel(inputs, inputs[[k]])[:, 0].tobytes()
            assert row.tobytes() == _gaussian(full[k], 0.3).tobytes()


def unflushed_update_basis(state, new_index):
    """The basis update as it was before subnormal values were flushed: it
    stores every basis value as computed."""
    pivot = state.pool_power[new_index]
    n = state.n_selected
    kernel = GaussianKernel(state.cfg.epsilon)
    col = kernel(state.data.inputs, state.data.inputs[[new_index]])[:, 0]
    if n:
        col -= state.newton_basis[:, :n] @ state.newton_basis[new_index, :n]
    v = col / np.sqrt(pivot)
    state.newton_basis[:, n] = v
    v *= v
    state.pool_power -= v
    state.pool_power[new_index] = -np.inf
    state.selected.append(int(new_index))
    return state


def test_flushed_basis_keeps_the_selection(exp1_data, monkeypatch):
    # Grid index 36 of the default CV grid: the Newton basis values at the
    # far rows of experiment1's data underflow to subnormal numbers.
    tiny = np.finfo(float).tiny
    cv = CvConfig()
    width = epsilon_grid(cv.epsilon_min, cv.epsilon_max, cv.grid_size)[36]
    cfg = TrainConfig(width, tolerance=1e-12, max_centers=cv.max_centers)
    flushed = GreedyState(exp1_data, cfg)
    run_greedy(flushed)
    monkeypatch.setattr(greedy_module, "update_basis", unflushed_update_basis)
    reference = GreedyState(exp1_data, cfg)
    run_greedy(reference)
    ref, basis = reference.newton_basis, flushed.newton_basis
    assert np.any((ref != 0) & (np.abs(ref) < tiny))  # the reference holds subnormals
    assert not np.any((basis != 0) & (np.abs(basis) < 1.49e-154))
    # The power subtracts the unflushed squares: same power, same selection.
    assert flushed.selected == reference.selected
    assert flushed.pool_power.tobytes() == reference.pool_power.tobytes()
    # A flushed value also moves later values at rows where the basis is
    # that small (below 1e-138 here), never a value that counts.
    assert np.max(np.abs(basis - ref)) < 1e-145
    large = np.abs(ref) >= 1e-130
    assert basis[large].tobytes() == ref[large].tobytes()


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
    kernel_row = cached_kernel_rows(sq_dists, eps) if shared else None
    cfg = TrainConfig(eps, tolerance=0.0, max_centers=20)
    want, want_status, basis, coeffs, residuals = incremental_reference(
        data, eps, 20, excluded, sq_dists)
    state = GreedyState(data, cfg, excluded, kernel_row)
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
    # TrainingSet refuses them, so they are written past its check.
    nan_data = TrainingSet(inputs, targets)
    object.__setattr__(nan_data, "targets", np.full_like(targets, np.nan))
    blind = GreedyState(nan_data, cfg, excluded, kernel_row)
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
    assert result.model.n_centers < data.size
    # The tolerance bounds the squared power: the run stops at the first
    # pool maximum at or below it.
    history = result.max_power_history
    assert len(history) == result.model.n_centers + 1
    assert history[-1] <= 1e-2 < np.min(history[:-1])
    # The power bounds the pointwise error, |f - s| <= P ||f||_H, so on these
    # smooth targets every residual norm is at most sqrt(tol).
    final_res = result.model(data.inputs) - data.targets
    assert np.max(np.linalg.norm(final_res, axis=1)) <= 1e-1 + 1e-12


def test_status_max_centers(rng):
    data = small_data(rng)
    result = greedy_train(data, TrainConfig(1.0, tolerance=0.0, max_centers=4))
    assert result.status == "max_centers"
    assert result.model.n_centers == 4


def test_status_exhausted(rng):
    data = small_data(rng, n=6)
    result = greedy_train(data, TrainConfig(1.0, tolerance=0.0))
    assert result.status == "exhausted"
    assert result.model.n_centers == 6


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
    assert result.model.n_centers == 2


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
    assert result.model.n_centers == 0
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
