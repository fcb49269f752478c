"""Greedy trainer: selection rules, Newton basis updates, termination."""

import warnings

import numpy as np
import pytest
from scipy.linalg import solve

from flowcast.greedy import (
    POWER_FLOOR,
    GreedyState,
    SelectionRule,
    TrainConfig,
    TrainingSet,
    greedy_train,
    select_next,
    update_basis,
)
from flowcast.kernels import GaussianKernel, KernelExpansion, kernel_matrix

from conftest import make_training_set


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
    data = small_data(rng)
    assert (data.size, data.input_dim, data.output_dim) == (12, 2, 2)


def test_train_config_validation():
    cfg = TrainConfig("0.5", rule="p", tolerance=0)
    assert cfg.epsilon == 0.5
    assert cfg.rule is SelectionRule.P_GREEDY
    assert cfg.tolerance == 0.0
    with pytest.raises(ValueError, match="positive real"):
        TrainConfig(0.0)
    with pytest.raises(ValueError, match="tolerance"):
        TrainConfig(1.0, tolerance=-1e-3)
    with pytest.raises(ValueError, match="max_centers"):
        TrainConfig(1.0, max_centers=0)
    with pytest.raises(ValueError, match="unknown selection rule"):
        SelectionRule.from_string("q")
    assert SelectionRule.from_string(" FP ") is SelectionRule.FP_GREEDY


def test_full_run_matches_dense_solve(rng):
    data = small_data(rng)
    eps = 0.8
    model = greedy_train(data, TrainConfig(eps, tolerance=0.0)).model
    alpha = solve(kernel_matrix(data.inputs, eps), data.targets, assume_a="pos")
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


def test_f_greedy_picks_largest_residual():
    inputs = np.array([[0.0], [5.0], [10.0]])
    targets = np.array([[1.0], [-7.0], [2.0]])
    state = GreedyState(TrainingSet(inputs, targets), GaussianKernel(1.0))
    assert select_next(state, SelectionRule.F_GREEDY) == (1, 49.0)
    # All powers start equal, so p-greedy falls back to the lowest index.
    assert select_next(state, SelectionRule.P_GREEDY) == (0, 1.0)


def test_fp_greedy_balances_residual_and_power():
    inputs = np.array([[0.0], [1.0], [10.0]])
    targets = np.array([[2.0], [2.0], [1.0]])
    data = TrainingSet(inputs, targets)
    state = GreedyState(data, GaussianKernel(1.0))
    update_basis(state, 0)
    # Point 1 sits close to the selected center (low power), point 2 far.
    crit = state.criterion_values(SelectionRule.FP_GREEDY)
    assert crit[0] == -np.inf
    assert np.argmax(crit) == 1  # residual^2 / power^2 rewards the near point
    assert select_next(state, SelectionRule.FP_GREEDY) == (1, crit[1])


def test_tie_breaks_to_lowest_index():
    inputs = np.array([[-1.0], [1.0], [0.0]])
    targets = np.array([[3.0], [3.0], [0.1]])
    state = GreedyState(TrainingSet(inputs, targets), GaussianKernel(0.5))
    assert select_next(state, SelectionRule.F_GREEDY) == (0, 9.0)


def test_update_basis_invariants(rng):
    data = small_data(rng, n=10)
    state = GreedyState(data, GaussianKernel(1.0))
    update_basis(state, 3)
    assert state.power_sq[3] == 0.0
    assert np.linalg.norm(state.residuals[3]) < 1e-12
    assert state.selected == [3]
    with pytest.raises(ValueError, match="already selected"):
        update_basis(state, 3)
    state.power_sq[5] = POWER_FLOOR / 2
    with pytest.raises(ValueError, match="numerically zero"):
        update_basis(state, 5)


def test_status_tolerance(rng):
    # Smooth targets so the residual decays well before every point is used.
    inputs = 3.0 * rng.random((40, 2))
    targets = np.column_stack(
        [np.sin(inputs.sum(axis=1)), np.cos(inputs[:, 0] * inputs[:, 1])]
    )
    data = TrainingSet(inputs, targets)
    result = greedy_train(data, TrainConfig(1.0, tolerance=1e-2))
    assert result.status == "tolerance"
    assert result.n_centers < data.size
    # Squared-scale termination: every residual norm is at most sqrt(tol).
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
    # collapses below the floor while its residual stays large. The status
    # is the only record of the stall.
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
    state = GreedyState(TrainingSet(inputs, targets), GaussianKernel(1.0))
    update_basis(state, 0)
    assert select_next(state, SelectionRule.F_GREEDY) is None


def test_zero_targets_give_empty_model(rng):
    inputs = rng.random((5, 2))
    data = TrainingSet(inputs, np.zeros((5, 1)))
    result = greedy_train(data, TrainConfig(1.0))
    assert result.status == "tolerance"
    assert result.n_centers == 0
    assert np.array_equal(result.model(inputs), np.zeros((5, 1)))


def test_histories_are_recorded(rng):
    data = small_data(rng)
    result = greedy_train(data, TrainConfig(1.0, tolerance=0.0, max_centers=5))
    assert len(result.max_power_history) == 5
    assert len(result.criterion_history) == 5
    assert result.max_power_history[0] == 1.0
    assert np.all(np.diff(result.max_power_history) <= 1e-12)


def test_single_point_any_rule():
    data = TrainingSet(np.array([[2.0, 1.0]]), np.array([[5.0, -1.0]]))
    for rule in SelectionRule:
        model = greedy_train(data, TrainConfig(1.0, rule=rule, tolerance=0.0)).model
        assert np.allclose(model(data.inputs[0]), data.targets[0], atol=1e-14)
