"""Cross-validation width search: grids, folds, scoring, selection."""

import multiprocessing
import os

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from flowcast import greedy as greedy_module
from flowcast import model_selection
from flowcast.greedy import (
    GreedyState,
    TrainConfig,
    TrainingSet,
    cached_kernel_rows,
    greedy_train,
    run_greedy,
    update_basis,
)
from flowcast.kernels import KernelExpansion, _gaussian
from flowcast.model_selection import (
    CvConfig,
    epsilon_grid,
    kfold_split,
    select_best,
    select_epsilon,
)

from conftest import make_training_set, well_separated_set


def test_epsilon_grid_shape_and_endpoints():
    grid = epsilon_grid(1e-4, 1e2, 50)
    assert grid.shape == (50,)
    assert grid[0] == pytest.approx(1e-4, rel=1e-12)
    assert grid[-1] == pytest.approx(1e2, rel=1e-12)
    ratios = grid[1:] / grid[:-1]
    assert np.allclose(ratios, ratios[0])


def test_kfold_split_partitions():
    folds = kfold_split(23, 5, seed=3)
    assert len(folds) == 5
    sizes = sorted(len(f) for f in folds)
    assert sizes[-1] - sizes[0] <= 1
    merged = np.sort(np.concatenate(folds))
    assert np.array_equal(merged, np.arange(23))


def test_kfold_split_seeding():
    a = kfold_split(30, 5, seed=0)
    b = kfold_split(30, 5, seed=0)
    c = kfold_split(30, 5, seed=1)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    with pytest.raises(ValueError, match="cannot split"):
        kfold_split(3, 5, seed=0)


def test_select_best():
    grid = np.array([0.1, 1.0, 10.0])
    assert select_best(grid, np.array([3.0, 1.0, 2.0])) == 1
    assert select_best(grid, np.array([1.0, 1.0, 2.0])) == 0  # tie: smaller width
    assert select_best(grid, np.array([np.inf, np.inf, 0.5])) == 2
    with pytest.raises(ValueError, match="non-finite"):
        select_best(grid, np.full(3, np.inf))
    # NaN scores never win, wherever they sit.
    assert select_best(grid, np.array([np.nan, 1.0, 2.0])) == 1
    assert select_best(grid, np.array([3.0, np.nan, 2.0])) == 2
    with pytest.raises(ValueError, match="non-finite"):
        select_best(grid, np.full(3, np.nan))


def test_cv_config_validation():
    with pytest.raises(ValueError, match="epsilon_min"):
        CvConfig(epsilon_min=0.0)
    with pytest.raises(ValueError, match="epsilon_min"):
        CvConfig(epsilon_min=1.0, epsilon_max=0.1)
    with pytest.raises(ValueError, match="grid_size"):
        CvConfig(grid_size=0)
    with pytest.raises(ValueError, match="folds"):
        CvConfig(folds=1)
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="max_centers must be an integer >= 1 or None"):
            CvConfig(max_centers=bad)
    assert CvConfig(max_centers=None).max_centers is None
    # The grid size, fold count and fold seed are integers too, never floats
    # or bools, and a seed is not negative.
    for key, bad, minimum in [("grid_size", 2.5, 1), ("grid_size", True, 1),
                              ("folds", 2.5, 2), ("folds", True, 2),
                              ("seed", 1.5, 0), ("seed", -1, 0), ("seed", False, 0)]:
        with pytest.raises(ValueError, match=f"{key} must be an integer >= {minimum}, got"):
            CvConfig(**{key: bad})
    assert CvConfig(grid_size=np.int64(3), folds=np.int64(2), seed=np.int64(7)).seed == 7


# The folds' greedy settings: the defaults of OfflineConfig.
GREEDY = dict(tolerance=1e-12, max_centers=None)


def allow_cpus(monkeypatch, cpus):
    """Let the search see ``cpus`` as the CPUs this process may run on."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus), raising=False)


def record_pools(monkeypatch):
    """A list that gains the worker count of each pool a search starts."""
    pools = []

    class RecordedPool(model_selection.ProcessPoolExecutor):
        def __init__(self, workers, *args, **kwargs):
            pools.append(workers)
            super().__init__(workers, *args, **kwargs)

    monkeypatch.setattr(model_selection, "ProcessPoolExecutor", RecordedPool)
    return pools


def planted_data(rng, n=120):
    model = KernelExpansion(rng.random((15, 2)), rng.standard_normal((15, 1)), 1.0)
    X = rng.random((n, 2))
    return TrainingSet(X, model(X))


def test_select_epsilon_recovers_planted_width(rng):
    data = planted_data(rng)
    cfg = CvConfig(epsilon_min=1e-1, epsilon_max=1e1, grid_size=9, max_centers=60)
    result = select_epsilon(data, cfg, **GREEDY)
    assert result.grid.shape == (9,)
    assert result.scores.shape == (9,)
    assert result.epsilon == result.grid[result.best_index]
    # Planted width 1.0 sits at the grid midpoint (index 4).
    assert abs(result.best_index - 4) <= 1


def test_failing_widths_score_infinite(rng):
    # Two near-duplicate inputs make tiny widths stall with huge held-out
    # errors; the search must survive and pick a finite-score width.
    inputs, targets = make_training_set(rng, 40, 2, 1, spread=2.0)
    inputs[1] = inputs[0] + 1e-12
    data = TrainingSet(inputs, targets)
    result = select_epsilon(
        data, CvConfig(epsilon_min=1e-6, epsilon_max=10.0, grid_size=6), **GREEDY
    )
    assert np.isfinite(result.scores[result.best_index])
    assert 0 < result.stalled_widths <= 6


def test_masked_fold_run_matches_explicit_fold_training(rng):
    inputs, targets, eps = well_separated_set(rng, 30, 2, 2)
    data = TrainingSet(inputs, targets)
    sq_dists = cdist(inputs, inputs, "sqeuclidean")
    for width in (eps, 2.0 * eps):
        kernel_row = cached_kernel_rows(sq_dists, width)
        for fold in kfold_split(data.size, 5, seed=0):
            cfg = TrainConfig(width, tolerance=0.0)
            state = GreedyState(data, cfg, excluded=fold, kernel_row=kernel_row)
            status, _ = run_greedy(state)
            keep = np.setdiff1d(np.arange(data.size), fold)
            explicit = greedy_train(TrainingSet(inputs[keep], targets[keep]), cfg)
            assert state.selected == keep[explicit.selected_indices].tolist()
            assert not np.any(np.isin(state.selected, fold))
            assert status == "exhausted"
            assert state.n_selected == data.size - len(fold)
            held_out = targets[fold] - explicit.model(inputs[fold])
            fit = state.newton_basis[fold, :state.n_selected] @ state.newton_coefficients()
            err = np.max(np.abs(targets[fold] - fit - held_out))
            assert err <= 1e-10 * np.max(np.abs(held_out))


def test_folds_share_each_kernel_row(rng, monkeypatch):
    # Every row evaluation and every basis step of one search, recorded in
    # this process: one CPU keeps the widths out of worker processes.
    allow_cpus(monkeypatch, {0})
    evaluated, steps = [], []

    def gaussian(sq_dists, epsilon):
        row = _gaussian(sq_dists, epsilon)
        evaluated.append((epsilon, sq_dists.tobytes(), row, row.copy()))
        return row

    def counted_update_basis(state, new_index):
        steps.append(state.cfg.epsilon)
        return update_basis(state, new_index)

    monkeypatch.setattr(greedy_module, "_gaussian", gaussian)
    monkeypatch.setattr(greedy_module, "update_basis", counted_update_basis)
    data = planted_data(rng, n=60)
    cfg = CvConfig(epsilon_min=0.3, epsilon_max=3.0, grid_size=3, max_centers=30)
    select_epsilon(data, cfg, **GREEDY)
    # At most one evaluation of a row per width, fewer than the steps made.
    keys = [(eps, key) for eps, key, _, _ in evaluated]
    assert len(set(keys)) == len(keys)
    for eps in epsilon_grid(cfg.epsilon_min, cfg.epsilon_max, cfg.grid_size):
        assert 0 < sum(e == eps for e, _ in keys) < steps.count(eps)
    # The folds read the rows and never wrote them.
    for _, _, row, original in evaluated:
        assert not row.flags.writeable
        assert row.tobytes() == original.tobytes()


def test_scores_are_mean_held_out_errors(rng):
    inputs, targets, eps = well_separated_set(rng, 40, 2, 1)
    data = TrainingSet(inputs, targets)
    cfg = CvConfig(epsilon_min=eps, epsilon_max=3.0 * eps, grid_size=3, max_centers=20)
    # Each fold trains within the smaller of the CV cap and the training's budget.
    for max_centers, budget in ((None, cfg.max_centers), (10, 10)):
        result = select_epsilon(data, cfg, tolerance=1e-12, max_centers=max_centers)
        for width, score in zip(result.grid, result.scores):
            fold_scores = []
            for fold in kfold_split(data.size, cfg.folds, cfg.seed):
                keep = np.setdiff1d(np.arange(data.size), fold)
                model = greedy_train(
                    TrainingSet(inputs[keep], targets[keep]),
                    TrainConfig(width, tolerance=1e-12, max_centers=budget),
                ).model
                fold_scores.append(np.mean((model(inputs[fold]) - targets[fold]) ** 2))
            assert score == pytest.approx(np.mean(fold_scores), rel=1e-10)


def test_worker_processes_score_as_this_process_does(rng, monkeypatch):
    # One worker per allowed CPU, at most one per width; results come back in
    # grid order, so the search is the same bit for bit either way.
    inputs, targets = make_training_set(rng, 40, 2, 1, spread=2.0)
    inputs[1] = inputs[0] + 1e-12  # some widths stall
    data = TrainingSet(inputs, targets)
    cfg = CvConfig(epsilon_min=1e-6, epsilon_max=10.0, grid_size=6)
    pools = record_pools(monkeypatch)
    results = []
    for cpus in ({0, 1}, {0}, set(range(8))):
        allow_cpus(monkeypatch, cpus)
        results.append(select_epsilon(data, cfg, **GREEDY))
        assert multiprocessing.active_children() == []
    assert pools == [2, 6]
    parallel, serial, capped = results
    assert serial.stalled_widths > 0
    for other in (parallel, capped):
        assert other.grid.tobytes() == serial.grid.tobytes()
        assert other.scores.tobytes() == serial.scores.tobytes()
        assert other.best_index == serial.best_index
        assert other.stalled_widths == serial.stalled_widths


@pytest.mark.parametrize("condition", ["no-fork", "daemon"])
def test_search_stays_in_process_without_fork_or_as_a_daemon(rng, monkeypatch, condition):
    allow_cpus(monkeypatch, {0, 1})
    pools = record_pools(monkeypatch)
    if condition == "no-fork":
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    else:  # a daemonic process may not have children
        monkeypatch.setattr(multiprocessing.current_process(), "daemon", True)
    data = planted_data(rng, n=60)
    cfg = CvConfig(epsilon_min=0.3, epsilon_max=3.0, grid_size=3, max_centers=30)
    assert select_epsilon(data, cfg, **GREEDY).best_index in range(3)
    assert pools == []


@pytest.mark.parametrize("cpus", [{0}, {0, 1}], ids=["in-process", "workers"])
def test_an_error_while_scoring_reaches_the_caller_as_itself(rng, monkeypatch, cpus):
    def failing(data, split, train_cfg, sq_dists):
        raise ValueError(f"cannot score width {train_cfg.epsilon!r}")

    allow_cpus(monkeypatch, cpus)
    monkeypatch.setattr(model_selection, "_score_width", failing)
    cfg = CvConfig(epsilon_min=0.5, epsilon_max=2.0, grid_size=3)
    with pytest.raises(ValueError, match=r"^cannot score width 0\.5$"):
        select_epsilon(planted_data(rng, n=30), cfg, **GREEDY)
    assert multiprocessing.active_children() == []
    assert model_selection._search is None


def test_a_worker_that_dies_raises_child_process_error(rng, monkeypatch):
    parent = os.getpid()

    def dying(*args):
        assert os.getpid() != parent
        os._exit(3)

    allow_cpus(monkeypatch, {0, 1})
    monkeypatch.setattr(model_selection, "_score_width", dying)
    cfg = CvConfig(epsilon_min=0.5, epsilon_max=2.0, grid_size=3)
    with pytest.raises(ChildProcessError, match="cross-validation worker process died"):
        select_epsilon(planted_data(rng, n=30), cfg, **GREEDY)
    assert multiprocessing.active_children() == []
