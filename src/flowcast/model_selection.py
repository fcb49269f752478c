"""Kernel width selection by k-fold cross validation over a log-spaced grid.

For each candidate width a sparse greedy interpolant is trained on k-1 folds
and scored by mean squared prediction error on the held-out fold (mean over
points and output components, then over folds). A fold is trained as the
final model will be, with its tolerance and within its center budget, so the
search scores the model class that is deployed. Each fold is one greedy run
over all N rows with the fold masked out of the candidates, whose held-out
errors at the fold rows follow from one triangular solve after the run (the
greedy selection never reads the targets). One (N, N) squared-distance
matrix serves every width, and the folds of one width share its kernel rows,
each evaluated once and freed before the next width. The widths are scored
in forked worker processes, one per CPU this process may run on, which share
that matrix copy-on-write; restrict the CPUs (``taskset -c 0``) to score them
in this process. Non-finite scores count as infinite, and ties go to the
smallest width.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .greedy import GreedyState, TrainConfig, TrainingSet, cached_kernel_rows, run_greedy
from .ode import _check_int, _check_real

__all__ = [
    "CvConfig",
    "CvResult",
    "epsilon_grid",
    "kfold_split",
    "select_best",
    "select_epsilon",
]


@dataclass(frozen=True)
class CvConfig:
    """Grid and protocol parameters for the width search.

    ``max_centers`` caps the per-fold greedy runs (further capped by the
    final training's budget, see :func:`select_epsilon`, and by the fold's
    training size); keeping it well below the data size bounds the cost of
    scoring widths that would otherwise select every point.
    """

    epsilon_min: float = 1e-4
    epsilon_max: float = 1e2
    grid_size: int = 50
    folds: int = 5
    seed: int = 0
    max_centers: int | None = 400

    def __post_init__(self):
        for bound in ("epsilon_min", "epsilon_max"):
            object.__setattr__(self, bound, _check_real(bound, getattr(self, bound)))
        if self.epsilon_min > self.epsilon_max:
            raise ValueError(f"need epsilon_min <= epsilon_max, got "
                             f"[{self.epsilon_min!r}, {self.epsilon_max!r}]")
        for name, minimum in (("grid_size", 1), ("folds", 2), ("seed", 0)):
            object.__setattr__(self, name, _check_int(name, getattr(self, name), minimum))
        max_centers = _check_int("max_centers", self.max_centers, 1, optional=True)
        object.__setattr__(self, "max_centers", max_centers)


@dataclass(frozen=True)
class CvResult:
    """Chosen width plus the full grid/score curve for inspection, and the
    number of widths at which the greedy run of some fold stalled."""

    epsilon: float
    grid: np.ndarray
    scores: np.ndarray
    best_index: int
    stalled_widths: int


def epsilon_grid(epsilon_min: float, epsilon_max: float, grid_size: int) -> np.ndarray:
    """Ascending log-spaced width candidates, endpoints included."""
    return np.logspace(np.log10(epsilon_min), np.log10(epsilon_max), grid_size)


def kfold_split(n: int, folds: int, seed: int) -> list[np.ndarray]:
    """Deal a seeded permutation of range(n) round-robin into ``folds`` index arrays."""
    if n < folds:
        raise ValueError(f"cannot split {n} points into {folds} folds")
    perm = np.random.default_rng(seed).permutation(n)
    return [perm[i::folds] for i in range(folds)]


def select_best(grid: np.ndarray, scores: np.ndarray) -> int:
    """Index of the lowest finite score; on ties the smallest width wins."""
    scores = np.asarray(scores, dtype=float)
    if not np.any(np.isfinite(scores)):
        raise ValueError(
            "every candidate width failed validation (all scores non-finite)"
        )
    return int(np.argmin(np.where(np.isfinite(scores), scores, np.inf)))


def _score_width(data: TrainingSet, split: list[np.ndarray], train_cfg: TrainConfig,
                 sq_dists: np.ndarray) -> tuple[float, bool]:
    """Mean held-out error over the folds at one width, and whether the run
    of some fold stalled. The folds share the width's kernel rows, which are
    freed on return."""
    kernel_row = cached_kernel_rows(sq_dists, train_cfg.epsilon)
    fold_scores, statuses = [], []
    for fold in split:
        state = GreedyState(data, train_cfg, fold, kernel_row)
        statuses.append(run_greedy(state)[0])
        basis = state.newton_basis[fold, :state.n_selected]
        errors = data.targets[fold] - basis @ state.newton_coefficients()
        fold_scores.append(np.mean(errors ** 2))
    return np.mean(fold_scores), "stalled" in statuses


# The (data, split, sq_dists) of the search in progress, bound by
# select_epsilon while it scores the widths; forked workers inherit it.
_search = None

# The entry points that set an OpenBLAS library's thread count, by build:
# plain, 64-bit-integer, and the prefixed builds that numpy's and scipy's
# wheels ship.
_BLAS_THREAD_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                        "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")


def _start_worker() -> None:
    """Run a forked worker's BLAS on one thread: a worker per CPU leaves none
    for BLAS threads, whose idle spinning would take CPU time from the other
    workers. The pin only sets speed, so a library it cannot open is skipped."""
    try:  # the files this process has mapped, where the OS lists them; a
        # pathname, the sixth field, may hold spaces or end in " (deleted)"
        with open("/proc/self/maps") as maps:
            paths = {path.rstrip("\n") for line in maps for path in line.split(maxsplit=5)[5:]}
    except OSError:
        paths = set()
    for path in (path for path in paths if "openblas" in os.path.basename(path)):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in _BLAS_THREAD_SETTERS:
            if hasattr(library, name):
                set_threads = getattr(library, name)
                set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
                set_threads(1)


def _score_bound_width(train_cfg: TrainConfig) -> tuple[float, bool]:
    data, split, sq_dists = _search
    return _score_width(data, split, train_cfg, sq_dists)


def _score_widths(train_cfgs: list[TrainConfig]) -> list[tuple[float, bool]]:
    """Score the bound search at each width, in order: over a pool of forked
    workers, one per CPU this process may run on and at most one per width,
    or in this process when only one CPU is available, ``fork`` does not
    exist or this process is daemonic (and may not have children). No
    worker outlives the call."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(train_cfgs))
    if (workers < 2 or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        return list(map(_score_bound_width, train_cfgs))
    with ProcessPoolExecutor(workers, multiprocessing.get_context("fork"),
                             initializer=_start_worker) as pool:
        return list(pool.map(_score_bound_width, train_cfgs))


def select_epsilon(data: TrainingSet, cfg: CvConfig, *, tolerance: float,
                   max_centers: int | None) -> CvResult:
    """Cross-validate kernel widths on ``data`` and return the winner.

    Folds are trained as the training that follows, with its greedy
    ``tolerance`` and within its center budget ``max_centers``: each fold's
    budget is the smaller of ``cfg.max_centers`` and ``max_centers``, where
    None sets no cap. Raises ValueError when no width attains a finite
    score. An exception raised while scoring a width reaches the caller as
    itself, from a worker too; a worker that dies (``BrokenProcessPool``)
    raises ChildProcessError, an OSError.
    """
    grid = epsilon_grid(cfg.epsilon_min, cfg.epsilon_max, cfg.grid_size)
    split = kfold_split(data.size, cfg.folds, cfg.seed)
    sq_dists = cdist(data.inputs, data.inputs, "sqeuclidean")
    budget = min((cap for cap in (cfg.max_centers, max_centers) if cap is not None), default=None)
    train_cfgs = [TrainConfig(eps, tolerance=tolerance, max_centers=budget) for eps in grid]
    global _search
    _search = (data, split, sq_dists)
    try:
        results = _score_widths(train_cfgs)
    except BrokenProcessPool as exc:
        raise ChildProcessError(f"a cross-validation worker process died: {exc}") from exc
    finally:
        _search = None
    scores = np.array([score for score, _ in results])
    stalled = sum(fold_stalled for _, fold_stalled in results)
    # Extreme widths routinely break down numerically; they never win.
    scores[~np.isfinite(scores)] = np.inf
    best = select_best(grid, scores)
    return CvResult(epsilon=float(grid[best]), grid=grid, scores=scores, best_index=best,
                    stalled_widths=stalled)
