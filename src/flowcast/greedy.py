"""Sparse greedy training of vector-valued kernel interpolants (P-greedy).

The trainer builds the interpolant one center at a time. Each step picks the
training point of largest power function (De Marchi, Schaback & Wendland
2005), extends an orthonormal Newton basis by one function, and updates the
squared power function in O(N) work. The Newton basis columns are exactly
the columns of a partial Cholesky factorization of the kernel matrix, so
only the kernel columns of selected points are evaluated.

Update equations for a new point x_k at step n (0-based):

    v_i  = (K(x_i, x_k) - sum_{m<n} B[i,m] B[k,m]) / sqrt(pool_power[k])
    pool_power[i]  -= v_i^2

where B holds the Newton basis values at all training inputs, so the
selection never touches the targets. ``pool_power`` is the squared power on
the candidate pool and -inf on selected and excluded rows, which the
subtraction leaves at -inf; the power at a selected row x_k would be
1 - sum_m B[k,m]^2, zero up to round-off. After the loop, forward
substitution through the lower-triangular B[selected, :n] gives the Newton
coefficients c, and back-substitution through its transpose the plain
kernel coefficients.

Excluded rows never become centers, but the basis covers every row, so
targets[i] - B[i, :n] c at an excluded row i is a held-out error: cross
validation scores its folds this way, with kernel columns from a shared
distance matrix.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .kernels import GaussianKernel, KernelExpansion, _check_epsilon, _gaussian

__all__ = [
    "POWER_FLOOR",
    "TrainingSet",
    "TrainConfig",
    "GreedyState",
    "GreedyResult",
    "select_next",
    "update_basis",
    "run_greedy",
    "greedy_train",
]

# Squared power values at or below this are treated as numerically zero;
# such candidates are excluded to keep the pivot in the basis update safe.
POWER_FLOOR = 1e-14


@dataclass(frozen=True)
class TrainingSet:
    """Interpolation data: finite inputs (N, p), pairwise distinct rows; targets (N, q)."""

    inputs: np.ndarray
    targets: np.ndarray

    def __post_init__(self):
        inputs = np.asarray(self.inputs, dtype=float)
        targets = np.asarray(self.targets, dtype=float)
        if inputs.ndim != 2 or targets.ndim != 2:
            raise ValueError(
                f"inputs and targets must be 2-d, got shapes "
                f"{inputs.shape} and {targets.shape}"
            )
        if inputs.shape[0] != targets.shape[0]:
            raise ValueError(
                f"{inputs.shape[0]} inputs but {targets.shape[0]} targets"
            )
        if inputs.shape[0] < 1:
            raise ValueError("training set must contain at least one pair")
        if not np.isfinite(inputs).all():
            raise ValueError("training inputs must be finite")
        if np.unique(inputs, axis=0).shape[0] != inputs.shape[0]:
            raise ValueError("training inputs must be pairwise distinct")
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)

    @property
    def size(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def output_dim(self) -> int:
        return self.targets.shape[1]


@dataclass(frozen=True)
class TrainConfig:
    """Greedy training parameters.

    ``tolerance`` is an absolute threshold on the squared power function:
    the default 1e-12 stops once the largest power over the candidate pool
    is at or below 1e-6. Zero is allowed and runs until the pool or the
    center budget is spent. ``max_centers=None`` means unlimited.
    """

    epsilon: float
    tolerance: float = 1e-12
    max_centers: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _check_epsilon(self.epsilon))
        _check_tolerance(self.tolerance)
        _check_max_centers(self.max_centers)


def _check_tolerance(tolerance):
    if not np.isfinite(tolerance) or tolerance < 0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")


def _check_max_centers(max_centers):
    """None, or an integer center budget of at least one."""
    if max_centers is not None and not (
        isinstance(max_centers, numbers.Integral) and max_centers >= 1
    ):
        raise ValueError(f"max_centers must be an integer >= 1 or None, got {max_centers!r}")


class GreedyState:
    """Incremental state of one greedy run over a fixed training set.

    The run's kernel width, tolerance and center budget all come from ``cfg``.

    Attributes
    ----------
    newton_basis
        (N, n_max) array; column m holds the m-th Newton basis function
        evaluated at every training input (filled up to ``n_selected``).
    pool_power
        Length-N squared power function on the pool (the rows neither
        ``excluded`` nor selected) and -inf elsewhere; the selection criterion.
    sq_dists
        Optional (N, N) squared input distances supplying the kernel columns.
    max_centers
        n_max, ``cfg.max_centers`` limited to the unexcluded rows.
    """

    def __init__(self, data: TrainingSet, cfg: TrainConfig, excluded=None,
                 sq_dists: np.ndarray | None = None):
        self.pool_power = np.ones(data.size)  # K(x, x) = 1 for the Gaussian
        self.pool_power[[] if excluded is None else excluded] = -np.inf
        pool = int(np.count_nonzero(np.isfinite(self.pool_power)))
        self.max_centers = n_max = pool if cfg.max_centers is None else min(pool, cfg.max_centers)
        self.data = data
        self.cfg = cfg
        self.kernel = GaussianKernel(cfg.epsilon)
        self.sq_dists = sq_dists
        self.newton_basis = np.zeros((data.size, n_max))
        self.selected: list[int] = []

    @property
    def n_selected(self) -> int:
        return len(self.selected)

    def newton_coefficients(self) -> np.ndarray:
        """(n, q) Newton coefficients: forward substitution through B[selected, :n]."""
        sel = self.selected
        return solve_triangular(self.newton_basis[sel, :len(sel)], self.data.targets[sel],
                                lower=True, check_finite=False)


def select_next(state: GreedyState) -> tuple[int, float] | None:
    """Index and squared power of the pool point with the largest power;
    ties go to the lowest index.

    Returns None when that power sits at the floor, which signals
    termination to the caller.
    """
    k = int(state.pool_power.argmax())
    return (k, float(state.pool_power[k])) if state.pool_power[k] > POWER_FLOOR else None


def update_basis(state: GreedyState, new_index: int) -> GreedyState:
    """Append one Newton basis column for ``new_index`` and refresh the state.

    Mutates ``state`` in place and returns it. Only the single kernel-matrix
    column of the new point is evaluated; the step costs O(N * n).
    """
    if state.pool_power[new_index] == -np.inf:
        raise ValueError(f"point {new_index} is already selected or excluded")
    pivot = state.pool_power[new_index]
    if pivot <= POWER_FLOOR:
        raise ValueError(
            f"power function at point {new_index} is numerically zero "
            f"({pivot:.3e}); the basis update would be near-singular"
        )
    n = state.n_selected
    if state.sq_dists is None:
        col = state.kernel(state.data.inputs, state.data.inputs[[new_index]])[:, 0]
    else:
        # The contiguous row; cdist output is symmetric bit for bit.
        col = _gaussian(state.sq_dists[new_index], state.kernel.epsilon)
    if n:
        col -= state.newton_basis[:, :n] @ state.newton_basis[new_index, :n]
    v = col / np.sqrt(pivot)
    state.newton_basis[:, n] = v
    v *= v
    state.pool_power -= v
    state.pool_power[new_index] = -np.inf
    state.selected.append(int(new_index))
    return state


@dataclass
class GreedyResult:
    """Trained expansion plus the power history of the greedy run.

    ``status`` is one of "tolerance" (the largest pool power dropped to the
    threshold), "max_centers", "exhausted" (every pool point selected), or
    "stalled" (all remaining candidates at the power floor). A stall is
    recorded here only, not warned about: cross validation stalls routinely
    at extreme widths and counts those runs instead.
    ``max_power_history`` records, at each loop entry, the maximum squared
    power over the remaining pool.
    """

    model: KernelExpansion
    selected_indices: np.ndarray
    status: str
    max_power_history: np.ndarray = field(repr=False, default=None)

    @property
    def n_centers(self) -> int:
        return self.model.n_centers


def run_greedy(state: GreedyState):
    """Select until ``state.cfg.tolerance``, budget, pool, or floor exhaustion;
    return the status and the max-power history."""
    power_history: list[float] = []
    while True:
        best = select_next(state)
        power_history.append(best[1] if best else float(np.max(state.pool_power)))
        if best is None:
            return "stalled", power_history
        k, power_k = best
        if power_k <= state.cfg.tolerance:
            return "tolerance", power_history
        update_basis(state, k)
        if state.n_selected >= state.max_centers:
            status = "max_centers" if np.isfinite(state.pool_power).any() else "exhausted"
            return status, power_history


def greedy_train(data: TrainingSet, cfg: TrainConfig) -> GreedyResult:
    """Train an expansion on ``data`` with one greedy run."""
    state = GreedyState(data, cfg)
    status, power_history = run_greedy(state)
    # The Newton basis values at the selected points form the lower-triangular
    # Cholesky factor of the selected kernel submatrix (0 x 0 without centers).
    lower = state.newton_basis[state.selected, :state.n_selected]
    alpha = solve_triangular(lower.T, state.newton_coefficients(), lower=False)
    return GreedyResult(
        model=KernelExpansion(data.inputs[state.selected], alpha, cfg.epsilon),
        selected_indices=np.asarray(state.selected, dtype=int),
        status=status,
        max_power_history=np.asarray(power_history),
    )
