"""Sparse greedy training of vector-valued kernel interpolants (P-greedy).

The trainer builds the interpolant one center at a time. Each step picks the
training point of largest power function (De Marchi, Schaback & Wendland
2005), extends an orthonormal Newton basis by one function, and updates the
squared power function in O(N) work. The Newton basis columns are exactly
the columns of a partial Cholesky factorization of the kernel matrix, so
only the kernel columns of selected points are evaluated.

Update equations for a new point x_k at step n (0-based):

    v_i  = (K(x_k, x_i) - sum_{m<n} B[i,m] B[k,m]) / sqrt(pool_power[k])
    pool_power[i]  -= v_i^2
    B[i,n]  = v_i, or 0 where v_i^2 < np.finfo(float).tiny

where B holds the Newton basis values at all training inputs, so the
selection never touches the targets. The flush keeps subnormal numbers
(below 2.2e-308) out of B: x86 CPUs multiply them in slow microcode, and at
widths where the kernel values at far rows underflow they made a greedy step
up to four times slower. A flushed value is below 1.5e-154 and |B| <= 1, so
it moves a later sum by less than that. The power subtracts the unflushed
squares, and on the presets' CV grids it and the selection stayed the same
bit for bit. ``pool_power`` is the squared power on the candidate pool and
-inf on selected and excluded rows, which the subtraction leaves at -inf;
the power at a selected row x_k would be 1 - sum_m B[k,m]^2, zero up to
round-off. After the loop, forward
substitution through the lower-triangular B[selected, :n] gives the Newton
coefficients c, and back-substitution through its transpose the plain
kernel coefficients.

Excluded rows never become centers, but the basis covers every row, so
targets[i] - B[i, :n] c at an excluded row i is a held-out error: cross
validation scores its folds this way, and the folds of one width share one
cache of kernel rows (:func:`cached_kernel_rows`).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .kernels import GaussianKernel, KernelExpansion, _gaussian, _rows_distinct
from .ode import _check_int, _check_real

__all__ = [
    "POWER_FLOOR",
    "TrainingSet",
    "TrainConfig",
    "GreedyState",
    "cached_kernel_rows",
    "GreedyResult",
    "select_next",
    "update_basis",
    "run_greedy",
    "greedy_train",
]

# Squared power values at or below this are treated as numerically zero;
# such candidates are excluded to keep the pivot in the basis update safe.
POWER_FLOOR = 1e-14

# Basis values whose square falls below the smallest normal double are
# stored as 0 (see the module docstring).
_TINY = np.finfo(float).tiny


@dataclass(frozen=True)
class TrainingSet:
    """Interpolation data: finite inputs (N, p), pairwise distinct rows; finite targets (N, q)."""

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
        for name, array in (("inputs", inputs), ("targets", targets)):
            if not np.isfinite(array).all():
                raise ValueError(f"training {name} must be finite")
        if not _rows_distinct(inputs):
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
        object.__setattr__(self, "epsilon", _check_real("epsilon", self.epsilon))
        tolerance = _check_real("tolerance", self.tolerance, zero_ok=True)
        object.__setattr__(self, "tolerance", tolerance)
        max_centers = _check_int("max_centers", self.max_centers, 1, optional=True)
        object.__setattr__(self, "max_centers", max_centers)


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
    kernel_row
        Callable mapping a row index k to the kernel row K(x_k, x_i) over all
        training inputs, which the caller must not write; by default
        :func:`_on_demand_kernel_rows`.
    max_centers
        n_max, ``cfg.max_centers`` limited to the unexcluded rows.
    """

    def __init__(self, data: TrainingSet, cfg: TrainConfig, excluded=None,
                 kernel_row: Callable[[int], np.ndarray] | None = None):
        rows = np.array([], dtype=int) if excluded is None else np.asarray(excluded)
        outside = (rows < 0) | (rows >= data.size)
        if outside.any():
            raise ValueError(f"excluded rows must lie in [0, {data.size}), "
                             f"got {rows[outside].tolist()}")
        self.pool_power = np.ones(data.size)  # K(x, x) = 1 for the Gaussian
        self.pool_power[rows] = -np.inf
        pool = int(np.count_nonzero(np.isfinite(self.pool_power)))
        self.max_centers = n_max = pool if cfg.max_centers is None else min(pool, cfg.max_centers)
        self.data = data
        self.cfg = cfg
        if kernel_row is None:
            kernel_row = _on_demand_kernel_rows(data.inputs, cfg.epsilon)
        self.kernel_row = kernel_row
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


def _on_demand_kernel_rows(inputs: np.ndarray, epsilon: float) -> Callable[[int], np.ndarray]:
    """A ``kernel_row`` source that evaluates row k as ``kernel(X[[k]], X)[0]``
    on every request. The row, not the column: cdist gives the same bits
    either way, and one query point against N is faster than N against one."""
    kernel = GaussianKernel(epsilon)
    return lambda k: kernel(inputs[[k]], inputs)[0]


def cached_kernel_rows(sq_dists: np.ndarray, epsilon: float) -> Callable[[int], np.ndarray]:
    """A ``kernel_row`` source over the (N, N) squared distances of a training
    set: row k is exp(-epsilon^2 sq_dists[k]), evaluated on its first request
    and kept read-only, so the greedy runs sharing the source evaluate each
    row once."""
    cache: dict[int, np.ndarray] = {}

    def kernel_row(k: int) -> np.ndarray:
        row = cache.get(k)
        if row is None:
            row = cache[k] = _gaussian(sq_dists[k], epsilon)
            row.flags.writeable = False
        return row

    return kernel_row


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

    Mutates ``state`` in place and returns it. At most one kernel row, that
    of the new point, is evaluated; the step costs O(N * n). An index
    outside [0, N), or of a selected or excluded row, raises ValueError.
    """
    if not 0 <= new_index < len(state.pool_power):
        raise ValueError(f"point {new_index} is outside the rows [0, {len(state.pool_power)})")
    if state.pool_power[new_index] == -np.inf:
        raise ValueError(f"point {new_index} is already selected or excluded")
    pivot = state.pool_power[new_index]
    if pivot <= POWER_FLOOR:
        raise ValueError(
            f"power function at point {new_index} is numerically zero "
            f"({pivot:.3e}); the basis update would be near-singular"
        )
    n = state.n_selected
    row = state.kernel_row(new_index)
    # A new array, so a shared row is never written.
    col = row - state.newton_basis[:, :n] @ state.newton_basis[new_index, :n]
    col /= np.sqrt(pivot)
    sq = col * col
    col[sq < _TINY] = 0.0
    state.newton_basis[:, n] = col
    state.pool_power -= sq
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
