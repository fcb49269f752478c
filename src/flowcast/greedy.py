"""Sparse greedy training of vector-valued kernel interpolants (VKOGA).

The trainer builds the interpolant one center at a time. Each step picks the
training point maximizing a selection criterion, extends an orthonormal
Newton basis by one function, and updates the squared power function (and
the residuals, for the rules that read them) in O(N) work. The Newton basis
columns are exactly the columns of a partial Cholesky factorization of the
kernel matrix, so only the kernel columns of selected points are evaluated.

Update equations for a new point x_k at step n (0-based):

    v_i  = (K(x_i, x_k) - sum_{m<n} B[i,m] B[k,m]) / sqrt(power_sq[k])
    power_sq[i]  -= v_i^2
    residual[i]  -= v_i residual[k] / v_k        (F and FP rules only)

where B holds the Newton basis values at all training inputs, so a P-rule
run never touches the targets. After the loop, forward substitution through
the lower-triangular B[selected, :n] gives the Newton coefficients c, and
back-substitution through its transpose the plain kernel coefficients.

Excluded rows never become centers, but the basis covers every row, so
targets[i] - B[i, :n] c at an excluded row i is a held-out error: cross
validation scores its folds this way, with kernel columns from a shared
distance matrix.
"""

from __future__ import annotations

import enum
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dger

from .kernels import GaussianKernel, KernelExpansion, _check_epsilon, _gaussian

__all__ = [
    "POWER_FLOOR",
    "SelectionRule",
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


class SelectionRule(enum.Enum):
    """Greedy selection criterion: residual size, power function, or their ratio.

    Criterion values are kept in the squared scale (squared residual 2-norm,
    squared power, or their quotient): the argmax is the same as for the
    plain quantities, and the termination tolerance compares in this scale,
    so tolerance 1e-12 stops once every residual norm is at or below 1e-6.
    """

    F_GREEDY = "f"
    P_GREEDY = "p"
    FP_GREEDY = "fp"

    @classmethod
    def from_string(cls, name: str) -> "SelectionRule":
        try:
            return cls(name.strip().lower())
        except ValueError:
            valid = ", ".join(r.value for r in cls)
            raise ValueError(f"unknown selection rule {name!r} (expected one of: {valid})")


@dataclass(frozen=True)
class TrainingSet:
    """Interpolation data: inputs (N, p) with pairwise distinct rows, targets (N, q)."""

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

    ``tolerance`` is an absolute threshold on the squared selection criterion
    (zero allowed: run until the candidate pool or the center budget is
    spent). ``max_centers=None`` means unlimited.
    """

    epsilon: float
    rule: SelectionRule = SelectionRule.F_GREEDY
    tolerance: float = 1e-12
    max_centers: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "epsilon", _check_epsilon(self.epsilon))
        if not isinstance(self.rule, SelectionRule):
            object.__setattr__(self, "rule", SelectionRule.from_string(self.rule))
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

    Attributes
    ----------
    newton_basis
        (N, n_max) array; column m holds the m-th Newton basis function
        evaluated at every training input (filled up to ``n_selected``).
    residuals
        (N, q) targets minus the interpolant at each input; None under the P rule.
    power_sq
        Length-N squared power function; exactly 0 at selected indices.
    pool_power
        ``power_sq`` on the pool (the rows neither ``excluded`` nor selected)
        and -inf elsewhere; the P criterion.
    sq_dists
        Optional (N, N) squared input distances supplying the kernel columns.
    max_centers
        n_max, the requested center cap limited to the unexcluded rows.
    """

    def __init__(self, data: TrainingSet, kernel: GaussianKernel, max_centers: int | None = None,
                 excluded=None, sq_dists: np.ndarray | None = None, rule=SelectionRule.F_GREEDY):
        self.pool_power = np.ones(data.size)
        self.pool_power[[] if excluded is None else excluded] = -np.inf
        pool = int(np.count_nonzero(np.isfinite(self.pool_power)))
        self.max_centers = n_max = pool if max_centers is None else min(pool, max_centers)
        self.data = data
        self.kernel = kernel
        self.sq_dists = sq_dists
        self.newton_basis = np.zeros((data.size, n_max))
        self.residuals = None if rule is SelectionRule.P_GREEDY else data.targets.copy()
        self.power_sq = np.ones(data.size)  # K(x, x) = 1 for the Gaussian
        self.selected: list[int] = []
        self.is_selected = np.zeros(data.size, dtype=bool)

    @property
    def n_selected(self) -> int:
        return len(self.selected)

    def criterion_values(self, rule: SelectionRule) -> np.ndarray:
        """Squared selection criterion per point; -inf off the pool and at the floor."""
        mask = self.pool_power > POWER_FLOOR
        if rule is SelectionRule.P_GREEDY:
            return np.where(mask, self.pool_power, -np.inf)
        crit = np.full(self.data.size, -np.inf)
        res_sq = np.sum(self.residuals[mask] ** 2, axis=1)
        crit[mask] = res_sq if rule is SelectionRule.F_GREEDY else res_sq / self.power_sq[mask]
        return crit

    def newton_coefficients(self) -> np.ndarray:
        """(n, q) Newton coefficients: forward substitution through B[selected, :n]."""
        sel = self.selected
        return solve_triangular(self.newton_basis[sel, :len(sel)], self.data.targets[sel],
                                lower=True, check_finite=False)


def select_next(state: GreedyState, rule: SelectionRule) -> tuple[int, float] | None:
    """Index and squared criterion value of the criterion-maximizing
    candidate; ties go to the lowest index.

    Returns None when every unselected point sits at the power floor, which
    signals termination to the caller.
    """
    if rule is SelectionRule.P_GREEDY:  # one argmax; a maximum at the floor leaves no candidate
        k = int(state.pool_power.argmax())
        return (k, float(state.pool_power[k])) if state.pool_power[k] > POWER_FLOOR else None
    crit = state.criterion_values(rule)
    if not np.any(np.isfinite(crit)):
        return None
    k = int(np.argmax(crit))
    return k, float(crit[k])


def update_basis(state: GreedyState, new_index: int) -> GreedyState:
    """Append one Newton basis column for ``new_index`` and refresh the state.

    Mutates ``state`` in place and returns it. Only the single kernel-matrix
    column of the new point is evaluated; the step costs O(N * n).
    """
    if state.pool_power[new_index] == -np.inf:
        raise ValueError(f"point {new_index} is already selected or excluded")
    pivot = state.power_sq[new_index]
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
    if state.residuals is not None:
        # residuals -= v c^T in place; c = residual[k] / v_k zeroes it at x_k.
        dger(-1.0, state.residuals[new_index] / v[new_index], v, a=state.residuals.T, overwrite_a=1)
    v *= v
    state.power_sq -= v
    state.pool_power -= v
    state.power_sq[new_index] = 0.0
    state.pool_power[new_index] = -np.inf
    state.is_selected[new_index] = True
    state.selected.append(int(new_index))
    return state


@dataclass
class GreedyResult:
    """Trained expansion plus per-iteration diagnostics of the greedy run.

    ``status`` is one of "tolerance" (criterion dropped below the threshold),
    "max_centers", "exhausted" (every pool point selected), or "stalled" (all
    remaining candidates at the power floor). A stall is recorded here only,
    not warned about: cross validation stalls routinely at extreme widths
    and counts those runs instead.
    The histories record, at each loop entry, the maximum squared selection
    criterion and the maximum squared power over the remaining pool.
    """

    model: KernelExpansion
    selected_indices: np.ndarray
    status: str
    criterion_history: np.ndarray = field(repr=False, default=None)
    max_power_history: np.ndarray = field(repr=False, default=None)

    @property
    def n_centers(self) -> int:
        return self.model.n_centers


def run_greedy(state: GreedyState, cfg: TrainConfig):
    """Select until tolerance, budget, pool, or floor exhaustion; return the
    status and the criterion and max-power histories."""
    crit_history: list[float] = []
    power_history: list[float] = []
    while True:
        best = select_next(state, cfg.rule)  # a P-rule value is the maximum pool power
        power_history.append(best[1] if best and cfg.rule is SelectionRule.P_GREEDY
                             else float(np.max(state.pool_power)))
        if best is None:
            return "stalled", crit_history, power_history
        k, crit_k = best
        crit_history.append(crit_k)
        if crit_k <= cfg.tolerance:
            return "tolerance", crit_history, power_history
        update_basis(state, k)
        if state.n_selected >= state.max_centers:
            status = "max_centers" if np.isfinite(state.pool_power).any() else "exhausted"
            return status, crit_history, power_history


def greedy_train(data: TrainingSet, cfg: TrainConfig) -> GreedyResult:
    """Train an expansion on ``data`` with one greedy run."""
    state = GreedyState(data, GaussianKernel(cfg.epsilon), cfg.max_centers, rule=cfg.rule)
    status, crit_history, power_history = run_greedy(state, cfg)
    # The Newton basis values at the selected points form the lower-triangular
    # Cholesky factor of the selected kernel submatrix (0 x 0 without centers).
    lower = state.newton_basis[state.selected, :state.n_selected]
    alpha = solve_triangular(lower.T, state.newton_coefficients(), lower=False)
    return GreedyResult(
        model=KernelExpansion(data.inputs[state.selected], alpha, cfg.epsilon),
        selected_indices=np.asarray(state.selected, dtype=int),
        status=status,
        criterion_history=np.asarray(crit_history),
        max_power_history=np.asarray(power_history),
    )
