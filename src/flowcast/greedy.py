"""Sparse greedy training of vector-valued kernel interpolants (VKOGA).

The trainer builds the interpolant one center at a time. Each step picks the
training point maximizing a selection criterion, extends an orthonormal
Newton basis by one function, and updates residuals and the squared power
function in O(N) work. The Newton basis columns are exactly the columns of a
partial Cholesky factorization of the kernel matrix, so only the kernel
columns of selected points are ever evaluated.

Update equations for a new point x_k at step n (0-based):

    v_i  = (K(x_i, x_k) - sum_{m<n} B[i,m] B[k,m]) / sqrt(power_sq[k])
    c_n  = residual[k] / v_k                     (vector in R^q)
    residual[i]  -= v_i c_n
    power_sq[i]  -= v_i^2

where B holds the Newton basis values at all training inputs. Coefficients
in the plain kernel basis are recovered at the end by back-substitution
through the triangular factor B[selected, :n].
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .kernels import GaussianKernel, KernelExpansion, _check_epsilon

__all__ = [
    "POWER_FLOOR",
    "SelectionRule",
    "TrainingSet",
    "TrainConfig",
    "GreedyState",
    "GreedyResult",
    "select_next",
    "update_basis",
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
        if not np.isfinite(self.tolerance) or self.tolerance < 0:
            raise ValueError(f"tolerance must be >= 0, got {self.tolerance!r}")
        if self.max_centers is not None and self.max_centers < 1:
            raise ValueError(f"max_centers must be >= 1 or None, got {self.max_centers!r}")


class GreedyState:
    """Incremental state of one greedy run over a fixed training set.

    Attributes
    ----------
    newton_basis
        (N, n_max) array; column m holds the m-th Newton basis function
        evaluated at every training input (filled up to ``n_selected``).
    residuals
        (N, q) current target minus current interpolant at each input.
    power_sq
        Length-N squared power function; exactly 0 at selected indices.
    newton_coeffs
        (n_max, q) projection coefficients of the targets on the basis.
    max_centers
        n_max, the requested center cap limited to the data size N.
    """

    def __init__(self, data: TrainingSet, kernel: GaussianKernel, max_centers: int | None = None):
        n_max = data.size if max_centers is None else min(data.size, max_centers)
        self.max_centers = n_max
        self.data = data
        self.kernel = kernel
        self.newton_basis = np.zeros((data.size, n_max))
        self.residuals = data.targets.copy()
        self.power_sq = np.ones(data.size)  # K(x, x) = 1 for the Gaussian
        self.newton_coeffs = np.zeros((n_max, data.output_dim))
        self.selected: list[int] = []
        self.is_selected = np.zeros(data.size, dtype=bool)

    @property
    def n_selected(self) -> int:
        return len(self.selected)

    def candidate_mask(self) -> np.ndarray:
        """Unselected points whose power is safely above the numerical floor."""
        return ~self.is_selected & (self.power_sq > POWER_FLOOR)

    def criterion_values(self, rule: SelectionRule) -> np.ndarray:
        """Squared selection criterion per point; -inf outside the candidate set."""
        mask = self.candidate_mask()
        crit = np.full(self.data.size, -np.inf)
        res_sq = np.sum(self.residuals[mask] ** 2, axis=1)
        if rule is SelectionRule.F_GREEDY:
            crit[mask] = res_sq
        elif rule is SelectionRule.P_GREEDY:
            crit[mask] = self.power_sq[mask]
        else:
            crit[mask] = res_sq / self.power_sq[mask]
        return crit


def select_next(state: GreedyState, rule: SelectionRule) -> tuple[int, float] | None:
    """Index and squared criterion value of the criterion-maximizing
    candidate; ties go to the lowest index.

    Returns None when every unselected point sits at the power floor, which
    signals termination to the caller.
    """
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
    if state.is_selected[new_index]:
        raise ValueError(f"point {new_index} is already selected")
    pivot = state.power_sq[new_index]
    if pivot <= POWER_FLOOR:
        raise ValueError(
            f"power function at point {new_index} is numerically zero "
            f"({pivot:.3e}); the basis update would be near-singular"
        )
    n = state.n_selected
    col = state.kernel(state.data.inputs, state.data.inputs[[new_index]])[:, 0]
    if n:
        col -= state.newton_basis[:, :n] @ state.newton_basis[new_index, :n]
    v = col / np.sqrt(pivot)
    state.newton_basis[:, n] = v
    # c_n = residual[k] / v_k makes the updated residual vanish exactly at x_k.
    c = state.residuals[new_index] / v[new_index]
    state.newton_coeffs[n] = c
    state.residuals -= np.outer(v, c)
    state.power_sq -= v * v
    state.power_sq[new_index] = 0.0
    state.is_selected[new_index] = True
    state.selected.append(int(new_index))
    return state


@dataclass
class GreedyResult:
    """Trained expansion plus per-iteration diagnostics of the greedy run.

    ``status`` is one of "tolerance" (criterion dropped below the threshold),
    "max_centers", "exhausted" (every point selected), or "stalled" (all
    remaining candidates at the power floor). A stall is recorded here only,
    not warned about: cross validation stalls routinely at extreme widths
    and counts those runs instead.
    The histories record, at each loop entry, the maximum squared selection
    criterion and the maximum squared power over unselected points.
    """

    model: KernelExpansion
    selected_indices: np.ndarray
    status: str
    criterion_history: np.ndarray = field(repr=False, default=None)
    max_power_history: np.ndarray = field(repr=False, default=None)

    @property
    def n_centers(self) -> int:
        return self.model.n_centers


def _finalize(state: GreedyState, epsilon: float) -> KernelExpansion:
    n = state.n_selected
    if n == 0:
        return KernelExpansion.empty(state.data.input_dim, state.data.output_dim, epsilon)
    # The Newton basis values at the selected points form the lower-triangular
    # Cholesky factor of the selected kernel submatrix.
    lower = state.newton_basis[state.selected, :n]
    alpha = solve_triangular(lower.T, state.newton_coeffs[:n], lower=False)
    return KernelExpansion(state.data.inputs[state.selected], alpha, epsilon)


def greedy_train(data: TrainingSet, cfg: TrainConfig) -> GreedyResult:
    """Run greedy selection until tolerance, budget, pool, or floor exhaustion."""
    state = GreedyState(data, GaussianKernel(cfg.epsilon), cfg.max_centers)
    crit_history: list[float] = []
    power_history: list[float] = []
    while True:
        # The cap check below ends the loop before every point is selected.
        power_history.append(float(np.max(state.power_sq[~state.is_selected])))
        best = select_next(state, cfg.rule)
        if best is None:
            status = "stalled"
            break
        k, crit_k = best
        crit_history.append(crit_k)
        if crit_k <= cfg.tolerance:
            status = "tolerance"
            break
        update_basis(state, k)
        if state.n_selected >= state.max_centers:
            status = "exhausted" if state.max_centers == data.size else "max_centers"
            break
    return GreedyResult(
        model=_finalize(state, cfg.epsilon),
        selected_indices=np.asarray(state.selected, dtype=int),
        status=status,
        criterion_history=np.asarray(crit_history),
        max_power_history=np.asarray(power_history),
    )
