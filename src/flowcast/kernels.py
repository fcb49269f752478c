"""Gaussian kernel primitives: kernel matrices and vector-valued kernel
expansions.

Everything here is a pure function of immutable inputs and safe to call
concurrently. All arithmetic is double precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .ode import _check_real

__all__ = [
    "GaussianKernel",
    "KernelExpansion",
]


def _as_points(X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a 2-d array of points, got shape {X.shape}")
    return X


def _first_equal_rows(points: np.ndarray) -> np.ndarray:
    """For each row of a 2-d array, the index of the first row equal to it by
    value (+0 equals -0, as under ``np.unique``). The rows must be finite.

    Adding +0 turns -0 into +0 and leaves every other finite value as it is,
    so two finite rows are equal exactly when their bytes are. The sum is
    taken 64 rows at a time, so no copy of all the rows is made.
    """
    first: dict[bytes, int] = {}
    rows = (row for start in range(0, len(points), 64) for row in points[start:start + 64] + 0.0)
    return np.array([first.setdefault(row.tobytes(), i) for i, row in enumerate(rows)],
                    dtype=np.intp)


def _rows_distinct(points: np.ndarray) -> bool:
    """Whether the finite rows of a 2-d array are pairwise distinct by value."""
    return bool((_first_equal_rows(points) == np.arange(len(points))).all())


def _gaussian(sq_dists: np.ndarray, epsilon: float) -> np.ndarray:
    """exp(-epsilon^2 d) for squared distances d = ||x - y||_2^2 (from cdist)."""
    return np.exp(-(epsilon**2) * sq_dists)


class GaussianKernel:
    """Gaussian kernel exp(-epsilon^2 ||x - y||_2^2).

    Parameters
    ----------
    epsilon
        Positive shape parameter (inverse length scale of the inputs).
    """

    def __init__(self, epsilon: float):
        self.epsilon = _check_real("epsilon", epsilon)

    def __call__(self, X, Y=None) -> np.ndarray:
        """Pairwise kernel matrix between the rows of `X` and `Y` (`X` if None)."""
        X = _as_points(X)
        Y = X if Y is None else _as_points(Y)
        if X.shape[1] != Y.shape[1]:
            raise ValueError(
                f"point dimensions differ: {X.shape[1]} vs {Y.shape[1]}"
            )
        return _gaussian(cdist(X, Y, "sqeuclidean"), self.epsilon)

    def __repr__(self):
        return f"GaussianKernel(epsilon={self.epsilon!r})"


@dataclass(frozen=True)
class KernelExpansion:
    """Sparse vector-valued Gaussian expansion sum_j coeff_j K(x, center_j).

    ``centers`` has shape (n, p) with pairwise distinct rows, ``coefficients``
    shape (n, q) with one coefficient vector per center; both must be
    finite. An expansion with n = 0 evaluates to the zero vector.

    Evaluation expands ||c - x||^2 = ||c||^2 - 2 c.x + ||x||^2 with the
    centers' squared norms cached at construction, so a point costs two
    matrix-vector products. This differs from a ``cdist`` evaluation (used by
    :class:`GaussianKernel` and training) at round-off in the distances.
    """

    centers: np.ndarray
    coefficients: np.ndarray
    epsilon: float

    def __post_init__(self):
        centers = np.array(self.centers, dtype=float, copy=True)
        # Fortran order, as training's solve_triangular gives it: a loaded
        # model then evaluates bit for bit as the trained one.
        coefficients = np.array(self.coefficients, dtype=float, order="F")
        if centers.ndim != 2:
            raise ValueError(f"centers must be 2-d, got shape {centers.shape}")
        if coefficients.ndim != 2:
            raise ValueError(
                f"coefficients must be 2-d, got shape {coefficients.shape}"
            )
        if centers.shape[0] != coefficients.shape[0]:
            raise ValueError(
                f"{centers.shape[0]} centers but {coefficients.shape[0]} coefficients"
            )
        if not (np.isfinite(centers).all() and np.isfinite(coefficients).all()):
            raise ValueError("centers and coefficients must be finite")
        if not _rows_distinct(centers):
            raise ValueError("centers must be pairwise distinct")
        eps = _check_real("epsilon", self.epsilon)
        centers.flags.writeable = False
        coefficients.flags.writeable = False
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "coefficients", coefficients)
        object.__setattr__(self, "epsilon", eps)
        # Derived, so neither a field nor persisted.
        sq_norms = np.einsum("ij,ij->i", centers, centers)
        sq_norms.flags.writeable = False
        object.__setattr__(self, "_center_sq_norms", sq_norms)

    @property
    def n_centers(self) -> int:
        return self.centers.shape[0]

    @property
    def input_dim(self) -> int:
        return self.centers.shape[1]

    @property
    def output_dim(self) -> int:
        return self.coefficients.shape[1]

    def evaluate(self, x) -> np.ndarray:
        """Evaluate at one point (shape (p,) -> (q,)) or a batch ((M, p) -> (M, q))."""
        x = np.asarray(x, dtype=float)
        if x.ndim not in (1, 2) or x.shape[-1] != self.input_dim:
            raise ValueError(
                f"expected points of dimension {self.input_dim}, got shape {x.shape}"
            )
        if x.ndim == 1:
            sq_dists = self.centers @ x
            x_sq_norms = x @ x
        else:
            sq_dists = x @ self.centers.T
            x_sq_norms = np.einsum("ij,ij->i", x, x)[:, None]
        # In place, so a batch allocates one (M, n) array.
        sq_dists *= -2.0
        sq_dists += self._center_sq_norms
        sq_dists += x_sq_norms
        sq_dists *= -(self.epsilon**2)
        return np.exp(sq_dists, out=sq_dists) @ self.coefficients

    __call__ = evaluate
