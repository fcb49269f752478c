"""Kernel primitives: pointwise values, Gram matrices, expansions."""

import dataclasses

import numpy as np
import pytest
from scipy.linalg import solve

from flowcast.kernels import (
    GaussianKernel,
    KernelExpansion,
    _first_equal_rows,
    _rows_distinct,
)
from flowcast.ode import _check_real


def _as_point(x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-d point, got array of shape {x.shape}")
    return x


def gaussian_eval(x, y, epsilon) -> float:
    """Reference: exp(-epsilon^2 ||x - y||_2^2) for two points of equal length."""
    x = _as_point(x)
    y = _as_point(y)
    if x.shape != y.shape:
        raise ValueError(f"point dimensions differ: {x.shape[0]} vs {y.shape[0]}")
    eps = _check_real("epsilon", epsilon)
    d2 = float(np.sum((x - y) ** 2))
    return float(np.exp(-eps * eps * d2))


def test_gaussian_eval_known_values():
    assert gaussian_eval([1.0, 2.0], [1.0, 2.0], 3.0) == 1.0
    got = gaussian_eval([0.0], [2.0], 0.5)
    assert got == pytest.approx(np.exp(-0.25 * 4.0), rel=1e-15)


def test_gaussian_eval_symmetry(rng):
    x, y = rng.random(4), rng.random(4)
    assert gaussian_eval(x, y, 1.3) == gaussian_eval(y, x, 1.3)


def test_gaussian_eval_rejects_bad_arguments():
    with pytest.raises(ValueError, match="dimensions differ"):
        gaussian_eval([1.0, 2.0], [1.0], 1.0)
    with pytest.raises(ValueError, match="1-d point"):
        gaussian_eval(np.zeros((2, 2)), np.zeros((2, 2)), 1.0)
    for bad in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="epsilon must be a real number > 0"):
            gaussian_eval([0.0], [1.0], bad)


def test_kernel_class_matches_pointwise(rng):
    X, Y = rng.random((5, 3)), rng.random((4, 3))
    K = GaussianKernel(0.7)(X, Y)
    assert K.shape == (5, 4)
    for i in range(5):
        for j in range(4):
            assert K[i, j] == pytest.approx(gaussian_eval(X[i], Y[j], 0.7), rel=1e-15)


def test_kernel_diag_and_self_matrix(rng):
    X = rng.random((6, 2))
    K = GaussianKernel(1.1)(X)
    assert np.allclose(K, K.T)
    assert np.array_equal(np.diag(K), np.ones(6))


def test_kernel_dimension_mismatch():
    with pytest.raises(ValueError, match="dimensions differ"):
        GaussianKernel(1.0)(np.zeros((3, 2)), np.zeros((3, 4)))
    with pytest.raises(ValueError, match="expected a 2-d array of points"):
        GaussianKernel(1.0)(np.zeros(3))


def test_kernel_matrix_positive_definite(rng):
    X = rng.random((12, 3))
    K = GaussianKernel(1.5)(X)
    assert np.linalg.eigvalsh(K).min() > 0


def test_expansion_two_center_solve(rng):
    """Coefficients from a direct 2x2 solve reproduce the targets at centers."""
    centers = np.array([[0.0, 0.0], [1.0, 0.5]])
    targets = np.array([[1.0, -2.0], [0.5, 3.0]])
    eps = 0.9
    alpha = solve(GaussianKernel(eps)(centers), targets)
    model = KernelExpansion(centers, alpha, eps)
    assert np.allclose(model(centers[0]), targets[0], atol=1e-12)
    assert np.allclose(model(centers[1]), targets[1], atol=1e-12)


def test_expansion_with_identity_coefficients_is_the_kernel_row(rng):
    """The norm-expanded evaluation against cdist and the pointwise reference."""
    centers = rng.random((9, 4))
    eps = 1.7
    model = KernelExpansion(centers, np.eye(9), eps)
    kernel = GaussianKernel(eps)
    pts = np.vstack([rng.random((6, 4)), centers])  # includes X == C
    want = kernel(pts, centers)
    assert np.allclose(model(pts), want, rtol=0, atol=1e-14)
    for x, row in zip(pts, want):
        assert np.allclose(model(x), row, rtol=0, atol=1e-14)
        ref = [gaussian_eval(x, c, eps) for c in centers]
        assert np.allclose(model(x), ref, rtol=0, atol=1e-14)


def test_expansion_single_vs_batch(rng):
    model = KernelExpansion(rng.random((5, 3)), rng.standard_normal((5, 2)), 1.2)
    pts = rng.random((7, 3))
    batch = model(pts)
    assert batch.shape == (7, 2)
    for i in range(7):
        single = model(pts[i])
        assert single.shape == (2,)
        # BLAS may round matrix-matrix and matrix-vector products differently.
        assert np.allclose(single, batch[i], rtol=1e-13, atol=1e-15)


def test_empty_expansion_evaluates_to_zero():
    model = KernelExpansion(np.zeros((0, 3)), np.zeros((0, 2)), 1.0)
    assert model.n_centers == 0
    assert np.array_equal(model(np.ones(3)), np.zeros(2))
    assert np.array_equal(model(np.ones((4, 3))), np.zeros((4, 2)))


def test_expansion_validation(rng):
    centers = rng.random((4, 2))
    coeffs = rng.random((4, 3))
    with pytest.raises(ValueError, match="centers but"):
        KernelExpansion(centers, coeffs[:3], 1.0)
    with pytest.raises(ValueError, match="2-d"):
        KernelExpansion(centers[0], coeffs, 1.0)
    with pytest.raises(ValueError, match="coefficients must be 2-d"):
        KernelExpansion(centers, coeffs[:, 0], 1.0)
    with pytest.raises(ValueError, match="pairwise distinct"):
        KernelExpansion(np.zeros((2, 2)), np.zeros((2, 1)), 1.0)
    with pytest.raises(ValueError, match="epsilon must be a real number > 0"):
        KernelExpansion(centers, coeffs, -1.0)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="must be finite"):
            KernelExpansion(np.where(np.eye(4, 2, dtype=bool), bad, centers), coeffs, 1.0)
        with pytest.raises(ValueError, match="must be finite"):
            KernelExpansion(centers, np.where(np.eye(4, 3, dtype=bool), bad, coeffs), 1.0)
    model = KernelExpansion(centers, coeffs, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        model(np.ones(5))


def test_expansion_is_immutable(rng):
    model = KernelExpansion(rng.random((3, 2)), rng.random((3, 1)), 1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.epsilon = 2.0
    with pytest.raises(ValueError):
        model.centers[0, 0] = 99.0


def test_first_equal_rows_matches_pairwise_comparison(rng):
    # Repeats planted at random places, entries of either sign of zero, the
    # empty and one-row arrays, and arrays beyond one 64-row block, against a
    # brute-force pairwise check.
    for n in [0, 1, *rng.integers(2, 40, 300), 63, 64, 65, 129, 300]:
        p = int(rng.integers(1, 5))
        points = rng.integers(-2, 3, (n, p)) * rng.choice([1.0, -1.0], (n, p))
        if n > 1:
            points[rng.integers(1, n)] = points[rng.integers(0, n)]
        want = [int(np.flatnonzero((points == points[i]).all(axis=1))[0]) for i in range(n)]
        assert _first_equal_rows(points).tolist() == want


def test_rows_distinct_is_value_equality(rng):
    # The verdict of np.unique(X, axis=0): rows equal in value, +0 and -0
    # included, are repeats wherever they sit.
    for _ in range(500):
        n, p = rng.integers(1, 25), rng.integers(1, 5)
        points = rng.integers(-2, 3, (n, p)) * rng.choice([1.0, -1.0], (n, p))
        assert _rows_distinct(points) == (np.unique(points, axis=0).shape[0] == n)
    assert _rows_distinct(np.empty((0, 3)))
    assert not _rows_distinct(np.array([[1.0, 0.0], [2.0, 1.0], [1.0, -0.0]]))
    with pytest.raises(ValueError, match="pairwise distinct"):
        KernelExpansion(np.array([[0.0, 1.0], [-0.0, 1.0]]), np.zeros((2, 1)), 1.0)
