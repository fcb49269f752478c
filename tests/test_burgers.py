"""Finite-volume Burgers discretization and the problem registry."""

import dataclasses
import re

import numpy as np
import pytest

from flowcast.burgers import (
    BurgersGrid,
    _flux_partials,
    burgers_initial,
    burgers_jacobian,
    burgers_linearize,
    burgers_rhs,
    make_burgers_problem,
)
from flowcast.ode import NewtonConfig, integrate
from flowcast.problems import build_problem, register_problem

from conftest import finite_difference_jacobian, shock_position

PARAMS = (3.4, 0.2)


def band_to_dense(ab):
    """Expand (1, 1) LAPACK band storage to the dense matrix."""
    return np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)


def dense_twin(problem):
    """The same problem with its Jacobian expanded to dense and no band declared."""

    def linearize(u, mu):
        f, jacobian = problem.linearize(u, mu)
        return f, lambda: band_to_dense(jacobian())

    return dataclasses.replace(problem, linearize=linearize, jacobian_bands=None)


def test_grid_geometry():
    grid = BurgersGrid(200, 5.0)
    assert grid.h == pytest.approx(0.05)
    assert grid.centers.shape == (200,)
    assert grid.centers[0] == pytest.approx(-4.975)
    assert grid.centers[-1] == pytest.approx(4.975)
    assert np.allclose(grid.centers, -grid.centers[::-1])
    with pytest.raises(ValueError, match="cells"):
        BurgersGrid(0, 5.0)
    with pytest.raises(ValueError, match="half_width"):
        BurgersGrid(10, -1.0)


@pytest.mark.parametrize("options, message", [
    ({"foo": 1}, "bad options for problem 'burgers': .*'foo'"),
    ({"name": "burgers"}, "bad options for problem 'burgers': .*'name'"),
    ({"cells": 250.0}, "cells must be an integer >= 1, got 250.0"),
    ({"cells": "200"}, "cells must be an integer >= 1, got '200'"),
    ({"half_width": "5"}, "half_width must be a real number > 0, got '5'"),
    ({"half_width": None}, "half_width must be a real number > 0, got None"),
    # A bool is not a number here, though Python counts it as one.
    ({"cells": True}, "cells must be an integer >= 1, got True"),
    ({"half_width": True}, "half_width must be a real number > 0, got True"),
])
def test_build_problem_rejects_bad_options(options, message):
    """Unknown and ill-typed options raise ValueError before any grid is used."""
    with pytest.raises(ValueError, match=message):
        build_problem("burgers", **options)
    assert build_problem("burgers", cells=np.int64(12), half_width=2).dim == 12


def test_mu_is_checked_pair():
    problem = make_burgers_problem(cells=4)
    assert np.array_equal(problem.initial_value(np.array([3.4, 0.2])), [3.4, 3.4, 0.2, 0.2])
    # A finite float64 pair takes a shortcut; every other form is converted first.
    u = np.array([3.0, 2.0, 1.0, 0.5])
    for mu in ([3.4, 0.2], np.array([[3.4, 0.2]])):
        assert np.array_equal(problem.linearize(u, mu)[0],
                              problem.linearize(u, np.array([3.4, 0.2]))[0])
    for mu in ([1.0], (1.0, 0.5, 0.0), np.zeros(3), np.zeros((2, 2))):
        with pytest.raises(ValueError, match="two components"):
            problem.initial_value(mu)
        with pytest.raises(ValueError, match="two components"):
            problem.linearize(np.zeros(4), mu)
    # A non-finite float64 pair is refused as the same values in a tuple are,
    # alone and as a row of a stack.
    grid, finite = BurgersGrid(4, 5.0), np.array([3.4, 0.2])
    not_finite = "mu must be a finite real number or a 1-d sequence of them"
    for bad in (np.nan, np.inf):
        for mu, states in [(np.array([bad, 0.2]), u), ((bad, 0.2), u),
                           (np.array([finite, [0.5, bad]]), np.stack([u, u]))]:
            for call in (lambda: burgers_rhs(states, mu, grid),
                         lambda: burgers_jacobian(states, mu, grid),
                         lambda: problem.linearize(states, mu)):
                with pytest.raises(ValueError, match=not_finite):
                    call()
        with pytest.raises(ValueError, match=not_finite):
            burgers_initial(np.array([bad, 0.2]), grid)
        with pytest.raises(ValueError, match=not_finite):
            problem.initial_value(np.array([0.2, bad]))


def test_problem_calls_module_globals(monkeypatch):
    """The problem reaches burgers_linearize through the module, so wrappers
    installed after it is built (a tracer) see every call."""
    problem = make_burgers_problem(cells=4)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return burgers_linearize(*args, **kwargs)

    monkeypatch.setattr("flowcast.burgers.burgers_linearize", counting)
    f, jacobian = problem.linearize(np.ones(4), PARAMS)
    assert jacobian().shape == (3, 4) and f.shape == (4,)
    problem.linearize(np.ones((2, 4)), np.array([PARAMS, PARAMS]))
    assert calls == [(4,), (2, 4)]


def test_initial_profile_is_step():
    grid = BurgersGrid(10, 5.0)
    u0 = burgers_initial(PARAMS, grid)
    assert np.array_equal(u0, [3.4] * 5 + [0.2] * 5)


def test_rhs_zero_on_constant_state():
    grid = BurgersGrid(50, 5.0)
    rhs = burgers_rhs(np.full(50, 2.5), (2.5, 2.5), grid)
    assert np.array_equal(rhs, np.zeros(50))


def test_rhs_rejects_wrong_shape():
    grid = BurgersGrid(50, 5.0)
    with pytest.raises(ValueError, match="shape"):
        burgers_rhs(np.zeros(49), PARAMS, grid)


def test_jacobian_matches_finite_differences(rng):
    grid = BurgersGrid(30, 5.0)
    u = 0.2 + 3.2 * rng.random(30)
    exact = band_to_dense(burgers_jacobian(u, PARAMS, grid))
    fd = finite_difference_jacobian(lambda w: burgers_rhs(w, PARAMS, grid), u)
    assert np.max(np.abs(exact - fd)) < 1e-7


def test_jacobian_is_tridiagonal(rng):
    grid = BurgersGrid(25, 5.0)
    u = 0.2 + 3.2 * rng.random(25)
    ab = burgers_jacobian(u, PARAMS, grid)
    assert ab.shape == (3, 25)
    # Band storage leaves the top-left and bottom-right corners unused.
    assert ab[0, 0] == 0.0 and ab[2, -1] == 0.0
    assert np.all(ab[1] != 0.0)
    assert make_burgers_problem(cells=25).jacobian_bands == (1, 1)


@pytest.mark.parametrize(
    "cells, mu, dt, completes",
    [
        (200, (3.4, 0.2), 0.01, True),
        (200, (3.4, 0.2), 0.05, True),
        (200, (3.4, 0.2), 0.1, False),  # the known stall
        (200, (1.0, 0.5), 0.01, True),
        (1, (3.4, 0.2), 0.1, True),  # a band wider than the 1x1 system
    ],
)
def test_banded_newton_matches_dense(cells, mu, dt, completes):
    banded = make_burgers_problem(cells=cells)
    want = integrate(dense_twin(banded), mu, dt, 1.0)
    got = integrate(banded, mu, dt, 1.0)
    assert [s.iterations for s in got.newton_stats] == [s.iterations for s in want.newton_stats]
    assert got.completed == want.completed == completes
    assert np.max(np.abs(got.final_state - want.final_state)) <= 1e-12
    if not completes:
        # Both fail at the same step after the same iterations.
        assert got.error.split(" (residual")[0] == want.error.split(" (residual")[0]


def reference_flux(a, b):
    lam = np.maximum(np.abs(a), np.abs(b))
    return 0.25 * (a * a + b * b) - 0.5 * lam * (b - a)


def reference_flux_partials(a, b):
    lam = np.maximum(np.abs(a), np.abs(b))
    a_wins = np.abs(a) > np.abs(b)
    dlam_da = np.where(a_wins, np.sign(a), 0.0)
    dlam_db = np.where(a_wins, 0.0, np.sign(b))
    jump = b - a
    dfa = 0.5 * a - 0.5 * dlam_da * jump + 0.5 * lam
    dfb = 0.5 * b - 0.5 * dlam_db * jump - 0.5 * lam
    return dfa, dfb


def same_bits(got, want):
    """Equal values and equal signs, so that -0.0 and 0.0 also count as different."""
    return (
        got.shape == want.shape
        and np.array_equal(got, want)
        and np.array_equal(np.signbit(got), np.signbit(want))
    )


def bit_identity_cases():
    rng = np.random.default_rng(7)
    ties = np.array([2.0, -2.0, 2.0, 2.0, -2.0, -2.0, 0.5, -0.5])
    cases = [
        ("random", rng.uniform(-4.0, 4.0, 60), (3.4, 0.2)),
        ("random-wide", rng.standard_normal(60) * 10.0 ** rng.integers(-8, 8, 60), (-1.5, 2.5)),
        ("ties", ties, (2.0, -0.5)),
        ("a-equals-minus-b", np.tile([1.0, -1.0], 10), (-1.0, 1.0)),
        ("a-equals-b", np.full(12, 2.5), (2.5, 2.5)),
        ("zeros", np.zeros(15), (0.0, 0.0)),
        ("signed-zeros", np.array([0.0, -0.0, 1.0, -0.0, 0.0, -1.0, 0.0]), (-0.0, 0.0)),
        ("negative", -rng.uniform(0.1, 3.0, 40), (-0.2, -3.4)),
        ("one-cell", np.array([0.7]), (3.4, 0.2)),
        ("one-cell-tie", np.array([-3.4]), (3.4, 3.4)),
        ("one-cell-zero", np.array([0.0]), (0.0, -1.0)),
    ]
    return [pytest.param(u, mu, id=name) for name, u, mu in cases]


def reference_linearization(u, mu, h):
    """The right-hand side and its band from the textbook formulas."""
    w = np.concatenate(([mu[0]], u, [mu[1]]))
    a, b = w[:-1], w[1:]
    dfa, dfb = reference_flux_partials(a, b)
    band = np.zeros((3, u.size))
    band[0, 1:] = -dfb[1:-1] / h
    band[1] = (dfb[:-1] - dfa[1:]) / h
    band[2, :-1] = dfa[1:-1] / h
    return -np.diff(reference_flux(a, b)) / h, band


@pytest.mark.parametrize("u, mu", bit_identity_cases())
def test_flux_partials_bit_identical(u, mu):
    # The shared-operation forms give the textbook formulas' bits, signs of
    # zeros included; the reference functions above are those formulas. The
    # stack pairs the case with its mirror image, u(-x) -> -u(x).
    grid = BurgersGrid(u.size, 5.0)
    w = np.concatenate(([mu[0]], u, [mu[1]]))
    abs_w = np.abs(w)
    partials = _flux_partials(w, abs_w, 0.5 * np.maximum(abs_w[:-1], abs_w[1:]), w[1:] - w[:-1])
    for got, want in zip(partials, reference_flux_partials(w[:-1], w[1:])):
        assert same_bits(got, want)
    want_f, want_band = reference_linearization(u, mu, grid.h)
    f, jacobian = burgers_linearize(u, mu, grid)
    assert same_bits(f, want_f) and same_bits(jacobian(), want_band)
    assert same_bits(burgers_rhs(u, mu, grid), want_f)
    assert same_bits(burgers_jacobian(u, mu, grid), want_band)
    mirror = (-u[::-1], (-mu[1], -mu[0]))
    wants = [reference_linearization(*case, grid.h) for case in [(u, mu), mirror]]
    f, jacobian = burgers_linearize(np.stack([u, mirror[0]]), np.array([mu, mirror[1]]), grid)
    assert same_bits(f, np.stack([want[0] for want in wants]))
    assert same_bits(jacobian(), np.stack([want[1] for want in wants]))


def test_baseline_iteration_counts_pinned():
    # Total Newton iterations from the previous state, 200 steps on 200 cells,
    # the counts the benchmark's iteration metrics report. A rewrite of the
    # residual, Jacobian or solve can move them without reaching the
    # acceptance tests; smaller round-off changes are left to the bit-identity
    # tests.
    problem = make_burgers_problem(cells=200)
    for mu, total in [((1.0, 0.5), 600), ((5.0, -1.0), 841), ((3.4, 0.2), 801)]:
        traj = integrate(problem, mu, 0.01, 2.0, NewtonConfig())
        assert traj.completed
        assert traj.total_iterations == total, mu


def test_shock_position_tracks_interface():
    grid = BurgersGrid(10, 5.0)
    u0 = burgers_initial(PARAMS, grid)
    assert shock_position(u0, PARAMS, grid) == pytest.approx(0.5)
    assert shock_position(np.full(10, 3.4), PARAMS, grid) == pytest.approx(5.0)


def test_integration_stays_in_invariant_range():
    problem = make_burgers_problem(cells=40, half_width=5.0)
    traj = integrate(problem, (3.4, 0.2), 0.05, 1.0)
    assert traj.completed
    assert traj.states.min() >= 0.2 - 1e-12
    assert traj.states.max() <= 3.4 + 1e-12


def test_shock_speed_coarse_grid():
    problem = make_burgers_problem(cells=100, half_width=5.0)
    grid = BurgersGrid(100, 5.0)
    traj = integrate(problem, (3.4, 0.2), 0.01, 1.0)
    moved = shock_position(traj.final_state, PARAMS, grid) - shock_position(
        traj.states[0], PARAMS, grid
    )
    assert moved == pytest.approx(1.8, abs=2 * grid.h)


def test_problem_factory_and_registry():
    problem = build_problem("burgers", cells=20, half_width=2.0)
    assert problem.dim == 20
    message = "unknown problem 'nonexistent' (registered: burgers)"
    with pytest.raises(ValueError, match=re.escape(message)):
        build_problem("nonexistent")
    with pytest.raises(ValueError, match="already registered"):
        register_problem("burgers", make_burgers_problem)


@pytest.mark.parametrize("cells", [1, 7, 60])
def test_stacked_rhs_and_jacobian_rows_are_single_calls(cells):
    # Row m of a stacked call has the bits of the 1-d call on state m and
    # parameter m, signs of zeros included.
    rng = np.random.default_rng(cells)
    grid = BurgersGrid(cells, 5.0)
    states = np.stack([
        rng.uniform(-4.0, 4.0, cells),
        rng.standard_normal(cells) * 10.0 ** rng.integers(-8, 8, cells),
        np.resize([2.0, -2.0, 0.5, -0.5], cells),
        np.resize([0.0, -0.0, 1.0, -1.0], cells),
        np.zeros(cells),
    ])
    mus = np.array([(3.4, 0.2), (-1.5, 2.5), (2.0, -0.5), (-0.0, 0.0), (0.0, -1.0)])
    rhs = burgers_rhs(states, mus, grid)
    jac = burgers_jacobian(states, mus, grid)
    assert rhs.shape == (5, cells) and jac.shape == (5, 3, cells)
    for u, mu, rhs_row, jac_block in zip(states, mus, rhs, jac):
        assert same_bits(rhs_row, burgers_rhs(u, mu, grid))
        assert same_bits(jac_block, burgers_jacobian(u, mu, grid))
    # Each row of any other parameters passes the one Burgers parameter rule.
    with pytest.raises(ValueError, match=r"two components \(u_l, u_r\), got 1"):
        burgers_rhs(states, mus[:, :1], grid)
    with pytest.raises(ValueError, match="a stack of 5 states needs 5 parameters, got 3"):
        burgers_rhs(states, mus[:3], grid)
    with pytest.raises(ValueError, match="mu must be iterable, got 3.4"):
        burgers_rhs(states, 3.4, grid)
    # Parameters in any other form than a float64 array are converted first.
    pairs = mus[:2].tolist()
    assert same_bits(burgers_rhs(states[:2], pairs, grid), burgers_rhs(states[:2], mus[:2], grid))
    assert same_bits(burgers_jacobian(states[:2], pairs, grid),
                     burgers_jacobian(states[:2], mus[:2], grid))
    with pytest.raises(ValueError, match=r"two components \(u_l, u_r\), got 3"):
        burgers_rhs(states[:2], [(3.4, 0.2, 1.0), (3.0, 0.4, 0.0)], grid)
    with pytest.raises(ValueError, match="shape"):
        burgers_jacobian(states[:, 1:], mus, grid)
