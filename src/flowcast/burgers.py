"""Finite-volume semi-discretization of the inviscid Burgers equation.

The conservation law

    d/dt theta + d/dx (theta^2 / 2) = 0        on (-r, r)

with Dirichlet boundary states u_l (left) and u_r (right) is discretized on a
uniform grid of ``cells`` finite volumes with the local Lax-Friedrichs
(Rusanov) interface flux

    F(a, b) = (a^2 + b^2)/4 - max(|a|, |b|) (b - a)/2.

One ghost cell per side carries the boundary state. The parameter vector is
mu = (u_l, u_r); with u_l > u_r and step initial data the solution is a shock
traveling at speed (u_l + u_r)/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .ode import IvpProblem, _check_int, _check_params, _check_real, _iterable

__all__ = [
    "BurgersGrid",
    "burgers_initial",
    "burgers_linearize",
    "burgers_rhs",
    "burgers_jacobian",
    "make_burgers_problem",
]


def _boundary_states(mu) -> list[float]:
    # The shape an integration passes on every call: finite, it is taken as it is.
    if type(mu) is np.ndarray and mu.dtype == np.float64 and mu.shape == (2,):
        values = mu.tolist()
        if math.isfinite(values[0]) and math.isfinite(values[1]):
            return values
    values = list(_check_params(mu.ravel() if isinstance(mu, np.ndarray) else mu))
    if len(values) != 2:
        raise ValueError(f"mu must have two components (u_l, u_r), got {len(values)}")
    return values


@dataclass(frozen=True)
class BurgersGrid:
    """Uniform cells on (-half_width, half_width)."""

    cells: int = 200
    half_width: float = 5.0

    def __post_init__(self):
        object.__setattr__(self, "cells", _check_int("cells", self.cells, 1))
        object.__setattr__(self, "half_width", _check_real("half_width", self.half_width))

    @property
    def h(self) -> float:
        return 2.0 * self.half_width / self.cells

    @property
    def centers(self) -> np.ndarray:
        return -self.half_width + (np.arange(self.cells) + 0.5) * self.h


def _ghosted(u, mu, grid: BurgersGrid) -> np.ndarray:
    """The state with one ghost cell per side holding the boundary state.

    A stack of states (M, cells), with one row (u_l, u_r) of ``mu`` per
    state, each checked as a lone parameter is, gives the ghosted states as
    columns, shape (cells + 2, M), so that the flux code slices cells on the
    leading axis in both cases.
    """
    u = np.asarray(u, dtype=float)
    if u.shape == (grid.cells,):
        w = np.empty(grid.cells + 2)
        w[0], w[-1] = _boundary_states(mu)
        w[1:-1] = u
        return w
    if u.ndim != 2 or u.shape[1] != grid.cells:
        raise ValueError(
            f"state has shape {u.shape}, expected ({grid.cells},) or (M, {grid.cells})"
        )
    # A finite float64 (M, 2) array, as integrate_many passes it, is taken as it is.
    if not (type(mu) is np.ndarray and mu.dtype == np.float64 and mu.shape == (len(u), 2)
            and np.isfinite(mu).all()):
        mu = np.array([_boundary_states(row) for row in _iterable("mu", mu)])
    if len(mu) != len(u):
        raise ValueError(f"a stack of {len(u)} states needs {len(u)} parameters, got {len(mu)}")
    w = np.empty((grid.cells + 2, len(u)))
    w[0], w[-1] = mu.T
    w[1:-1] = u.T
    return w


def _flux_partials(w, abs_w, half_lam, jump) -> tuple[np.ndarray, np.ndarray]:
    """dF/da and dF/db at the interfaces (a, b) = (w[:-1], w[1:]) of a
    ghosted state, from the |w|, half the max and the jump b - a that the
    flux has computed; at |a| == |b| the b-branch of the max is taken."""
    a_wins = abs_w[:-1] > abs_w[1:]
    sign, half_w, half_jump = np.sign(w), 0.5 * w, 0.5 * jump
    # The sign is 0 or +-1, so sign * (0.5 * jump) rounds as (0.5 * sign) *
    # jump. A masked product differs from selecting the max's branch only in
    # the sign of a zero, where adding half_lam (never -0.0) or subtracting a
    # positive one makes it vanish.
    dfa = half_w[:-1] - sign[:-1] * a_wins * half_jump + half_lam
    dfb = half_w[1:] - sign[1:] * ~a_wins * half_jump - half_lam
    return dfa, dfb


def burgers_linearize(u: np.ndarray, mu, grid: BurgersGrid):
    """The semi-discrete right-hand side du_c/dt = -(F_{c+1/2} - F_{c-1/2})/h
    at u for the boundary states mu = (u_l, u_r), and a function of no
    arguments that returns its exact Jacobian at that u.

    The Jacobian is tridiagonal, in LAPACK band storage of shape (3, d): row
    0 holds the super-diagonal in columns 1..d-1, row 1 the diagonal and row
    2 the sub-diagonal in columns 0..d-2; the two unused corners are zero.
    It is built, when the function is called, from the state ghosted once,
    |w|, half the interface max and the jump that the flux has computed. A
    stack of states (M, cells) with mu of shape (M, 2) gives shapes
    (M, cells) and (M, 3, cells), each row bit for bit that state's own call.
    """
    w = _ghosted(u, mu, grid)
    h = grid.h
    abs_w, sq = np.abs(w), w * w
    half_lam = 0.5 * np.maximum(abs_w[:-1], abs_w[1:])
    jump = w[1:] - w[:-1]
    flux = 0.25 * (sq[:-1] + sq[1:]) - half_lam * jump  # F(a, b) at (w[:-1], w[1:])
    f = ((flux[1:] - flux[:-1]) / -h).T  # -x / h, down to the sign of a zero

    def jacobian():
        dfa, dfb = _flux_partials(w, abs_w, half_lam, jump)
        ab = np.zeros((3, grid.cells) + dfa.shape[1:])
        np.divide(dfb[1:-1], -h, out=ab[0, 1:])  # -(x / h), as -x / h rounds
        np.divide(dfb[:-1] - dfa[1:], h, out=ab[1])
        np.divide(dfa[1:-1], h, out=ab[2, :-1])
        return ab if ab.ndim == 2 else ab.transpose(2, 0, 1)

    return f, jacobian


def burgers_rhs(u: np.ndarray, mu, grid: BurgersGrid) -> np.ndarray:
    """The right-hand side half of :func:`burgers_linearize`."""
    return burgers_linearize(u, mu, grid)[0]


def burgers_jacobian(u: np.ndarray, mu, grid: BurgersGrid) -> np.ndarray:
    """The Jacobian half of :func:`burgers_linearize`, in band storage."""
    return burgers_linearize(u, mu, grid)[1]()


def burgers_initial(mu, grid: BurgersGrid) -> np.ndarray:
    """Step profile: u_l on cells with center left of x = 0, u_r elsewhere."""
    u_l, u_r = _boundary_states(mu)
    return np.where(grid.centers < 0, u_l, u_r)


# The problem calls burgers_linearize through this module global at every
# call, never a reference bound when it is built, so that a wrapper installed
# on the module later (a tracer, a test) sees every call.
def _linearize_mu(u, mu, grid):
    return burgers_linearize(u, mu, grid)


def make_burgers_problem(cells: int = 200, half_width: float = 5.0) -> IvpProblem:
    """Package the discretization as a parametric problem with mu = (u_l, u_r)."""
    grid = BurgersGrid(cells, half_width)
    return IvpProblem(
        dim=grid.cells,
        linearize=partial(_linearize_mu, grid=grid),
        initial_value=partial(burgers_initial, grid=grid),
        jacobian_bands=(1, 1),
        notes=(
            f"finite volumes, {grid.cells} cells on "
            f"({-grid.half_width:g}, {grid.half_width:g}), local Lax-Friedrichs "
            "flux, Dirichlet ghost cells, step initial profile at x=0"
        ),
    )
