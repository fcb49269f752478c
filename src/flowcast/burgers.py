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

from dataclasses import dataclass
from functools import partial

import numpy as np

from .ode import IvpProblem, _check_int, _check_params, _check_real

__all__ = [
    "BurgersGrid",
    "burgers_initial",
    "burgers_rhs",
    "burgers_jacobian",
    "make_burgers_problem",
]


def _boundary_states(mu) -> list[float]:
    # The shape an integration passes on every rhs and Jacobian call.
    if type(mu) is np.ndarray and mu.dtype == np.float64 and mu.shape == (2,):
        return mu.tolist()
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


def _flux(w: np.ndarray) -> np.ndarray:
    """F(a, b) at the interfaces (a, b) = (w[:-1], w[1:]) of a ghosted state."""
    abs_w, sq = np.abs(w), w * w
    lam = np.maximum(abs_w[:-1], abs_w[1:])
    return 0.25 * (sq[:-1] + sq[1:]) - 0.5 * lam * (w[1:] - w[:-1])


def _flux_partials(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """dF/da and dF/db at the interfaces of :func:`_flux`; at |a| == |b| the
    b-branch of the max is taken."""
    abs_w, sign, half_w = np.abs(w), np.sign(w), 0.5 * w
    a_wins = abs_w[:-1] > abs_w[1:]
    half_lam = 0.5 * np.maximum(abs_w[:-1], abs_w[1:])
    # The sign is 0 or +-1, so sign * (0.5 * jump) rounds as (0.5 * sign) * jump.
    half_jump = 0.5 * (w[1:] - w[:-1])
    dfa = half_w[:-1] - np.where(a_wins, sign[:-1], 0.0) * half_jump + half_lam
    dfb = half_w[1:] - np.where(a_wins, 0.0, sign[1:]) * half_jump - half_lam
    return dfa, dfb


def _ghosted(u, mu, grid: BurgersGrid) -> np.ndarray:
    """The state with one ghost cell per side holding the boundary state.

    A stack of states (M, cells), with one row (u_l, u_r) of ``mu`` per
    state, gives the ghosted states as columns, shape (cells + 2, M), so
    that the flux code slices cells on the leading axis in both cases.
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
    if type(mu) is not np.ndarray or mu.dtype != np.float64:  # as integrate_many passes it
        mu = np.array([_check_params(row) for row in mu])
    if mu.shape != (len(u), 2):
        raise ValueError(f"a stack of {len(u)} states needs mu of shape ({len(u)}, 2), "
                         f"got {mu.shape}")
    w = np.empty((grid.cells + 2, len(u)))
    w[0], w[-1] = mu.T
    w[1:-1] = u.T
    return w


def burgers_rhs(u: np.ndarray, mu, grid: BurgersGrid) -> np.ndarray:
    """Semi-discrete right-hand side du_c/dt = -(F_{c+1/2} - F_{c-1/2})/h
    for the boundary states mu = (u_l, u_r). A stack of states (M, cells)
    with mu of shape (M, 2) gives shape (M, cells), each row bit for bit
    that state's own call."""
    f = _flux(_ghosted(u, mu, grid))
    return ((f[1:] - f[:-1]) / -grid.h).T  # -x / h, down to the sign of a zero


def burgers_jacobian(u: np.ndarray, mu, grid: BurgersGrid) -> np.ndarray:
    """Exact tridiagonal derivative of :func:`burgers_rhs` in LAPACK band
    storage, shape (3, d): row 0 holds the super-diagonal in columns 1..d-1,
    row 1 the diagonal and row 2 the sub-diagonal in columns 0..d-2; the two
    unused corners are zero. A stack of states gives shape (M, 3, d), each
    block bit for bit that state's own call."""
    dfa, dfb = _flux_partials(_ghosted(u, mu, grid))
    h = grid.h
    ab = np.zeros((3, grid.cells) + dfa.shape[1:])
    np.divide(dfb[1:-1], -h, out=ab[0, 1:])  # -(x / h), as -x / h rounds
    np.divide(dfb[:-1] - dfa[1:], h, out=ab[1])
    np.divide(dfa[1:-1], h, out=ab[2, :-1])
    return ab if ab.ndim == 2 else ab.transpose(2, 0, 1)


def burgers_initial(mu, grid: BurgersGrid) -> np.ndarray:
    """Step profile: u_l on cells with center left of x = 0, u_r elsewhere."""
    u_l, u_r = _boundary_states(mu)
    return np.where(grid.centers < 0, u_l, u_r)


# The problem calls burgers_rhs and burgers_jacobian through these module
# globals at every call, never a reference bound when it is built, so that a
# wrapper installed on the module later (a tracer, a test) sees every call.
def _rhs_mu(u, mu, grid):
    return burgers_rhs(u, mu, grid)


def _jacobian_mu(u, mu, grid):
    return burgers_jacobian(u, mu, grid)


def make_burgers_problem(cells: int = 200, half_width: float = 5.0) -> IvpProblem:
    """Package the discretization as a parametric problem with mu = (u_l, u_r)."""
    grid = BurgersGrid(cells, half_width)
    return IvpProblem(
        dim=grid.cells,
        rhs=partial(_rhs_mu, grid=grid),
        initial_value=partial(burgers_initial, grid=grid),
        jacobian=partial(_jacobian_mu, grid=grid),
        jacobian_bands=(1, 1),
        notes=(
            f"finite volumes, {grid.cells} cells on "
            f"({-grid.half_width:g}, {grid.half_width:g}), local Lax-Friedrichs "
            "flux, Dirichlet ghost cells, step initial profile at x=0"
        ),
    )
