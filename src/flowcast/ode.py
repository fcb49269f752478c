"""Implicit Euler time stepping with Newton's method and pluggable initializers.

Each step solves the nonlinear system

    g(u) = (u - u_prev) - dt * f(u, mu) = 0

with a Newton iteration. Every problem brings its Jacobian, dense or
tridiagonal. A tridiagonal one, in (1, 1) band storage, is solved by a direct
call of LAPACK ``dgtsv`` (the routine ``scipy.linalg.solve_banded`` runs for
it, minus that function's validation layer); a dense one by a dense LU. The
grouping of g matters: evaluating the difference of states before
subtracting the scaled right-hand side keeps the attainable residual plateau
well below tight tolerances for states of moderate magnitude.

The cost of a step is dominated by the Newton iteration count, which in turn
depends on the quality of the starting guess. Initializers encapsulate that
choice; besides the classical one (the previous state) a trained kernel
surrogate of the time-evolution map can be plugged in.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

__all__ = [
    "NewtonConfig",
    "NewtonStats",
    "NewtonError",
    "SingularJacobianError",
    "DivergenceError",
    "StepError",
    "newton_solve",
    "finite_difference_jacobian",
    "IvpProblem",
    "Initializer",
    "PREVIOUS_VALUE",
    "surrogate_initializer",
    "ie_step",
    "integrate",
    "Trajectory",
]


class NewtonError(Exception):
    """Base class for failures inside the Newton iteration."""


class SingularJacobianError(NewtonError):
    """The linearized system could not be solved."""


class DivergenceError(NewtonError):
    """The iteration produced a residual whose norm is not finite."""


class StepError(Exception):
    """An implicit step did not converge within the iteration budget."""

    def __init__(self, message: str, stats: "NewtonStats | None" = None):
        super().__init__(message)
        self.stats = stats


@dataclass(frozen=True)
class NewtonConfig:
    """Absolute residual tolerance (2-norm) and iteration cap."""

    tolerance: float = 1e-14
    max_iterations: int = 100

    def __post_init__(self):
        if not np.isfinite(self.tolerance) or self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance!r}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations!r}")


@dataclass(frozen=True)
class NewtonStats:
    """Outcome of one Newton solve.

    ``iterations`` counts linear solves; a guess that already satisfies the
    tolerance converges with zero. ``initializer_residual_norm`` is the
    residual norm of the starting guess, before any correction.
    """

    iterations: int
    final_residual_norm: float
    converged: bool
    initializer_residual_norm: float


def _check_bands(bands) -> None:
    if not (bands is None or (isinstance(bands, tuple) and bands == (1, 1))):
        raise ValueError(f"jacobian bands must be None (dense) or (1, 1), got {bands!r}")


def _linear_solve(jac: np.ndarray, rhs: np.ndarray, bands: tuple[int, int] | None) -> np.ndarray:
    """Solve ``jac @ x = rhs``; ``jac`` is dense, or (1, 1) LAPACK band
    storage when ``bands`` is given. Raises LinAlgError when singular."""
    if bands is None:
        return np.linalg.solve(jac, rhs)
    # dgtsv refuses n = 1 (empty off-diagonals): divide, with the pivot checked.
    if jac.shape == (3, 1):
        pivot = jac[1, 0]
        if pivot == 0 or not np.isfinite(pivot):
            raise np.linalg.LinAlgError("singular matrix")
        return rhs / pivot
    # Unchecked, as the dense solve: non-finite entries give a non-finite
    # step, which newton_solve reports as DivergenceError. This is
    # solve_banded's own gtsv call minus its validation layer; the zero
    # overwrite flags leave the caller's band and right-hand side intact.
    _, _, _, x, info = dgtsv(jac[2, :-1], jac[1], jac[0, 1:], rhs, 0, 0, 0, 0)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def newton_solve(
    residual: Callable[[np.ndarray], np.ndarray],
    jacobian: Callable[[np.ndarray], np.ndarray],
    u0: np.ndarray,
    cfg: NewtonConfig | None = None,
    bands: tuple[int, int] | None = None,
) -> tuple[np.ndarray, NewtonStats]:
    """Damped-free Newton iteration on a square system.

    ``jacobian`` returns a dense matrix, or, when ``bands=(1, 1)``, the
    tridiagonal matrix in LAPACK band storage of shape ``(3, d)``; any other
    ``bands`` raises ValueError. Returns the last iterate and its stats;
    hitting the iteration cap yields ``converged=False`` rather than an
    exception. Singular linear systems raise SingularJacobianError. A
    residual whose 2-norm is not finite raises DivergenceError: besides
    non-finite entries, that includes finite ones whose squares overflow
    (entries beyond about 1e154).
    """
    _check_bands(bands)
    cfg = cfg or NewtonConfig()
    u = np.array(u0, dtype=float)
    g = np.asarray(residual(u), dtype=float)
    # np.linalg.norm computes sqrt(g.g) for a real vector, with the same dot,
    # bit for bit. vdot, unlike dot and @, does not warn when g.g overflows.
    norm = math.sqrt(np.vdot(g, g))
    if not math.isfinite(norm):
        raise DivergenceError("residual norm of the starting guess is not finite")
    initial = norm
    iterations = 0
    while norm > cfg.tolerance and iterations < cfg.max_iterations:
        jac = np.asarray(jacobian(u), dtype=float)
        try:
            delta = _linear_solve(jac, -g, bands)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(
                f"linear solve failed at iteration {iterations}: {exc}"
            ) from exc
        u = u + delta
        g = np.asarray(residual(u), dtype=float)
        iterations += 1
        norm = math.sqrt(np.vdot(g, g))
        if not math.isfinite(norm):
            raise DivergenceError(f"non-finite residual norm at iteration {iterations}")
    return u, NewtonStats(
        iterations=iterations,
        final_residual_norm=norm,
        converged=norm <= cfg.tolerance,
        initializer_residual_norm=initial,
    )


def finite_difference_jacobian(
    fn: Callable[[np.ndarray], np.ndarray], u: np.ndarray, scale: float = 1e-6
) -> np.ndarray:
    """Central-difference Jacobian with per-component step scale*max(1, |u_j|)."""
    u = np.asarray(u, dtype=float)
    cols = []
    for j in range(u.size):
        h = scale * max(1.0, abs(u[j]))
        up, um = u.copy(), u.copy()
        up[j] += h
        um[j] -= h
        cols.append((np.asarray(fn(up)) - np.asarray(fn(um))) / (2.0 * h))
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class IvpProblem:
    """Parametric initial value problem u' = rhs(u, mu), u(0) = initial_value(mu).

    ``jacobian(u, mu)``, the derivative of ``rhs`` in u, is required. It
    returns the dense ``(dim, dim)`` matrix, or, when ``jacobian_bands=(1, 1)``
    declares it tridiagonal, LAPACK band storage of shape ``(3, dim)`` with
    entry (i, j) at ``[1 + i - j, j]``; other bands raise ValueError. A
    problem without an analytic derivative can wrap
    :func:`finite_difference_jacobian`.
    """

    dim: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    initial_value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    notes: str = ""
    jacobian_bands: tuple[int, int] | None = None

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim!r}")
        if not callable(self.jacobian):
            raise ValueError(f"jacobian must be callable, got {self.jacobian!r}")
        _check_bands(self.jacobian_bands)


class Initializer:
    """Named strategy mapping (problem, u_prev, mu, dt) to a Newton starting guess."""

    def __init__(self, name: str, fn: Callable):
        self.name = name
        self._fn = fn

    def __call__(self, problem: IvpProblem, u_prev: np.ndarray, mu, dt: float) -> np.ndarray:
        guess = np.asarray(self._fn(problem, u_prev, mu, dt), dtype=float)
        if guess.shape != np.shape(u_prev):
            raise ValueError(
                f"initializer {self.name!r} returned shape {guess.shape}, "
                f"expected {np.shape(u_prev)}"
            )
        return guess

    def __repr__(self):
        return f"Initializer({self.name!r})"


PREVIOUS_VALUE = Initializer("previous", lambda p, u, mu, dt: u)


def surrogate_initializer(model: Callable[[np.ndarray], np.ndarray], name: str = "surrogate") -> Initializer:
    """Wrap a map (dt, u_prev) -> predicted next state as an initializer.

    ``model`` must accept a single 1-d input: the step size prepended to the
    current state.
    """
    return Initializer(name, lambda p, u, mu, dt: model(np.concatenate(([dt], u))))


def ie_step(
    problem: IvpProblem,
    u_prev: np.ndarray,
    mu,
    dt: float,
    cfg: NewtonConfig | None = None,
    initializer: Initializer = PREVIOUS_VALUE,
) -> tuple[np.ndarray, NewtonStats]:
    """One implicit Euler step; raises StepError if Newton does not converge."""
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    u_prev = np.asarray(u_prev, dtype=float)
    bands = problem.jacobian_bands
    # The diagonal of I - dt*J: its row in band storage, or the dense one.
    diagonal = 1 if bands is not None else np.diag_indices(problem.dim)

    def residual(u):
        return (u - u_prev) - dt * problem.rhs(u, mu)

    def jacobian(u):
        a = -dt * problem.jacobian(u, mu)
        a[diagonal] += 1.0
        return a

    u0 = initializer(problem, u_prev, mu, dt)
    u, stats = newton_solve(residual, jacobian, u0, cfg, bands=bands)
    if not stats.converged:
        raise StepError(
            f"step did not converge within {stats.iterations} iterations "
            f"(residual {stats.final_residual_norm:.3e})",
            stats,
        )
    return u, stats


@dataclass
class Trajectory:
    """States and per-step Newton statistics of one integration run.

    ``states`` has one row per time point including the initial value. On a
    failed step the arrays are truncated at the last computed state,
    ``completed`` is False and ``error`` holds the failure message.
    """

    mu: np.ndarray
    dt: float
    times: np.ndarray
    states: np.ndarray
    newton_stats: list[NewtonStats] = field(repr=False)
    initializer: str = "previous"
    completed: bool = True
    error: str | None = None
    wall_time_s: float = 0.0

    @property
    def n_steps(self) -> int:
        return len(self.newton_stats)

    @property
    def total_iterations(self) -> int:
        return sum(s.iterations for s in self.newton_stats)

    @property
    def mean_iterations(self) -> float:
        if not self.newton_stats:
            return float("nan")
        return self.total_iterations / len(self.newton_stats)

    @property
    def mean_initializer_residual(self) -> float:
        """Mean residual norm of the Newton starting guesses."""
        if not self.newton_stats:
            return float("nan")
        return float(np.mean([s.initializer_residual_norm for s in self.newton_stats]))

    @property
    def final_state(self) -> np.ndarray:
        """Last state, copied so that keeping it does not keep ``states``."""
        return self.states[-1].copy()


def _nearest_step_count(T: float, dt: float) -> tuple[int, bool]:
    """Whole number of dt steps nearest to T (at least 1), and whether it
    spans T exactly, i.e. T/dt is an integer up to relative round-off.

    This is the one horizon rule of the package. Raises ValueError unless
    dt and T are finite and > 0.
    """
    if not np.isfinite(T) or T <= 0:
        raise ValueError(f"T must be > 0, got {T!r}")
    if not np.isfinite(dt) or dt <= 0 or not np.isfinite(T / dt):
        raise ValueError(f"dt must be > 0, got {dt!r}")
    ratio = T / dt
    n = int(round(ratio))
    return max(1, n), n >= 1 and abs(ratio - n) <= 1e-9 * max(1.0, ratio)


def _step_count(T: float, dt: float) -> int:
    """T as an integer number of steps; rejects non-divisible horizons."""
    n, exact = _nearest_step_count(T, dt)
    if not exact:
        raise ValueError(f"horizon T={T!r} is not an integer multiple of dt={dt!r}")
    return n


def integrate(
    problem: IvpProblem,
    mu,
    dt: float,
    T: float,
    cfg: NewtonConfig | None = None,
    initializer: Initializer = PREVIOUS_VALUE,
) -> Trajectory:
    """Integrate from 0 to T with fixed step dt (T must be a multiple of dt).

    Never raises on step failure: the partial trajectory is returned with
    ``completed=False`` and the error message recorded.
    """
    n_steps = _step_count(T, dt)
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    u = np.asarray(problem.initial_value(mu), dtype=float)
    if u.shape != (problem.dim,):
        raise ValueError(
            f"initial value has shape {u.shape}, expected ({problem.dim},)"
        )
    states = np.empty((n_steps + 1, problem.dim))
    states[0] = u
    stats_list: list[NewtonStats] = []
    completed = True
    error = None
    start = time.perf_counter()
    for i in range(n_steps):
        try:
            u, stats = ie_step(problem, u, mu, dt, cfg, initializer)
        except (StepError, NewtonError) as exc:
            completed = False
            error = f"step {i + 1}: {exc}"
            states = states[: i + 1]
            break
        states[i + 1] = u
        stats_list.append(stats)
    wall = time.perf_counter() - start
    times = dt * np.arange(states.shape[0])
    return Trajectory(
        mu=mu,
        dt=float(dt),
        times=times,
        states=states,
        newton_stats=stats_list,
        initializer=initializer.name,
        completed=completed,
        error=error,
        wall_time_s=wall,
    )
