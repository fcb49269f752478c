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

On a small system most of an iteration's time is per-call overhead, so
instances that share a step size can advance as one stack
(:func:`integrate_many`): one residual, one Jacobian and one linear solve
per iteration serve them all, while each keeps its own iteration count and
its single run's bits.
"""

from __future__ import annotations

import math
import numbers
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
    "integrate_many",
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


def _check_int(name: str, value, minimum: int, optional: bool = False) -> None:
    """Refuse ``value`` unless it is an integer >= ``minimum``, or None when
    ``optional``. A bool or an integral float is not an integer here."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        none = " or None" if optional else ""
        raise ValueError(f"{name} must be an integer >= {minimum}{none}, got {value!r}")


@dataclass(frozen=True)
class NewtonConfig:
    """Absolute residual tolerance (2-norm) and iteration cap."""

    tolerance: float = 1e-14
    max_iterations: int = 100

    def __post_init__(self):
        if not np.isfinite(self.tolerance) or self.tolerance <= 0:
            raise ValueError(f"tolerance must be > 0, got {self.tolerance!r}")
        _check_int("max_iterations", self.max_iterations, 1)


_DEFAULT_NEWTON = NewtonConfig()


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


def _solve_stack(jac, rhs, bands) -> tuple[np.ndarray, dict[int, Exception]]:
    """Solve a stack of systems, ``rhs`` of shape (M, d) with ``jac`` (M, d, d)
    or, for bands, (M, 3, d), each as :func:`_linear_solve` would alone.

    One call serves the stack: a batched dense solve, or one ``dgtsv`` on
    the concatenated (3, M*d) band, where each block's zero corners are its
    couplings to its neighbours. Returns the solutions and, by position,
    the LinAlgError of each singular system (its row left unset).
    """
    try:
        if bands is None:
            # b[..., None]: numpy 1.x and 2.x read a 2-d b differently.
            x = np.linalg.solve(jac, rhs[..., None])[..., 0]
        else:
            band = jac.transpose(1, 0, 2).reshape(3, -1)
            x = _linear_solve(band, rhs.reshape(-1), bands).reshape(rhs.shape)
        if np.isfinite(x).all():
            return x, {}
    except np.linalg.LinAlgError:
        pass
    # A singular system fails the whole call, and in the one band solve a
    # non-finite system spills into its neighbours through 0 * inf: solve
    # each alone.
    x = np.empty_like(rhs)
    failed = {}
    for j in range(len(rhs)):
        try:
            x[j] = _linear_solve(jac[j], rhs[j], bands)
        except np.linalg.LinAlgError as exc:
            failed[j] = exc
    return x, failed


def newton_solve(
    residual: Callable[..., np.ndarray],
    jacobian: Callable[..., np.ndarray],
    u0: np.ndarray,
    cfg: NewtonConfig | None = None,
    bands: tuple[int, int] | None = None,
):
    """Damped-free Newton iteration on a square system, or on a stack of them.

    ``jacobian`` returns a dense matrix, or, when ``bands=(1, 1)``, the
    tridiagonal matrix in LAPACK band storage of shape ``(3, d)``; any other
    ``bands`` raises ValueError. Returns the last iterate and its stats;
    hitting the iteration cap yields ``converged=False`` rather than an
    exception. Singular linear systems raise SingularJacobianError. A
    residual whose 2-norm is not finite raises DivergenceError: besides
    non-finite entries, that includes finite ones whose squares overflow
    (entries beyond about 1e154).

    A stack of M independent systems is ``u0`` of shape (M, d). Then
    ``residual(u, rows)`` and ``jacobian(u, rows)`` get the iterates of the
    systems still iterating, ``u[j]`` belonging to system ``rows[j]``, and
    stack their results on the same leading axis; one linear solve serves
    them all. A system leaves the stack as soon as it converges, reaches
    the cap or fails, so its iterate and outcome are bit for bit those of
    solving it alone. Nothing raises for a stack: it returns the iterates
    (M, d) and, per system, its NewtonStats or the NewtonError that ended it.
    """
    _check_bands(bands)
    cfg = cfg or _DEFAULT_NEWTON
    u = np.array(u0, dtype=float)
    stacked = u.ndim == 2
    if stacked:
        # Each system's last iterate and outcome, written as it leaves; rows
        # are the systems still iterating, which the callbacks also take.
        out, outcomes, rows = u, [None] * len(u), list(range(len(u)))
        residual_of, jacobian_of = residual, jacobian
        residual, jacobian = (lambda v: residual_of(v, rows)), (lambda v: jacobian_of(v, rows))
    g = np.asarray(residual(u), dtype=float)
    # np.linalg.norm computes sqrt(g.g) for a real vector, with the same dot,
    # bit for bit. vdot, unlike dot and @, does not warn when g.g overflows.
    norms = [math.sqrt(np.vdot(r, r)) for r in g] if stacked else [math.sqrt(np.vdot(g, g))]
    initial = norms
    iterations = 0
    tolerance, cap = cfg.tolerance, cfg.max_iterations
    while True:
        # A system leaves once it converges, reaches the cap or diverges.
        if not stacked:
            if not (tolerance < norms[0] < math.inf and iterations < cap):
                outcome = _outcome(iterations, norms[0], tolerance, initial[0])
                if isinstance(outcome, NewtonError):
                    raise outcome
                return u, outcome
        else:
            keep = []
            for j, norm in enumerate(norms):
                if tolerance < norm < math.inf and iterations < cap:
                    keep.append(j)
                else:
                    outcomes[rows[j]] = _outcome(iterations, norm, tolerance, initial[rows[j]])
                    out[rows[j]] = u[j]
            if not keep:
                return out, outcomes
            if len(keep) < len(rows):
                rows, u, g = [rows[j] for j in keep], u[keep], g[keep]
        jac = np.asarray(jacobian(u), dtype=float)
        if not stacked:
            try:
                delta = _linear_solve(jac, -g, bands)
            except np.linalg.LinAlgError as exc:
                raise _singular(iterations, exc) from exc
        else:
            delta, failed = _solve_stack(jac, -g, bands)
            if failed:
                for j, exc in failed.items():
                    outcomes[rows[j]] = _singular(iterations, exc)
                    out[rows[j]] = u[j]
                keep = [j for j in range(len(rows)) if j not in failed]
                if not keep:
                    return out, outcomes
                rows, u, delta = [rows[j] for j in keep], u[keep], delta[keep]
        u = u + delta
        g = np.asarray(residual(u), dtype=float)
        iterations += 1
        norms = [math.sqrt(np.vdot(r, r)) for r in g] if stacked else [math.sqrt(np.vdot(g, g))]


def _outcome(iterations: int, norm: float, tolerance: float, initial: float):
    """The outcome of a system that stops iterating at residual ``norm``."""
    if math.isfinite(norm):
        return NewtonStats(iterations, norm, norm <= tolerance, initial)
    return DivergenceError(
        "residual norm of the starting guess is not finite" if iterations == 0
        else f"non-finite residual norm at iteration {iterations}"
    )


def _singular(iterations: int, exc: Exception) -> SingularJacobianError:
    return SingularJacobianError(f"linear solve failed at iteration {iterations}: {exc}")


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

    To integrate several parameters as one stack (:func:`integrate_many`),
    ``rhs`` and ``jacobian`` must also take a leading instance axis: states
    (M, dim) with parameters (M, p) give (M, dim), and (M, dim, dim) or
    (M, 3, dim), each row bit for bit the 1-d call on that state and
    parameter. One parameter at a time needs only the 1-d form.
    """

    dim: int
    rhs: Callable[[np.ndarray, np.ndarray], np.ndarray]
    initial_value: Callable[[np.ndarray], np.ndarray]
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    notes: str = ""
    jacobian_bands: tuple[int, int] | None = None

    def __post_init__(self):
        _check_int("dim", self.dim, 1)
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

    def guess(problem, u, mu, dt):
        x = np.empty(len(u) + 1)
        x[0] = dt
        x[1:] = u
        return model(x)

    return Initializer(name, guess)


def _not_converged(stats: NewtonStats) -> StepError:
    return StepError(
        f"step did not converge within {stats.iterations} iterations "
        f"(residual {stats.final_residual_norm:.3e})",
        stats,
    )


def ie_step(
    problem: IvpProblem,
    u_prev: np.ndarray,
    mu,
    dt: float,
    cfg: NewtonConfig | None = None,
    initializer: Initializer = PREVIOUS_VALUE,
):
    """One implicit Euler step; raises StepError if Newton does not converge.

    A stack of states ``u_prev`` (M, d), with ``mu`` holding one parameter
    row per state, takes its M steps as one stacked Newton solve (see
    :func:`newton_solve`); the initializer still sees one state at a time.
    Nothing raises for a stack: per state, the second result holds its
    NewtonStats or the StepError or NewtonError that ended it.
    """
    if not np.isfinite(dt) or dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt!r}")
    u_prev = np.asarray(u_prev, dtype=float)
    stacked = u_prev.ndim == 2
    bands = problem.jacobian_bands
    # The diagonal of I - dt*J: its row in band storage, or the dense one,
    # in every block of a stack.
    diagonal = (1,) if bands is not None else np.diag_indices(problem.dim)
    if stacked:
        mu = np.asarray(mu, dtype=float)
        diagonal = (slice(None),) + diagonal
        u0 = np.array([initializer(problem, v, m, dt) for v, m in zip(u_prev, mu)])
    else:
        u0 = initializer(problem, u_prev, mu, dt)

    def residual(u, u_from=u_prev, mu=mu):
        g = u - u_from
        g -= dt * problem.rhs(u, mu)  # in place: (u - u_prev) - dt * f, rounded alike
        return g

    def jacobian(u, mu=mu):
        a = -dt * problem.jacobian(u, mu)
        a[diagonal] += 1.0
        return a

    if not stacked:
        u, stats = newton_solve(residual, jacobian, u0, cfg, bands=bands)
        if not stats.converged:
            raise _not_converged(stats)
        return u, stats
    # newton_solve passes the rows of the stack still iterating.
    u, stats = newton_solve(lambda u, rows: residual(u, u_prev[rows], mu[rows]),
                            lambda u, rows: jacobian(u, mu[rows]), u0, cfg, bands=bands)
    return u, [_not_converged(s) if isinstance(s, NewtonStats) and not s.converged else s
               for s in stats]


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


def integrate_many(
    problem: IvpProblem,
    mus,
    dt: float,
    T: float,
    cfg: NewtonConfig | None = None,
    initializer: Initializer = PREVIOUS_VALUE,
) -> list[Trajectory]:
    """Integrate each parameter of ``mus`` from 0 to T with the one fixed
    step dt (T must be a multiple of dt), as one stack.

    Each step of the instances still running is one stacked
    :func:`ie_step`, so an instance's trajectory is bit for bit the one it
    has alone; a single instance runs unstacked. Several instances need a
    problem whose ``rhs`` and ``jacobian`` take a leading instance axis
    (see :class:`IvpProblem`). Never raises on step failure: the instance
    leaves the stack, and its partial trajectory is returned with
    ``completed=False`` and the error message recorded. ``wall_time_s`` is
    the stack's.
    """
    n_steps = _step_count(T, dt)
    mus = [np.atleast_1d(np.asarray(mu, dtype=float)) for mu in mus]
    states = [np.empty((n_steps + 1, problem.dim)) for _ in mus]
    for m, mu in enumerate(mus):
        u = np.asarray(problem.initial_value(mu), dtype=float)
        if u.shape != (problem.dim,):
            raise ValueError(
                f"initial value has shape {u.shape}, expected ({problem.dim},)"
            )
        states[m][0] = u
    stats: list[list[NewtonStats]] = [[] for _ in mus]
    errors: list[str | None] = [None] * len(mus)
    rows = list(range(len(mus)))  # the instances still running
    mu_rows = np.array(mus, dtype=float)
    single = len(mus) == 1  # one instance runs unstacked, on 1-d arrays
    start = time.perf_counter()
    for i in range(n_steps):
        if single:  # a lone instance's failed step ends the run at once
            try:
                states[0][i + 1], outcome = ie_step(problem, states[0][i], mus[0], dt, cfg,
                                                    initializer)
            except (StepError, NewtonError) as exc:
                errors[0] = f"step {i + 1}: {exc}"
                break
            stats[0].append(outcome)
            continue
        if not rows:
            break
        u, outcomes = ie_step(problem, np.array([states[m][i] for m in rows]), mu_rows[rows],
                              dt, cfg, initializer)
        for m, u_m, outcome in zip(rows, u, outcomes):
            if isinstance(outcome, NewtonStats):
                states[m][i + 1] = u_m
                stats[m].append(outcome)
            else:
                errors[m] = f"step {i + 1}: {outcome}"
                rows = [r for r in rows if r != m]  # the zip keeps iterating the old list
    wall = time.perf_counter() - start
    return [
        Trajectory(
            mu=mu,
            dt=float(dt),
            times=dt * np.arange(len(stats[m]) + 1),
            states=states[m][: len(stats[m]) + 1],
            newton_stats=stats[m],
            initializer=initializer.name,
            completed=errors[m] is None,
            error=errors[m],
            wall_time_s=wall,
        )
        for m, mu in enumerate(mus)
    ]


def integrate(
    problem: IvpProblem,
    mu,
    dt: float,
    T: float,
    cfg: NewtonConfig | None = None,
    initializer: Initializer = PREVIOUS_VALUE,
) -> Trajectory:
    """Integrate from 0 to T with fixed step dt (T must be a multiple of dt):
    :func:`integrate_many` of the one parameter ``mu``.

    Never raises on step failure: the partial trajectory is returned with
    ``completed=False`` and the error message recorded.
    """
    (trajectory,) = integrate_many(problem, [mu], dt, T, cfg, initializer)
    return trajectory
