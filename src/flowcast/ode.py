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
surrogate of the time-evolution map can be plugged in. The surrogate's guess
is corrected by its own errors at the run's previous steps, each known
exactly once its step has converged, extrapolated at the order that would
have guessed the last step best: each run's memory lives in the guess
function :meth:`Initializer.start` makes for it, never in the initializer.

:func:`newton_solve` and :func:`ie_step` solve one system. Stacks are
:func:`integrate_many`'s: instances of one step size advance together, one
linearization, Jacobian and linear solve per iteration serving them all, and
each keeps its own iteration count and its single run's bits. A lone run
from the previous value hands each step's last linearization to the next
step, whose guess is the state that linearization was made at.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dgtsv

__all__ = [
    "NewtonConfig",
    "NewtonStats",
    "newton_solve",
    "IvpProblem",
    "Initializer",
    "PREVIOUS_VALUE",
    "surrogate_initializer",
    "ie_step",
    "integrate",
    "integrate_many",
    "Trajectory",
]


def _check_int(name: str, value, minimum: int, optional: bool = False) -> int | None:
    """Refuse ``value`` unless it is an integer >= ``minimum``, or None when
    ``optional``; return it as a plain int (or None). A bool or an integral
    float is not an integer here."""
    if optional and value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < minimum:
        none = " or None" if optional else ""
        raise ValueError(f"{name} must be an integer >= {minimum}{none}, got {value!r}")
    return int(value)


def _as_real(value) -> float | None:
    """``value`` as a float if it is a finite real number, else None. A bool
    or a string is not real here, nor an integer beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        value = float(value)
    except OverflowError:
        return None
    return value if math.isfinite(value) else None


def _check_real(name: str, value, zero_ok: bool = False) -> float:
    """Refuse ``value`` unless it is a finite real number > 0, or >= 0 when
    ``zero_ok``; return it as a float."""
    real = _as_real(value)
    if real is None or not (real > 0 or (zero_ok and real == 0)):
        floor = ">= 0" if zero_ok else "> 0"
        raise ValueError(f"{name} must be a real number {floor}, got {value!r}")
    return real


def _check_params(mu) -> tuple[float, ...]:
    """Refuse ``mu`` unless it is a finite real number or a 1-d sequence of
    them, as :func:`_as_real` reads one; return it as a float tuple. The
    sequence may be empty: a problem without parameters takes ``[]``."""
    items = mu.tolist() if isinstance(mu, np.ndarray) else mu
    values = [_as_real(v) for v in (items if isinstance(items, (tuple, list)) else [items])]
    if None in values:
        raise ValueError(f"mu must be a finite real number or a 1-d sequence of them, "
                         f"got {mu!r}")
    return tuple(values)


@dataclass(frozen=True)
class NewtonConfig:
    """Absolute residual tolerance (2-norm) and iteration cap."""

    tolerance: float = 1e-14
    max_iterations: int = 100

    def __post_init__(self):
        object.__setattr__(self, "tolerance", _check_real("tolerance", self.tolerance))
        object.__setattr__(self, "max_iterations",
                           _check_int("max_iterations", self.max_iterations, 1))


_DEFAULT_NEWTON = NewtonConfig()


@dataclass(frozen=True)
class NewtonStats:
    """Outcome of one Newton solve.

    ``iterations`` counts linear solves; a guess that already satisfies the
    tolerance converges with zero. ``status`` says how the solve stopped:
    "converged" (residual norm at or below the tolerance), "cap" (the
    iteration cap reached above it), "singular" (the linear solve of the
    next iteration failed) or "non-finite" (a residual norm that is not
    finite). ``final_residual_norm`` is the residual norm of the last
    iterate, ``initializer_residual_norm`` that of the starting guess,
    before any correction.
    """

    iterations: int
    final_residual_norm: float
    status: str
    initializer_residual_norm: float

    @property
    def converged(self) -> bool:
        return self.status == "converged"


def _failure(stats: NewtonStats) -> str:
    """What went wrong in a solve that did not converge, as a run's error."""
    if stats.status == "singular":
        return f"linear solve failed at iteration {stats.iterations}: singular matrix"
    if stats.status == "non-finite":
        return ("residual norm of the starting guess is not finite" if stats.iterations == 0
                else f"non-finite residual norm at iteration {stats.iterations}")
    return (f"step did not converge within {stats.iterations} iterations "
            f"(residual {stats.final_residual_norm:.3e})")


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
    # step, which newton_solve reports as status "non-finite". This is
    # solve_banded's own gtsv call minus its validation layer; the zero
    # overwrite flags leave the caller's band and right-hand side intact.
    _, _, _, x, info = dgtsv(jac[2, :-1], jac[1], jac[0, 1:], rhs, 0, 0, 0, 0)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    return x


def _solve_stack(jac, rhs, bands) -> np.ndarray:
    """Solve a stack of systems, ``rhs`` of shape (M, d) with ``jac`` (M, d, d)
    or, for bands, (M, 3, d), each as :func:`_linear_solve` would alone.

    A band stack is one ``dgtsv`` on the concatenated (3, M*d) band, where
    each block's zero corners are its couplings to its neighbours. Dense
    systems are solved one at a time. Raises LinAlgError when a system is
    singular, and for a band stack when the solution is not finite: a
    non-finite block spills into its neighbours through 0 * inf.
    """
    if bands is None:
        return np.array([_linear_solve(a, b, None) for a, b in zip(jac, rhs)])
    band = jac.transpose(1, 0, 2).reshape(3, -1)
    x = _linear_solve(band, rhs.reshape(-1), bands).reshape(rhs.shape)
    if not np.isfinite(x).all():
        raise np.linalg.LinAlgError("non-finite solution of a band stack")
    return x


def _check_one_system(name: str, u: np.ndarray) -> None:
    if u.ndim != 1:
        raise ValueError(f"{name} must be 1-d, got shape {u.shape}: stacks are integrate_many's")


def newton_solve(
    system: Callable[[np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]],
    u0: np.ndarray,
    cfg: NewtonConfig | None = None,
    bands: tuple[int, int] | None = None,
) -> tuple[np.ndarray, NewtonStats]:
    """Undamped Newton iteration on a square system.

    ``system(u)`` returns the residual at u and a function of no arguments
    that returns the residual's Jacobian at that u, which is called only at
    the iterates that go on. ``u0`` is 1-d. The Jacobian is a dense matrix,
    or, when ``bands=(1, 1)``, the tridiagonal matrix in LAPACK band storage
    of shape ``(3, d)``; any other ``bands`` raises ValueError. Returns the
    last iterate and its stats for every numerical outcome, the way the solve
    stopped in ``stats.status``: "cap" at the iteration cap, "singular" when
    a linear system cannot be solved, "non-finite" when a residual's 2-norm
    is not finite, which besides non-finite entries includes finite ones
    whose squares overflow (entries beyond about 1e154).
    """
    _check_bands(bands)
    cfg = cfg or _DEFAULT_NEWTON
    u = np.array(u0, dtype=float)
    _check_one_system("u0", u)
    g, jacobian = system(u)
    g = np.asarray(g, dtype=float)
    # np.linalg.norm computes sqrt(g.g) for a real vector, with the same dot,
    # bit for bit. vdot, unlike dot and @, does not warn when g.g overflows.
    initial = norm = math.sqrt(np.vdot(g, g))
    iterations = 0
    while (status := _status(iterations, norm, cfg)) is None:
        try:
            # Solving for g and subtracting the step rounds as solving for -g
            # and adding it: negation commutes with each rounded operation of
            # the solve, up to the sign of an exact zero.
            delta = _linear_solve(np.asarray(jacobian(), dtype=float), g, bands)
        except np.linalg.LinAlgError:
            status = "singular"
            break
        u = u - delta
        g, jacobian = system(u)
        g = np.asarray(g, dtype=float)
        iterations += 1
        norm = math.sqrt(np.vdot(g, g))
    return u, NewtonStats(iterations, norm, status, initial)


def _status(iterations: int, norm: float, cfg: NewtonConfig) -> str | None:
    """None while a system at residual ``norm`` iterates on; then how it stopped."""
    if cfg.tolerance < norm < math.inf and iterations < cfg.max_iterations:
        return None
    if not math.isfinite(norm):
        return "non-finite"
    return "converged" if norm <= cfg.tolerance else "cap"


@dataclass(frozen=True)
class IvpProblem:
    """Parametric initial value problem u' = f(u, mu), u(0) = initial_value(mu).

    ``linearize(u, mu)`` returns ``(f, jacobian)``: the right-hand side at u,
    and a function of no arguments that returns its derivative in u at that
    same u, so that an evaluation's intermediates can serve both and the
    Jacobian is built only where Newton needs it. The derivative is the dense
    ``(dim, dim)`` matrix, or, when ``jacobian_bands=(1, 1)`` declares it
    tridiagonal, LAPACK band storage of shape ``(3, dim)`` with entry (i, j)
    at ``[1 + i - j, j]``; other bands raise ValueError. There is no
    finite-difference fallback: every problem brings its own derivative.

    To integrate several parameters as one stack (:func:`integrate_many`),
    ``linearize`` must also take a leading instance axis: states (M, dim)
    with parameters (M, p) give f of shape (M, dim) and a Jacobian of shape
    (M, dim, dim) or (M, 3, dim), each row bit for bit the 1-d call on that
    state and parameter. One parameter at a time needs only the 1-d form.
    """

    dim: int
    linearize: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, Callable[[], np.ndarray]]]
    initial_value: Callable[[np.ndarray], np.ndarray]
    notes: str = ""
    jacobian_bands: tuple[int, int] | None = None

    def __post_init__(self):
        object.__setattr__(self, "dim", _check_int("dim", self.dim, 1))
        if not callable(self.linearize):
            raise ValueError(f"linearize must be callable, got {self.linearize!r}")
        _check_bands(self.jacobian_bands)


class Initializer:
    """Named strategy mapping (problem, u_prev, mu, dt) to a Newton starting guess.

    A strategy that learns from the earlier steps of a run keeps that memory
    in the guess function :meth:`start` makes for each run, never in the
    initializer, which runs share. Calling the initializer itself guesses as
    the first step of a run does.
    """

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

    def start(self) -> Callable:
        """The guess function of one run, to be called at its steps in
        order, each with the state the step before converged to. A strategy
        without memory is its own guess function."""
        return self

    def __repr__(self):
        return f"Initializer({self.name!r})"


PREVIOUS_VALUE = Initializer("previous", lambda p, u, mu, dt: u)


class _ErrorFeedback(Initializer):
    """A predictor whose guess at each step after a run's first is corrected
    by its errors at the steps before, extrapolated at the order that would
    have guessed the step just solved best."""

    def start(self) -> Callable:
        previous = None  # p_n: the raw prediction made at the run's last step
        history = []  # e_{n-1} and its backward differences of orders 1 and 2, as far as they go

        def guess(problem, u, mu, dt):
            nonlocal previous, history
            raw = self(problem, u, mu, dt)
            if previous is None:
                previous = raw
                return raw
            diffs = [u - previous]  # e_n, then its backward differences
            for older in history:
                diffs.append(diffs[-1] - older)
            # Order k adds diffs[:k]; at the step just solved it erred by diffs[k].
            order = min(range(1, len(diffs)), key=lambda k: np.vdot(diffs[k], diffs[k]), default=1)
            corrected = raw + diffs[0]
            for d in diffs[1:order]:
                corrected += d
            previous, history = raw, diffs[:3]
            return corrected

        return guess


def surrogate_initializer(model: Callable[[np.ndarray], np.ndarray]) -> Initializer:
    """Wrap a map (dt, u_prev) -> predicted next state as initializer "surrogate".

    ``model`` must accept a single 1-d input: the step size prepended to the
    current state. Within a run, step n + 1 starts Newton from
    ``s(dt, u_n) + e_n + ... + D^(k-1) e_n``. Here ``e_n = u_n - p_n`` is the
    surrogate's error at step n, ``p_n = s(dt, u_{n-1})`` the raw prediction
    made there and ``u_n`` the state Newton converged to; ``D^j e_n`` is its
    j-th backward difference. That guess, made at step n, would have erred
    by ``D^k e_n``, so the order k in {1, 2, 3} with the smallest
    ``||D^k e_n||_2`` is taken, the lower on a tie, as far as the run's
    history goes: its second and third steps take order 1,
    ``s(dt, u_n) + e_n``. That costs a few vector operations, no further
    prediction or residual.
    The first step of a run, and a call of the initializer itself, start
    from the raw prediction.
    """

    def guess(problem, u, mu, dt):
        x = np.empty(len(u) + 1)
        x[0] = dt
        x[1:] = u
        return model(x)

    return _ErrorFeedback("surrogate", guess)


def _ie_system(problem: IvpProblem, u_prev: np.ndarray, mu, dt: float, carry=None):
    """The implicit Euler step as ``system(u) -> (g, jacobian)``: the residual
    g(u) = (u - u_prev) - dt * f(u, mu) and a function of no arguments that
    returns its Jacobian I - dt * J at that u, from one linearization of the
    problem; for one state, or for a stack of states and parameters on a
    leading axis.

    ``carry`` is a lone run's one-item list (see :func:`ie_step`), or None:
    the first call takes the linearization it holds, if any, as the one at
    its u, and every call leaves its own in it."""
    # The diagonal: its row in band storage, or the dense one, in every block.
    bands = problem.jacobian_bands
    diagonal = (..., 1, slice(None)) if bands is not None else (..., *np.diag_indices(problem.dim))
    start = carry[0] if carry is not None else None

    def system(u):
        nonlocal start
        f, jacobian = linearization = start or problem.linearize(u, mu)
        start = None
        if carry is not None:
            carry[0] = linearization
        g = u - u_prev
        g -= dt * f  # in place: (u - u_prev) - dt * f, rounded alike

        def step_jacobian():
            a = -dt * jacobian()
            a[diagonal] += 1.0
            return a

        return g, step_jacobian

    return system


def ie_step(
    problem: IvpProblem,
    u_prev: np.ndarray,
    mu,
    dt: float,
    cfg: NewtonConfig | None = None,
    initializer: Initializer | Callable = PREVIOUS_VALUE,
    carry: list | None = None,
) -> tuple[np.ndarray, NewtonStats]:
    """One implicit Euler step of the 1-d state ``u_prev``: the Newton
    iterate and stats of :func:`newton_solve`, whether or not it converged.
    ``initializer`` is an :class:`Initializer`, which guesses as at a run's
    first step, or the guess function of a run that :meth:`Initializer.start`
    made.

    ``carry`` hands the problem's linearization from one step of a run to
    the next: a one-item list that holds the ``(f, jacobian)`` of the state
    ``u_prev``, where the run's step before ended, or None. A step whose
    guess is ``u_prev`` itself, as :data:`PREVIOUS_VALUE`'s is, starts
    Newton from that linearization instead of making it again, and leaves in
    the list the one of the state it ends on. A step with any other guess
    leaves None, so that no linearization stays alive while a costly guess,
    such as a surrogate's prediction, runs: one that did made those steps
    measurably slower."""
    _check_real("dt", dt)
    u_prev = np.asarray(u_prev, dtype=float)
    _check_one_system("u_prev", u_prev)
    u0 = initializer(problem, u_prev, mu, dt)
    if carry is not None and u0 is not u_prev:
        carry[0] = None
        carry = None
    system = _ie_system(problem, u_prev, mu, dt, carry)
    return newton_solve(system, u0, cfg, problem.jacobian_bands)


def _ie_step_stack(problem: IvpProblem, u_prev: np.ndarray, mus: np.ndarray, dt: float,
                   cfg: NewtonConfig | None, u0: np.ndarray):
    """One implicit Euler step of each state ``u_prev[j]`` with parameter
    ``mus[j]`` from the starting guess ``u0[j]``, each bit for bit as
    :func:`ie_step` takes it alone.

    Each Newton iteration makes one stacked linearization, Jacobian and
    :func:`_solve_stack` for the states still iterating; a state leaves as
    soon as its residual norm stops it, and the Jacobian of the iterate is
    sliced to the states that go on. Returns, per state, its last iterate
    and its NewtonStats. A stacked solve that raises hands the whole step to
    :func:`newton_solve`, one state at a time from its guess: the stack's
    iterations of that step are thrown away, which costs work only on a step
    where some linear solve fails."""
    cfg = cfg or _DEFAULT_NEWTON
    u = np.array(u0, dtype=float)
    out, outcomes = u, [None] * len(u)  # written as each state leaves
    rows = list(range(len(u)))  # the states still iterating
    system = _ie_system(problem, u_prev, mus, dt)
    g, jacobian = system(u)
    initial = norms = [math.sqrt(np.vdot(r, r)) for r in g]  # as newton_solve
    iterations = 0
    while True:
        ended = {j: status for j, norm in enumerate(norms)
                 if (status := _status(iterations, norm, cfg)) is not None}
        if not ended:
            try:
                delta = _solve_stack(jacobian(), g, problem.jacobian_bands)
            except np.linalg.LinAlgError:
                for j in range(len(out)):
                    out[j], outcomes[j] = newton_solve(_ie_system(problem, u_prev[j], mus[j], dt),
                                                       u0[j], cfg, problem.jacobian_bands)
                return out, outcomes
            u = u - delta  # as newton_solve steps
            g, jacobian = system(u)
            iterations += 1
            norms = [math.sqrt(np.vdot(r, r)) for r in g]
            continue
        for j, status in ended.items():
            outcomes[rows[j]] = NewtonStats(iterations, norms[j], status, initial[rows[j]])
            out[rows[j]] = u[j]
        keep = [j for j in range(len(rows)) if j not in ended]
        if not keep:
            return out, outcomes
        rows, u, g, norms = [rows[j] for j in keep], u[keep], g[keep], [norms[j] for j in keep]
        system = _ie_system(problem, u_prev[rows], mus[rows], dt)
        jacobian = partial(_rows, jacobian, keep)


def _rows(jacobian: Callable[[], np.ndarray], keep: list[int]) -> np.ndarray:
    """The blocks ``keep`` of a stacked Jacobian, each bit for bit its own."""
    return jacobian()[keep]


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


def _step_count(T: float, dt: float) -> int:
    """T as a whole number of dt steps: T/dt must be an integer >= 1 within
    a relative 1e-9. This is the one horizon rule of the package. Raises
    ValueError unless dt and T are finite and > 0 and dt divides T.
    """
    ratio = _check_real("T", T) / _check_real("dt", dt)
    if not math.isfinite(ratio):
        raise ValueError(f"dt={dt!r} is too small for T={T!r}")
    n = round(ratio)
    if n < 1 or abs(ratio - n) > 1e-9 * max(1.0, ratio):
        raise ValueError(f"horizon T={T!r} is not an integer multiple of dt={dt!r}")
    return n


def _iterable(name: str, value):
    """An iterator over ``value``; ValueError if it is not iterable."""
    try:
        return iter(value)
    except TypeError:
        raise ValueError(f"{name} must be iterable, got {value!r}") from None


def _check_cases(problem: IvpProblem, cases, T: float) -> list[tuple[tuple[float, ...], float]]:
    """The (mu, dt) ``cases`` as (float tuple, float) pairs: the one case
    rule of the package, applied before anything integrates.
    Each case must be a pair, each mu must pass :func:`_check_params` and
    give ``problem`` an initial value of shape (dim,), and each dt must pass
    :func:`_step_count`. Raises ValueError naming the first case that fails,
    or when ``cases`` is not iterable.
    """
    checked = []
    for case in _iterable("cases", cases):
        try:
            mu, dt = case
        except (TypeError, ValueError):
            raise ValueError(f"a case must be a (mu, dt) pair (case {case!r})") from None
        try:
            params = _check_params(mu)
            _step_count(T, dt)
            shape = np.shape(problem.initial_value(np.array(params)))
            if shape != (problem.dim,):
                raise ValueError(f"initial value has shape {shape}, expected ({problem.dim},)")
        except ValueError as exc:
            raise ValueError(f"{exc} (case mu={mu!r}, dt={dt!r})") from None
        checked.append((params, float(dt)))
    return checked


def integrate_many(
    problem: IvpProblem,
    mus,
    dt: float,
    T: float,
    cfg: NewtonConfig | None = None,
    initializer: Initializer = PREVIOUS_VALUE,
) -> list[Trajectory]:
    """Integrate each parameter of ``mus`` from 0 to T with the one fixed
    step dt, as one stack. Every case (mu, dt) passes :func:`_check_cases`
    before the first step.

    Each step of the instances still running is one stacked implicit Euler
    step, so an instance's trajectory is bit for bit the one it has alone; a
    single instance runs unstacked, through :func:`ie_step`, which hands
    the last linearization of a step to the next when both start from the
    previous value. Several instances need a problem whose ``linearize``
    takes a leading instance axis (see :class:`IvpProblem`). Each instance
    guesses with its own guess function from ``initializer.start()``, one
    state at a time, so a guess remembers the steps of its own run only.
    Never raises on step failure: a step whose NewtonStats did not converge
    takes its instance out of the stack, and the partial trajectory is
    returned with ``completed=False`` and ``error`` saying at which step and
    how the solve stopped.
    """
    mus = [np.array(mu) for mu, _ in
           _check_cases(problem, [(mu, dt) for mu in _iterable("mus", mus)], T)]
    n_steps = _step_count(T, dt)
    states = [np.empty((n_steps + 1, problem.dim)) for _ in mus]
    for state, mu in zip(states, mus):
        state[0] = problem.initial_value(mu)
    stats: list[list[NewtonStats]] = [[] for _ in mus]
    errors: list[str | None] = [None] * len(mus)
    guesses = [initializer.start() for _ in mus]
    rows = list(range(len(mus)))  # the instances still running
    mu_rows = np.array(mus)
    single = len(mus) == 1  # one instance runs unstacked, on 1-d arrays
    carry = [None]  # the lone run's last linearization, for its next step
    for i in range(n_steps):
        if not rows:
            break
        if single:
            u, outcome = ie_step(problem, states[0][i], mus[0], dt, cfg, guesses[0], carry)
            u, outcomes = [u], [outcome]
        else:
            u0 = [guesses[m](problem, states[m][i], mus[m], dt) for m in rows]
            u, outcomes = _ie_step_stack(problem, np.array([states[m][i] for m in rows]),
                                         mu_rows[rows], dt, cfg, u0)
        for m, u_m, outcome in zip(rows, u, outcomes):
            if outcome.converged:
                states[m][i + 1] = u_m
                stats[m].append(outcome)
            else:
                errors[m] = f"step {i + 1}: {_failure(outcome)}"
                rows = [r for r in rows if r != m]  # the zip keeps iterating the old list
    return [Trajectory(mu=mu, dt=float(dt), times=dt * np.arange(len(stats[m]) + 1),
                       states=states[m][: len(stats[m]) + 1], newton_stats=stats[m],
                       initializer=initializer.name, completed=errors[m] is None,
                       error=errors[m])
            for m, mu in enumerate(mus)]


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
