"""The benchmark's workloads: inputs, one pass of work, gates and metrics.

A workload is set up several times per run (the last set-up is used), then
runs whole passes of identical work, so per-pass counts repeat exactly. A
pass integrates every (mu, dt) case with the baseline initializer
(``ode.integrate`` with ``PREVIOUS_VALUE``) and with the surrogate
(``pipeline.online``), alternating which goes first; each integration is
timed from outside.

- ``online-box``: set-up trains the experiment2 model at a fixed width; the
  cases are nine seed-drawn parameters inside its training box.
- ``offline-exp1``: set-up trains the experiment1 model at the width cross
  validation selects, as the reference for the trained model. A pass runs
  ``cli.main offline`` with cross validation, reloads the written model and
  integrates the preset's test grid plus off-box cases with it.

Timed metrics are in reference seconds (see :class:`Clock`); the run record
keeps the wall-second figures next to them.

The program only ever sees the generated cases.
"""

from __future__ import annotations

import bisect
import dataclasses
import resource
import signal
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Calls go through module attributes so that the tracer's wrappers see them.
from flowcast import cli, ode, pipeline
from flowcast.cli import load_experiment

HORIZON = 2.0
# Widths cross validation selects on the presets at their fold seed 0 (grid
# points 22 and 18 of the default 50-point grid).
EPS_EXP1 = 0.04941713361323833
EPS_EXP2 = 0.015998587196060572
TRAIN_BOX = ((3.2, 3.6), (0.0, 0.4))
# Off-box parameters where the surrogate costs iterations, and a step size at
# which Newton stalls on a round-off plateau under both initializers.
DEFECT_CASES = (((1.0, 0.5), 0.01), ((5.0, -1.0), 0.01), ((3.4, 0.2), 0.1))
# One off-box shock per step size. Across [1, 5] x [-1, 0.8] iterations per
# step range from 1.3 to 5 and failures at dt >= 0.05 depend on mu, so draws
# there move every metric with the seed; this small region does not.
OOD_DRAW_BOX = ((3.6, 3.8), (-0.5, -0.3))
OOD_DTS = (0.002, 0.01, 0.02, 0.05, 0.1)
AGREEMENT_TOL = 1e-10
# Duration of the clock's probe on the reference machine.
REFERENCE_PROBE_S = 0.0023


class Gates:
    """Correctness checks of one run; any failure makes the run incorrect."""

    def __init__(self):
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok and message not in self.failures:
            self.failures.append(message)


class Clock:
    """Wall seconds of timed calls and the same seconds on a reference machine.

    On a shared virtual machine (measured: a 2-vCPU KVM guest on a Xeon host)
    the same code runs up to 1.5 times faster in one minute than in the
    next, so wall times of one workload spread up to 40% between runs of ten.
    While :meth:`sampling` is active the clock therefore takes a short speed
    probe every ``INTERVAL_S`` seconds from a ``SIGALRM`` handler in the
    benchmark's own thread: two Newton iterations of the shape flowcast's
    implicit Euler step takes on 200 cells (assemble a tridiagonal Jacobian
    densely, form I - dt J, solve, take a norm) and four Gaussian kernel
    columns over a 369 x 201 array (the operation that dominates greedy
    training). A timed call's wall time excludes the probes that ran inside
    it; its reference time is that wall time scaled by the mean probe
    duration in a window of ``WINDOW_S`` around the call, relative to
    ``REFERENCE_PROBE_S``. The probe is the benchmark's own code, so changes
    to flowcast move reference seconds as they move wall seconds. Measured
    in one process on that machine, the coefficient of variation of 18
    back-to-back 5 s trainings fell from 13.5% to 3.0%, and that of 120
    integrations of 200 steps from 10.7% to 6.6% (7.2% to 2.2% for sums of
    ten). A probe of plain dense solves did worse (4.5% and 6.9%), and
    wider windows did worse.
    """

    INTERVAL_S = 0.2
    WINDOW_S = 0.5

    def __init__(self):
        rng = np.random.default_rng(0)
        self._diag, self._off = rng.random(200), rng.random(199)
        self._b = rng.random(200)
        self._x = rng.random((369, 201))
        self.times: list[float] = []  # midpoint of each probe
        self.durations: list[float] = []
        self.probe_s = 0.0  # total seconds spent probing
        self.timed: list[Timed] = []
        for _ in range(5):  # the first probes run cold
            self._probe()
        self.times.clear()
        self.durations.clear()

    def _probe(self, *_signal) -> None:
        start = time.perf_counter()
        idx = np.arange(200)
        for _ in range(2):
            jac = np.zeros((200, 200))
            jac[idx, idx] = self._diag
            jac[idx[1:], idx[:-1]] = self._off
            jac[idx[:-1], idx[1:]] = -self._off
            np.linalg.norm(np.linalg.solve(np.eye(200) - 0.01 * jac, self._b))
        for i in range(4):
            np.exp(-0.01 * ((self._x - self._x[i]) ** 2).sum(axis=1))
        end = time.perf_counter()
        self.times.append(0.5 * (start + end))
        self.durations.append(end - start)
        self.probe_s += end - start

    def _arm(self, on: bool) -> None:
        interval = self.INTERVAL_S if on else 0.0
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    @contextmanager
    def sampling(self):
        """Probe periodically inside the block, then settle every timed call."""
        previous = signal.signal(signal.SIGALRM, self._probe)
        self._arm(True)
        try:
            yield self
        finally:
            self._arm(False)
            signal.signal(signal.SIGALRM, previous)
        for _ in range(3):  # samples after the last timed call
            self._probe()
        for t in self.timed:
            t.ref_s = t.wall_s * REFERENCE_PROBE_S / self._mean_probe_s(t.start, t.end)

    @contextmanager
    def paused(self):
        """No probes inside the block (traced passes time their own spans)."""
        self._arm(False)
        try:
            yield
        finally:
            self._arm(True)

    def _mean_probe_s(self, start: float, end: float) -> float:
        lo = bisect.bisect_left(self.times, start - self.WINDOW_S)
        hi = bisect.bisect_right(self.times, end + self.WINDOW_S)
        if lo == hi:  # a paused stretch: the nearest probe on either side
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        return statistics.fmean(self.durations[lo:hi])

    def time(self, fn, *args):
        """``fn(*args)`` and its :class:`Timed`; reference seconds are set
        when :meth:`sampling` ends."""
        probed = self.probe_s
        start = time.perf_counter()
        result = fn(*args)
        end = time.perf_counter()
        timed = Timed(start, end, end - start - (self.probe_s - probed))
        self.timed.append(timed)
        return result, timed


@dataclass
class Timed:
    """One timed call: perf_counter bounds, wall seconds without probes and
    reference seconds."""

    start: float
    end: float
    wall_s: float
    ref_s: float = float("nan")


@dataclass
class Integration:
    """Outcome of one timed integration of one case."""

    case: int
    mu: tuple
    dt: float
    initializer: str
    completed: bool
    steps: int
    iterations: int
    timed: Timed
    init_residual_sum: float
    final_state: np.ndarray

    @property
    def wall_s(self) -> float:
        return self.timed.wall_s

    @property
    def ref_s(self) -> float:
        return self.timed.ref_s

    def record(self, pass_index: int) -> dict:
        return {
            "pass": pass_index,
            "mu": list(self.mu),
            "dt": self.dt,
            "initializer": self.initializer,
            "completed": self.completed,
            "steps": self.steps,
            "iterations": self.iterations,
            "wall_s": self.wall_s,
            "ref_s": self.ref_s,
        }


@dataclass
class Pass:
    """One pass of a workload's fixed work; ``offline`` times its training."""

    integrations: list[Integration]
    offline: Timed | None = None
    offline_ok: bool = True


@dataclass
class State:
    """What a set-up hands to the passes.

    ``heldout`` indexes the cases whose baseline trajectories score the
    model's one-step error; ``reference`` is the model the trained one must
    reproduce.
    """

    problem: object
    newton: object
    cases: list
    heldout: list[int]
    model: object = None
    reference: object = None
    offline: Timed | None = None
    holdout_mse: float | None = None


def latin_hypercube(rng, box, n: int) -> list[tuple[float, float]]:
    """n uniform draws over box, one in each of n strata along either axis.

    The model's one-step error varies 10^4-fold along mu_1 between the
    training corners and the box's middle and little along mu_2; a 3 x 3
    stratified draw left the mean error of nine cases spreading 19% across
    seeds (simulated from a 9 x 9 grid of measured errors), nine strata
    along mu_1 leave 6%.
    """
    (a0, a1), (b0, b1) = box
    u = rng.random((n, 2))
    rows, cols = np.arange(n), rng.permutation(n)
    return [
        (float(a0 + (rows[k] + u[k, 0]) * (a1 - a0) / n), float(b0 + (cols[k] + u[k, 1]) * (b1 - b0) / n))
        for k in range(n)
    ]


def ood_cases(rng) -> list:
    """The defect cases plus one seed-drawn off-box shock per step size."""
    (a0, a1), (b0, b1) = OOD_DRAW_BOX
    draws = [
        ((float(a0 + (a1 - a0) * u), float(b0 + (b1 - b0) * v)), dt)
        for dt, (u, v) in zip(OOD_DTS, rng.random((len(OOD_DTS), 2)))
    ]
    return list(DEFECT_CASES) + draws


def run_integration(state: State, case: int, initializer: str,
                    clock: Clock) -> tuple[Integration, object]:
    """Integrate one case; returns its record and the trajectory."""
    mu, dt = state.cases[case]
    if initializer == "baseline":
        traj, timed = clock.time(
            ode.integrate, state.problem, mu, dt, HORIZON, state.newton, ode.PREVIOUS_VALUE
        )
    else:
        out, timed = clock.time(
            pipeline.online, state.model, mu, dt, HORIZON, state.problem, state.newton
        )
        traj = out[0]
    run = Integration(
        case=case,
        mu=tuple(mu),
        dt=dt,
        initializer=initializer,
        completed=traj.completed,
        steps=traj.n_steps,
        iterations=traj.total_iterations,
        timed=timed,
        init_residual_sum=float(sum(s.initializer_residual_norm for s in traj.newton_stats)),
        final_state=traj.final_state,
    )
    return run, traj


def one_step_inputs(trajectory) -> np.ndarray:
    return np.column_stack([np.full(trajectory.n_steps, trajectory.dt), trajectory.states[:-1]])


def deploy(state: State, index: int, gates: Gates, clock: Clock) -> list[Integration]:
    """Every case under both initializers, in run order.

    Final states must agree wherever both complete. On the first pass the
    baseline trajectories of the held-out cases also give ``holdout_mse``.
    """
    runs, heldout = [], []
    for case in range(len(state.cases)):
        order = ["baseline", "surrogate"][:: 1 if (case + index) % 2 == 0 else -1]
        pair = {}
        for initializer in order:
            pair[initializer], traj = run_integration(state, case, initializer, clock)
            if initializer == "baseline" and case in state.heldout:
                heldout.append(traj)
        base, sur = pair["baseline"], pair["surrogate"]
        if base.completed and sur.completed:
            gap = float(np.max(np.abs(base.final_state - sur.final_state)))
            gates.check(
                gap <= AGREEMENT_TOL,
                f"final states differ by {gap:.3e} at mu={base.mu}, dt={base.dt}",
            )
        runs += [pair[i] for i in order]
    if state.holdout_mse is None:
        sq = [(state.model.predict(one_step_inputs(t)) - t.states[1:]) ** 2 for t in heldout]
        state.holdout_mse = float(sum(e.sum() for e in sq) / sum(e.size for e in sq))
        if state.reference is not None:
            x = np.vstack([one_step_inputs(t) for t in heldout])
            gates.check(
                np.array_equal(state.model.predict(x), state.reference.predict(x)),
                "reloaded model does not predict identically to the set-up model",
            )
    return runs


def train_fixed_width(preset: str, epsilon: float, centers: int, gates: Gates, clock: Clock):
    """A preset's model at a fixed width, its config, and the training's timing."""
    exp = load_experiment(preset)
    model, timed = clock.time(pipeline.offline, dataclasses.replace(exp.offline, epsilon=epsilon))
    gates.check(
        model.expansion.n_centers == centers,
        f"{preset} set-up model has {model.expansion.n_centers} centers, expected {centers}",
    )
    return model, exp, timed


class OnlineBox:
    """experiment2 at a fixed width on seed-drawn parameters in its training box."""

    def setup(self, seed: int, gates: Gates, clock: Clock) -> State:
        model, exp, timed = train_fixed_width("experiment2", EPS_EXP2, 450, gates, clock)
        cases = [(mu, 0.01) for mu in latin_hypercube(np.random.default_rng(seed), TRAIN_BOX, 9)]
        return State(
            problem=model.build_problem(),
            newton=exp.offline.newton,
            cases=cases,
            heldout=list(range(len(cases))),
            model=model,
            offline=timed,
        )

    def warm_up(self, state: State, clock: Clock) -> None:
        for initializer in ("baseline", "surrogate"):
            run_integration(state, 0, initializer, clock)

    def run_pass(self, state: State, index: int, gates: Gates, clock: Clock,
                 out_dir: Path) -> Pass:
        return Pass(integrations=deploy(state, index, gates, clock))


class OfflineExp1:
    """``flowcast offline`` with cross validation on experiment1, then deployment.

    The CV fold seed stays the preset's: at other fold seeds CV picks other
    widths, which moves every model-dependent metric with the seed.
    """

    preset = "experiment1"
    centers = 150

    def setup(self, seed: int, gates: Gates, clock: Clock) -> State:
        model, exp, _ = train_fixed_width(self.preset, EPS_EXP1, self.centers, gates, clock)
        train_mus = {mu for mu, _ in exp.offline.cases}
        grid = exp.test_cases()
        return State(
            problem=model.build_problem(),
            newton=exp.offline.newton,
            cases=grid + ood_cases(np.random.default_rng(seed)),
            heldout=[i for i, (mu, _) in enumerate(grid) if mu not in train_mus],
            reference=model,
        )

    def warm_up(self, state: State, clock: Clock) -> None:
        """Set-up has just integrated the training trajectory."""

    def run_pass(self, state: State, index: int, gates: Gates, clock: Clock,
                 out_dir: Path) -> Pass:
        path = out_dir / "offline-model.json"
        code, timed = clock.time(cli.main, ["offline", "--config", self.preset, "--out", str(path)])
        if code != 0:
            gates.check(False, f"flowcast offline exited with {code}")
            return Pass(integrations=[], offline=timed, offline_ok=False)
        state.model = pipeline.load_model(path)
        trained, reference = state.model.expansion, state.reference.expansion
        status = state.model.provenance.get("greedy_status")
        gates.check(
            trained.epsilon == EPS_EXP1 and trained.n_centers == self.centers
            and status == "max_centers",
            f"cross validation gave epsilon {trained.epsilon!r} with {trained.n_centers} centers "
            f"(status {status}), expected {EPS_EXP1!r} with {self.centers} (max_centers)",
        )
        gates.check(
            np.array_equal(trained.centers, reference.centers)
            and np.array_equal(trained.coefficients, reference.coefficients),
            "reloaded model differs from the model trained at the same width in set-up",
        )
        return Pass(integrations=deploy(state, index, gates, clock), offline=timed)


WORKLOADS = {"online-box": OnlineBox(), "offline-exp1": OfflineExp1()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else float("nan")


def _runs(passes, initializer: str) -> list[list[Integration]]:
    """Per pass, the integrations with one initializer."""
    groups = [[r for r in p.integrations if r.initializer == initializer] for p in passes]
    return [g for g in groups if g]


def steps_per_s(groups, seconds: str = "ref_s") -> float:
    """Median over passes of completed steps per second of integration time."""
    if not groups:
        return float("nan")
    return statistics.median(
        _ratio(sum(r.steps for r in g), sum(getattr(r, seconds) for r in g)) for g in groups
    )


def iters_per_step(groups) -> float:
    runs = [r for g in groups for r in g]
    return _ratio(sum(r.iterations for r in runs), sum(r.steps for r in runs))


def counts(passes: list[Pass]) -> tuple[int, int]:
    """Operations attempted and failed: integrations and offline runs."""
    runs = [r for p in passes for r in p.integrations]
    offline_runs = [p for p in passes if p.offline is not None]
    attempted = len(runs) + len(offline_runs)
    failed = sum(not r.completed for r in runs) + sum(not p.offline_ok for p in offline_runs)
    return attempted, failed


def _offline(states: list[State], passes: list[Pass]) -> list[Timed]:
    """The timed training runs: one per pass, or else one per set-up."""
    return [p.offline for p in passes if p.offline is not None] or [s.offline for s in states]


def wall_clock(setups: list[Timed], states: list[State], passes: list[Pass]) -> dict:
    """The timed end-to-end metrics in wall seconds, for the run record."""
    return {
        "setup_s": statistics.median(t.wall_s for t in setups),
        "surrogate_steps_per_s": steps_per_s(_runs(passes, "surrogate"), "wall_s"),
        "baseline_steps_per_s": steps_per_s(_runs(passes, "baseline"), "wall_s"),
        "offline_s": statistics.median(t.wall_s for t in _offline(states, passes)),
    }


def end_to_end(setups: list[Timed], states: list[State], passes: list[Pass]) -> dict:
    """Every end-to-end metric as name -> (value, unit)."""
    base, sur = _runs(passes, "baseline"), _runs(passes, "surrogate")
    attempted, failed = counts(passes)
    holdout_mse = states[-1].holdout_mse
    return {
        "setup_s": (statistics.median(t.ref_s for t in setups), "s"),
        "surrogate_steps_per_s": (steps_per_s(sur), "1/ref_s"),
        "baseline_steps_per_s": (steps_per_s(base), "1/ref_s"),
        "surrogate_iters_per_step": (iters_per_step(sur), "iter/step"),
        "baseline_iters_per_step": (iters_per_step(base), "iter/step"),
        "completed_frac": (_ratio(attempted - failed, attempted), "ratio"),
        "offline_s": (statistics.median(t.ref_s for t in _offline(states, passes)), "ref_s"),
        "holdout_mse": (float("nan") if holdout_mse is None else holdout_mse, "1"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def init_residual_ratio(passes: list[Pass]) -> float:
    """Mean surrogate starting-guess residual over the baseline's, per completed step."""
    mean = {}
    for initializer in ("baseline", "surrogate"):
        runs = [r for g in _runs(passes, initializer) for r in g]
        mean[initializer] = _ratio(sum(r.init_residual_sum for r in runs), sum(r.steps for r in runs))
    return _ratio(mean["surrogate"], mean["baseline"])


def check_repeatable(gates: Gates, passes: list[Pass]) -> None:
    """Counts and final states of every case repeat exactly across passes."""
    first = {(r.case, r.initializer): r for r in passes[0].integrations}
    for p in passes[1:]:
        for r in p.integrations:
            ref = first.get((r.case, r.initializer))
            gates.check(
                ref is not None
                and (r.completed, r.steps, r.iterations) == (ref.completed, ref.steps, ref.iterations)
                and np.array_equal(r.final_state, ref.final_state),
                f"{r.initializer} run at mu={r.mu}, dt={r.dt} did not repeat exactly",
            )


def paper_table(passes: list[Pass]) -> str:
    """The paper's Old/VKOGA/Gain mean/min/max table over cases both complete.

    Times are per-case medians over passes; informational only.
    """
    by_case: dict = {}
    for r in (r for p in passes for r in p.integrations):
        by_case.setdefault(r.case, {}).setdefault(r.initializer, []).append(r)
    rows = []
    for runs in by_case.values():
        old, new = runs["baseline"][0], runs["surrogate"][0]
        if not (old.completed and new.completed):
            continue
        t_old = statistics.median(r.wall_s for r in runs["baseline"])
        t_new = statistics.median(r.wall_s for r in runs["surrogate"])
        i_old, i_new = old.iterations / old.steps, new.iterations / new.steps
        rows.append((i_old, t_old, i_new, t_new, 100 * (i_old - i_new) / i_old,
                     100 * (t_old - t_new) / t_old,
                     f"mu=({old.mu[0]:.3f}, {old.mu[1]:.3f}) dt={old.dt:g}"))
    if not rows:
        return "no case completed under both initializers"
    gains = [r[4] for r in rows]
    mean = tuple(float(np.mean([r[k] for r in rows])) for k in range(6)) + ("",)
    lines = [
        f"{'':6s}|{'Old value':^21s}|{'VKOGA':^21s}|{'Gain':^21s}|",
        f"{'':6s}|{'iter':>10s}{'time[s]':>11s}|{'iter':>10s}{'time[s]':>11s}"
        f"|{'iter':>10s}{'time':>11s}|",
        "-" * 73,
    ]
    for label, r in (("Mean", mean), ("Min", rows[int(np.argmin(gains))]),
                     ("Max", rows[int(np.argmax(gains))])):
        lines.append(
            f"{label:6s}|{r[0]:10.2f}{r[1]:11.3f}|{r[2]:10.2f}{r[3]:11.3f}"
            f"|{r[4]:9.2f}%{r[5]:10.2f}%| {r[6]}"
        )
    return "\n".join(lines)
