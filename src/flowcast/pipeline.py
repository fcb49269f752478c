"""Offline training and online use of time-evolution-map surrogates.

Offline: integrate the problem at the training parameters with the baseline
initializer, collect ((dt, u_i) -> u_{i+1}) pairs from every step of every
trajectory, pick the kernel width (cross validation unless fixed), and run
the sparse greedy trainer on those pairs as they are, without rescaling.
The result is a surrogate of the one-step map that can be persisted to a
versioned JSON file.

Online: the surrogate predicts each next state, corrected by its own errors
at the steps before, and Newton polishes it, which cuts iterations without
changing the converged states. ``compare_cases``
runs the baseline and the surrogate side by side and reports iteration and
wall time gains per case.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .greedy import GreedyResult, TrainConfig, TrainingSet, greedy_train
from .kernels import KernelExpansion, _first_equal_rows
from .model_selection import CvConfig, CvResult, select_epsilon
from .ode import (
    PREVIOUS_VALUE,
    IvpProblem,
    NewtonConfig,
    Trajectory,
    _check_cases,
    _check_int,
    _check_real,
    integrate,
    integrate_many,
    surrogate_initializer,
)
from .problems import build_problem

__all__ = [
    "MODEL_FORMAT_VERSION",
    "OfflineConfig",
    "SurrogateModel",
    "CaseResult",
    "assemble_training_set",
    "build_training_data",
    "offline",
    "online",
    "compare_cases",
    "percent_gain",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 2
_MODEL_KEYS = frozenset({"format_version", "input_dim", "output_dim", "epsilon",
                         "centers", "coefficients", "provenance"})


@dataclass(frozen=True)
class OfflineConfig:
    """Everything the offline phase needs.

    ``cases`` is a sequence of (mu, dt) pairs, each checked against the
    named problem and ``horizon`` by the case rule (``ode._check_cases``);
    the same mu may appear with several step sizes. A numpy scalar in
    ``problem_options`` is kept as the Python number it holds, as the
    provenance is JSON, and an option JSON cannot hold is refused; the
    problem's factory checks every option.
    ``epsilon=None`` selects the width by cross validation with ``cv``, whose
    folds are trained with the greedy ``tolerance`` and within
    ``max_centers``; a fixed value bypasses it. ``tolerance`` bounds the
    squared power function, as in ``TrainConfig``.
    """

    cases: tuple
    horizon: float = 4.0
    problem: str = "burgers"
    problem_options: dict = field(default_factory=dict)
    epsilon: float | None = None
    cv: CvConfig = CvConfig()
    tolerance: float = 1e-12
    max_centers: int | None = None
    newton: NewtonConfig = NewtonConfig()

    def __post_init__(self):
        object.__setattr__(self, "horizon", _check_real("T", self.horizon))
        for name, cls in (("problem_options", dict), ("cv", CvConfig), ("newton", NewtonConfig)):
            if not isinstance(getattr(self, name), cls):
                raise ValueError(f"{name} must be a {cls.__name__}, got {getattr(self, name)!r}")
        options = {key: value.item() if isinstance(value, np.generic) else value
                   for key, value in self.problem_options.items()}
        object.__setattr__(self, "problem_options", options)
        for key, value in options.items():
            try:
                json.dumps(value)
            except TypeError as exc:
                raise ValueError(f"problem option {key!r}: {exc}") from exc
        cases = tuple(_check_cases(build_problem(self.problem, **options), self.cases,
                                   self.horizon))
        if not cases:
            raise ValueError("at least one training case (mu, dt) is required")
        object.__setattr__(self, "cases", cases)
        if self.epsilon is not None:
            object.__setattr__(self, "epsilon", _check_real("epsilon", self.epsilon))
        tolerance = _check_real("tolerance", self.tolerance, zero_ok=True)
        object.__setattr__(self, "tolerance", tolerance)
        max_centers = _check_int("max_centers", self.max_centers, 1, optional=True)
        object.__setattr__(self, "max_centers", max_centers)


@dataclass
class SurrogateModel:
    """A trained one-step-map surrogate and the record of how it was trained.

    The expansion takes raw (dt, state) inputs of dimension d+1 and returns
    the predicted next state. ``provenance`` is the ``OfflineConfig`` that
    trained it, in JSON form, plus the outcome of the run:
    ``n_training_before_dedup``, ``n_training``, ``greedy_status``, and
    ``cv.best_score`` when cross validation chose the width. ``diagnostics``
    and ``cv`` carry training traces for inspection; they are not persisted.
    """

    expansion: KernelExpansion
    provenance: dict
    diagnostics: GreedyResult | None = field(default=None, repr=False, compare=False)
    cv: CvResult | None = field(default=None, repr=False, compare=False)

    def training_dts(self) -> list[float]:
        return sorted({float(dt) for _, dt in self.provenance["cases"]})

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.expansion(x)

    def build_problem(self) -> IvpProblem:
        return build_problem(self.provenance["problem"], **self.provenance["problem_options"])

    def newton(self) -> NewtonConfig:
        """The Newton settings the model was trained with."""
        return NewtonConfig(**self.provenance["newton"])


def assemble_training_set(trajectories: list[Trajectory]) -> TrainingSet:
    """Stack ((dt, u_i), u_{i+1}) pairs from all steps of all trajectories.

    Inputs that repeat by value (+0 equals -0) are kept once, at their
    first occurrence. A repeated input whose targets disagree beyond 1e-10
    (max norm) means the data does not describe a single-valued map and
    raises ValueError.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    if any(traj.n_steps < 1 for traj in trajectories):
        raise ValueError("every trajectory must contain at least one step")
    inputs = np.vstack([np.column_stack([np.full(traj.n_steps, traj.dt), traj.states[:-1]])
                        for traj in trajectories])
    targets = np.vstack([traj.states[1:] for traj in trajectories])
    first = _first_equal_rows(inputs)
    repeated = np.flatnonzero(first != np.arange(len(first)))
    starts = np.cumsum([0] + [traj.n_steps for traj in trajectories])
    for row in repeated:
        gap = np.max(np.abs(targets[first[row]] - targets[row]))
        if gap > 1e-10:
            k = int(np.searchsorted(starts, row, side="right")) - 1
            raise ValueError(
                f"input (dt={trajectories[k].dt}, state at step {row - starts[k]}) "
                f"repeats with targets differing by {gap:.3e}"
            )
    inputs, targets = np.delete(inputs, repeated, axis=0), np.delete(targets, repeated, axis=0)
    return TrainingSet(inputs, targets)  # the stacks with repeats are freed before its check


def build_training_data(cfg: OfflineConfig) -> tuple[TrainingSet, int]:
    """Integrate the training cases and assemble their (dt, u_i) -> u_{i+1} pairs.

    The cases of one step size integrate as one stack (``integrate_many``);
    the pairs keep the order of ``cfg.cases``. Returns the training set and
    the pair count before deduplication. Raises ValueError naming the
    first case, in that order, whose training integration fails.
    """
    problem = build_problem(cfg.problem, **cfg.problem_options)
    by_dt: dict[float, list[int]] = {}
    for index, (_, dt) in enumerate(cfg.cases):
        by_dt.setdefault(dt, []).append(index)
    trajectories: list = [None] * len(cfg.cases)
    for dt, indices in by_dt.items():
        mus = [cfg.cases[i][0] for i in indices]
        runs = integrate_many(problem, mus, dt, cfg.horizon, cfg.newton, PREVIOUS_VALUE)
        for i, traj in zip(indices, runs):
            trajectories[i] = traj
    for (mu, dt), traj in zip(cfg.cases, trajectories):
        if not traj.completed:
            raise ValueError(
                f"training integration failed at mu={mu}, dt={dt}: {traj.error}"
            )
    n_before = sum(t.n_steps for t in trajectories)
    return assemble_training_set(trajectories), n_before


def offline(cfg: OfflineConfig) -> SurrogateModel:
    """Run the training phase end to end and return the surrogate.

    Raises ValueError naming the case if any training integration fails, or
    when cross validation finds no width with a finite score.
    """
    provenance = json.loads(json.dumps(asdict(cfg)))
    data, n_before = build_training_data(cfg)
    cv_result = None
    if cfg.epsilon is not None:
        epsilon = cfg.epsilon
    else:
        cv_result = select_epsilon(data, cfg.cv, tolerance=cfg.tolerance,
                                   max_centers=cfg.max_centers)
        epsilon = cv_result.epsilon
    result = greedy_train(
        data, TrainConfig(epsilon, tolerance=cfg.tolerance, max_centers=cfg.max_centers)
    )
    provenance.update(n_training_before_dedup=n_before, n_training=data.size,
                      greedy_status=result.status)
    if cv_result is not None:
        provenance["cv"]["best_score"] = float(cv_result.scores[cv_result.best_index])
    return SurrogateModel(result.model, provenance, diagnostics=result, cv=cv_result)


def _check_dims(model: SurrogateModel, problem: IvpProblem):
    exp = model.expansion
    if exp.input_dim != problem.dim + 1 or exp.output_dim != problem.dim:
        raise ValueError(
            f"model maps {exp.input_dim} -> {exp.output_dim} but the "
            f"problem needs {problem.dim + 1} -> {problem.dim}"
        )


def online(
    model: SurrogateModel,
    mu,
    dt: float,
    T: float,
    problem: IvpProblem | None = None,
    newton: NewtonConfig | None = None,
) -> tuple[Trajectory, bool]:
    """Integrate with the surrogate as Newton initializer.

    Newton starts the first step from the model's prediction, and each later
    step from the prediction plus the model's errors at the steps before,
    extrapolated at the order that fit the last step best (see
    :func:`~flowcast.ode.surrogate_initializer`). ``problem`` and ``newton``
    default to the ones the model was trained on. Returns the trajectory
    and whether ``dt`` equals one of the model's training step sizes; other
    step sizes are allowed. Step failures do not raise; the partial
    trajectory carries the error.
    """
    problem = problem if problem is not None else model.build_problem()
    newton = newton if newton is not None else model.newton()
    _check_dims(model, problem)
    traj = integrate(problem, mu, dt, T, newton, surrogate_initializer(model.predict))
    return traj, dt in model.training_dts()


def percent_gain(old: float, new: float) -> float:
    """Relative improvement of new over old in percent; 0 for a zero baseline."""
    if old == 0:
        return 0.0
    return float((old - new) / old * 100.0)


@dataclass
class CaseResult:
    """Baseline vs surrogate outcome of one (mu, dt) benchmark case.

    ``baseline`` and ``surrogate`` are the first run of each initializer and
    supply the iteration counts; the times are means over all repetitions of
    whole calls, timed from outside. Gains are NaN unless both completed.
    """

    mu: tuple
    dt: float
    iter_old: float
    iter_vkoga: float
    time_old_s: float
    time_vkoga_s: float
    gain_iter_pct: float
    gain_time_pct: float
    completed: bool
    error: str | None
    baseline: Trajectory = field(repr=False, compare=False)
    surrogate: Trajectory = field(repr=False, compare=False)


def compare_cases(
    model: SurrogateModel,
    cases,
    T: float,
    repetitions: int = 1,
    problem: IvpProblem | None = None,
    newton: NewtonConfig | None = None,
) -> list[CaseResult]:
    """Benchmark ``integrate`` from the previous value against ``online`` over (mu, dt) cases.

    Returns one result per case, in case order, failed cases included. The
    first run per case supplies iteration counts and the first timing
    sample; if both complete, ``repetitions - 1`` further runs refine the
    timings (iteration counts are deterministic, timings are not). The
    initializer that runs first alternates with (case index + repetition)
    so that one-time costs do not all land on one of them. ``problem`` and
    ``newton`` default to the ones the model was trained on. Every case
    passes the case rule (``ode._check_cases``) before the first integration.
    """
    _check_int("repetitions", repetitions, 1)
    problem = problem if problem is not None else model.build_problem()
    newton = newton if newton is not None else model.newton()
    _check_dims(model, problem)
    cases = _check_cases(problem, cases, T)
    results: list[CaseResult] = []
    for index, (mu, dt) in enumerate(cases):
        runs = {lambda: integrate(problem, mu, dt, T, newton, PREVIOUS_VALUE): [],
                lambda: online(model, mu, dt, T, problem, newton)[0]: []}  # [(trajectory, s)]
        for rep in range(repetitions):
            for run in list(runs)[:: 1 if (index + rep) % 2 == 0 else -1]:
                start = time.perf_counter()
                runs[run].append((run(), time.perf_counter() - start))
            (base, _), (sur, _) = (timed[0] for timed in runs.values())
            ok = base.completed and sur.completed
            if not ok:
                break
        time_old, time_new = (float(np.mean([s for _, s in timed])) for timed in runs.values())
        results.append(CaseResult(
            mu=mu,
            dt=dt,
            iter_old=base.mean_iterations,
            iter_vkoga=sur.mean_iterations,
            time_old_s=time_old,
            time_vkoga_s=time_new,
            gain_iter_pct=percent_gain(base.mean_iterations, sur.mean_iterations) if ok else float("nan"),
            gain_time_pct=percent_gain(time_old, time_new) if ok else float("nan"),
            completed=ok,
            error=base.error or sur.error,
            baseline=base,
            surrogate=sur,
        ))
    return results


def save_model(model: SurrogateModel, path) -> None:
    """Write the model as versioned JSON (floats in exact round-trip form)."""
    exp = model.expansion
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "input_dim": exp.input_dim,
        "output_dim": exp.output_dim,
        "epsilon": exp.epsilon,
        "centers": exp.centers.tolist(),
        "coefficients": exp.coefficients.tolist(),
        "provenance": model.provenance,
    }
    # json.dumps runs the C encoder; json.dump and any indent run the Python one.
    with open(path, "w") as fh:
        fh.write(json.dumps(payload))
        fh.write("\n")


def load_model(path) -> SurrogateModel:
    """Read a model written by :func:`save_model`.

    Raises ValueError for a file that is not JSON, of another format
    version, with keys beyond the format-2 layout, whose recorded config
    :class:`OfflineConfig` refuses, or whose problem does not fit the model;
    a file that cannot be opened raises the OSError of ``open``, which names
    the path."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"cannot read model file {path}: {exc}") from exc
    try:
        version = raw["format_version"]
        if version == MODEL_FORMAT_VERSION:
            # A key this build does not read (an input normalization, say) would
            # otherwise be dropped silently and the model run on the wrong inputs.
            unexpected = sorted(set(raw) - _MODEL_KEYS)
            if unexpected:
                raise ValueError(f"unexpected keys {unexpected}")
            p, q = raw["input_dim"], raw["output_dim"]
            _check_int("input_dim", p, 1)
            _check_int("output_dim", q, 1)
            centers = _real_array("centers", raw["centers"]).reshape(-1, p)
            coefficients = _real_array("coefficients", raw["coefficients"]).reshape(-1, q)
            model = SurrogateModel(KernelExpansion(centers, coefficients, raw["epsilon"]),
                                   raw["provenance"])
            cfg = {f.name: model.provenance[f.name] for f in fields(OfflineConfig)}
            for key in ("cv", "newton"):
                if not isinstance(cfg[key], dict):
                    raise ValueError(f"{key} must be a JSON object, got {cfg[key]!r}")
            cv = {key: v for key, v in {**cfg["cv"]}.items() if key != "best_score"}
            OfflineConfig(**dict(cfg, cv=CvConfig(**cv), newton=NewtonConfig(**cfg["newton"])))
            _check_dims(model, model.build_problem())
            return model
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed model file {path}: {exc}") from exc
    raise ValueError(f"unsupported model format version {version!r} "
                     f"(this build reads {MODEL_FORMAT_VERSION}); retrain the model")


def _real_array(name: str, value) -> np.ndarray:
    """The JSON array ``value`` as a float array. An entry that is not a
    real number (a string, a bool, null, a nested object) is refused, not
    coerced."""
    entries = np.array(value, dtype=object).ravel()
    if not set(map(type, entries)) <= {int, float}:
        bad = next(e for e in entries if type(e) not in (int, float))
        raise ValueError(f"{name} must hold real numbers only, got {bad!r}")
    return entries.astype(float)
