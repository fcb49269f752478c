"""Offline training and online use of time-evolution-map surrogates.

Offline: integrate the problem at the training parameters with the baseline
initializer, collect ((dt, u_i) -> u_{i+1}) pairs from every step of every
trajectory, pick the kernel width (cross validation unless fixed), and run
the sparse greedy trainer on those pairs as they are, without rescaling.
The result is a surrogate of the one-step map that can be persisted to a
versioned JSON file.

Online: the surrogate predicts each next state and Newton polishes it, which
cuts iterations without changing the converged states. ``compare_cases``
runs the baseline and the surrogate side by side and reports iteration and
wall time gains per case.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .greedy import GreedyResult, TrainConfig, TrainingSet, greedy_train
from .greedy import _check_max_centers, _check_tolerance
from .kernels import KernelExpansion, _check_epsilon
from .model_selection import CvConfig, CvResult, select_epsilon
from .ode import (
    PREVIOUS_VALUE,
    IvpProblem,
    NewtonConfig,
    Trajectory,
    _step_count,
    integrate,
    surrogate_initializer,
)
from .problems import build_problem

__all__ = [
    "MODEL_FORMAT_VERSION",
    "DataInconsistencyError",
    "OfflineError",
    "ModelLoadError",
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

MODEL_FORMAT_VERSION = 1


class DataInconsistencyError(Exception):
    """Identical inputs mapped to different targets in the training data."""


class OfflineError(Exception):
    """Training-phase failure (integration breakdown at a training case)."""


class ModelLoadError(Exception):
    """Model file unreadable, malformed, or of an unsupported version."""


@dataclass(frozen=True)
class OfflineConfig:
    """Everything the offline phase needs.

    ``cases`` is a sequence of ((mu components), dt) pairs; the same mu may
    appear with several step sizes. Each mu must give the named problem an
    initial value and each dt must divide ``horizon``. ``epsilon=None``
    selects the width by cross validation with ``cv``, whose folds are
    trained with the greedy ``tolerance``; a fixed value bypasses it.
    ``tolerance`` bounds the squared power function, as in ``TrainConfig``.
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
        cases = tuple(
            (tuple(float(c) for c in np.atleast_1d(np.asarray(mu, dtype=float))), float(dt))
            for mu, dt in self.cases
        )
        if not cases:
            raise ValueError("at least one training case (mu, dt) is required")
        problem = build_problem(self.problem, **self.problem_options)
        for mu, dt in cases:
            try:
                _step_count(self.horizon, dt)
            except ValueError as exc:
                raise ValueError(f"{exc} (training case mu={mu})") from None
        for mu in dict.fromkeys(mu for mu, _ in cases):
            try:
                problem.initial_value(np.array(mu))
            except ValueError as exc:
                raise ValueError(f"{exc} (training case mu={mu})") from None
        if self.epsilon is not None:
            _check_epsilon(self.epsilon)
        _check_tolerance(self.tolerance)
        _check_max_centers(self.max_centers)
        object.__setattr__(self, "cases", cases)


@dataclass
class SurrogateModel:
    """A trained one-step-map surrogate bound to a named problem.

    The expansion takes raw (dt, state) inputs of dimension d+1 and returns
    the predicted next state. ``diagnostics`` and ``cv`` carry training traces
    for inspection; they are not persisted.
    """

    expansion: KernelExpansion
    problem_id: str
    problem_options: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    diagnostics: GreedyResult | None = field(default=None, repr=False, compare=False)
    cv: CvResult | None = field(default=None, repr=False, compare=False)

    @property
    def state_dim(self) -> int:
        return self.expansion.output_dim

    @property
    def epsilon(self) -> float:
        return self.expansion.epsilon

    def training_dts(self) -> list[float]:
        return sorted({float(dt) for _, dt in self.provenance.get("cases", [])})

    def predict(self, x: np.ndarray) -> np.ndarray:
        return self.expansion(x)

    __call__ = predict

    def build_problem(self) -> IvpProblem:
        return build_problem(self.problem_id, **self.problem_options)


def assemble_training_set(trajectories: list[Trajectory]) -> TrainingSet:
    """Stack ((dt, u_i), u_{i+1}) pairs from all steps of all trajectories.

    Inputs that repeat exactly are kept once (first occurrence). A repeated
    input whose targets disagree beyond 1e-10 (max norm) means the data does
    not describe a single-valued map and raises DataInconsistencyError.
    """
    if not trajectories:
        raise ValueError("need at least one trajectory")
    rows_x: list[np.ndarray] = []
    rows_y: list[np.ndarray] = []
    seen: dict[bytes, int] = {}
    for traj in trajectories:
        if traj.n_steps < 1:
            raise ValueError("every trajectory must contain at least one step")
        inputs = np.column_stack([np.full(traj.n_steps, traj.dt), traj.states[:-1]])
        targets = traj.states[1:]
        for i in range(traj.n_steps):
            key = inputs[i].tobytes()
            if key in seen:
                held = rows_y[seen[key]]
                if np.max(np.abs(held - targets[i])) > 1e-10:
                    raise DataInconsistencyError(
                        f"input (dt={traj.dt}, state at step {i}) repeats with "
                        f"targets differing by {np.max(np.abs(held - targets[i])):.3e}"
                    )
            else:
                seen[key] = len(rows_x)
                rows_x.append(inputs[i])
                rows_y.append(targets[i])
    return TrainingSet(np.asarray(rows_x), np.asarray(rows_y))


def build_training_data(cfg: OfflineConfig) -> tuple[TrainingSet, int, IvpProblem]:
    """Integrate the training cases and assemble their (dt, u_i) -> u_{i+1} pairs.

    Returns the training set, the pair count before deduplication, and the
    problem the cases were integrated on. Raises OfflineError naming the
    case if any training integration fails.
    """
    problem = build_problem(cfg.problem, **cfg.problem_options)
    trajectories = [
        integrate(problem, mu, dt, cfg.horizon, cfg.newton, PREVIOUS_VALUE)
        for mu, dt in cfg.cases
    ]
    for (mu, dt), traj in zip(cfg.cases, trajectories):
        if not traj.completed:
            raise OfflineError(
                f"training integration failed at mu={mu}, dt={dt}: {traj.error}"
            )
    n_before = sum(t.n_steps for t in trajectories)
    return assemble_training_set(trajectories), n_before, problem


def offline(cfg: OfflineConfig) -> SurrogateModel:
    """Run the training phase end to end and return the surrogate.

    Raises OfflineError naming the case if any training integration fails;
    cross-validation failures propagate unchanged.
    """
    data, n_before, problem = build_training_data(cfg)
    cv_result = None
    if cfg.epsilon is not None:
        epsilon = cfg.epsilon
    else:
        cv_result = select_epsilon(data, cfg.cv, tolerance=cfg.tolerance)
        epsilon = cv_result.epsilon
    result = greedy_train(
        data, TrainConfig(epsilon, tolerance=cfg.tolerance, max_centers=cfg.max_centers)
    )
    provenance = {
        "problem": cfg.problem,
        "problem_options": dict(cfg.problem_options),
        "problem_notes": problem.notes,
        "cases": [[list(mu), dt] for mu, dt in cfg.cases],
        "horizon": cfg.horizon,
        "greedy_tolerance": cfg.tolerance,
        "max_centers": cfg.max_centers,
        "newton_tolerance": cfg.newton.tolerance,
        "newton_max_iterations": cfg.newton.max_iterations,
        "residual_norm": "euclidean",
        "n_training_before_dedup": n_before,
        "n_training": data.size,
        "n_centers": result.n_centers,
        "greedy_status": result.status,
        "epsilon_source": "fixed" if cfg.epsilon is not None else "cv",
    }
    if cv_result is not None:
        provenance["cv"] = {
            "epsilon_min": cfg.cv.epsilon_min,
            "epsilon_max": cfg.cv.epsilon_max,
            "grid_size": cfg.cv.grid_size,
            "folds": cfg.cv.folds,
            "seed": cfg.cv.seed,
            "best_score": float(cv_result.scores[cv_result.best_index]),
        }
    return SurrogateModel(
        expansion=result.model,
        problem_id=cfg.problem,
        problem_options=dict(cfg.problem_options),
        provenance=provenance,
        diagnostics=result,
        cv=cv_result,
    )


def _check_dims(model: SurrogateModel, problem: IvpProblem):
    if model.expansion.input_dim != problem.dim + 1 or model.state_dim != problem.dim:
        raise ValueError(
            f"model maps {model.expansion.input_dim} -> {model.state_dim} but the "
            f"problem needs {problem.dim + 1} -> {problem.dim}"
        )


def _dt_in_training(model: SurrogateModel, dt: float) -> bool | None:
    dts = model.training_dts()
    if not dts:
        return None
    return any(abs(dt - d) <= 1e-12 * max(1.0, d) for d in dts)


def online(
    model: SurrogateModel,
    mu,
    dt: float,
    T: float,
    problem: IvpProblem | None = None,
    newton: NewtonConfig | None = None,
) -> tuple[Trajectory, bool | None]:
    """Integrate with the surrogate as Newton initializer.

    Returns the trajectory and whether ``dt`` is one of the model's training
    step sizes (None if the model does not record them); other step sizes
    are allowed. Step failures do not raise; the partial trajectory carries
    the error.
    """
    problem = problem if problem is not None else model.build_problem()
    _check_dims(model, problem)
    traj = integrate(problem, mu, dt, T, newton, surrogate_initializer(model.predict))
    return traj, _dt_in_training(model, dt)


def percent_gain(old: float, new: float) -> float:
    """Relative improvement of new over old in percent; 0 for a zero baseline."""
    if old == 0:
        return 0.0
    return float((old - new) / old * 100.0)


@dataclass
class CaseResult:
    """Baseline vs surrogate outcome of one (mu, dt) benchmark case.

    ``baseline`` and ``surrogate`` are the first run of each initializer and
    supply the iteration counts; the times are means over all repetitions.
    Gains are NaN unless both runs completed.
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
    """Benchmark baseline vs surrogate initialization over (mu, dt) cases.

    Returns one result per case, in case order, failed cases included. The
    first run per case supplies iteration counts and the first timing
    sample; if both complete, ``repetitions - 1`` further runs refine the
    timings (iteration counts are deterministic, timings are not). The
    initializer that runs first alternates with (case index + repetition)
    so that one-time costs do not all land on one of them.
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions!r}")
    problem = problem if problem is not None else model.build_problem()
    _check_dims(model, problem)
    init_new = surrogate_initializer(model.predict)
    results: list[CaseResult] = []
    for index, (mu, dt) in enumerate(cases):
        mu = tuple(float(v) for v in np.atleast_1d(np.asarray(mu, dtype=float)))
        dt = float(dt)
        runs = {PREVIOUS_VALUE: [], init_new: []}
        for rep in range(repetitions):
            for init in list(runs)[:: 1 if (index + rep) % 2 == 0 else -1]:
                runs[init].append(integrate(problem, mu, dt, T, newton, init))
            base, sur = runs[PREVIOUS_VALUE][0], runs[init_new][0]
            ok = base.completed and sur.completed
            if not ok:
                break
        time_old, time_new = (float(np.mean([t.wall_time_s for t in ts])) for ts in runs.values())
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


def _expansion_to_dict(exp: KernelExpansion) -> dict:
    return {
        "input_dim": exp.input_dim,
        "output_dim": exp.output_dim,
        "epsilon": exp.epsilon,
        "centers": exp.centers.tolist(),
        "coefficients": exp.coefficients.tolist(),
    }


def save_model(model: SurrogateModel, path) -> None:
    """Write the model as versioned JSON (floats in exact round-trip form)."""
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "problem_id": model.problem_id,
        "problem_options": model.problem_options,
        **_expansion_to_dict(model.expansion),
        "provenance": model.provenance,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_model(path) -> SurrogateModel:
    """Read a model written by :func:`save_model`; raises ModelLoadError,
    also for a file whose problem cannot be built or does not fit the model,
    and for one holding a non-null ``normalization`` (rescaled inputs)."""
    try:
        with open(path) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ModelLoadError(f"cannot read model file {path}: {exc}") from exc
    try:
        version = raw["format_version"]
        if version != MODEL_FORMAT_VERSION:
            raise ModelLoadError(
                f"unsupported model format version {version!r} "
                f"(this build reads {MODEL_FORMAT_VERSION})"
            )
        p, q = int(raw["input_dim"]), int(raw["output_dim"])
        centers = np.asarray(raw["centers"], dtype=float).reshape(-1, p)
        coefficients = np.asarray(raw["coefficients"], dtype=float).reshape(-1, q)
        if raw.get("normalization") is not None:
            raise ModelLoadError(
                f"model file {path} expects normalized inputs, which this build "
                "does not support; retrain the model"
            )
        model = SurrogateModel(
            expansion=KernelExpansion(centers, coefficients, float(raw["epsilon"])),
            problem_id=str(raw["problem_id"]),
            problem_options=dict(raw.get("problem_options", {})),
            provenance=dict(raw.get("provenance", {})),
        )
        _check_dims(model, model.build_problem())
        return model
    except ModelLoadError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelLoadError(f"malformed model file {path}: {exc}") from exc
