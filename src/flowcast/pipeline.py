"""Offline training and online use of time-evolution-map surrogates.

Offline: integrate the problem at the training parameters with the baseline
initializer, collect ((dt, u_i) -> u_{i+1}) pairs from every step of every
trajectory, pick the kernel width (cross validation unless fixed), and run
the sparse greedy trainer. The result is a surrogate of the one-step map
that can be persisted to a versioned JSON file.

Online: the surrogate predicts each next state and Newton polishes it, which
cuts iterations without changing the converged states. ``compare_cases``
runs the baseline and the surrogate side by side and aggregates iteration
and wall time gains the way benchmark tables report them.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .greedy import GreedyResult, SelectionRule, TrainConfig, TrainingSet, greedy_train
from .kernels import KernelExpansion
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
    "Normalization",
    "OfflineConfig",
    "SurrogateModel",
    "CaseResult",
    "ComparisonReport",
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
class Normalization:
    """Per-coordinate affine input map x -> (x - offsets) / scales."""

    offsets: np.ndarray
    scales: np.ndarray

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=float)
        scales = np.asarray(self.scales, dtype=float)
        if offsets.ndim != 1 or offsets.shape != scales.shape:
            raise ValueError("offsets and scales must be 1-d and of equal length")
        if not np.all(scales > 0):
            raise ValueError("scales must be strictly positive")
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "scales", scales)

    @classmethod
    def fit(cls, inputs: np.ndarray) -> "Normalization":
        """Min-max fit; near-constant coordinates get scale 1 so that
        rescaling does not amplify round-off level variation."""
        inputs = np.asarray(inputs, dtype=float)
        lo = inputs.min(axis=0)
        span = inputs.max(axis=0) - lo
        tiny = 1e-12 * np.maximum(1.0, np.abs(lo))
        return cls(lo, np.where(span > tiny, span, 1.0))

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=float) - self.offsets) / self.scales


@dataclass(frozen=True)
class OfflineConfig:
    """Everything the offline phase needs.

    ``cases`` is a sequence of ((mu components), dt) pairs; the same mu may
    appear with several step sizes. ``epsilon=None`` selects the width by
    cross validation with ``cv``, whose folds are trained with ``rule`` and
    ``tolerance``; a fixed value bypasses it.
    """

    cases: tuple
    horizon: float = 4.0
    problem: str = "burgers"
    problem_options: dict = field(default_factory=dict)
    epsilon: float | None = None
    cv: CvConfig = CvConfig()
    rule: SelectionRule = SelectionRule.F_GREEDY
    tolerance: float = 1e-12
    max_centers: int | None = None
    newton: NewtonConfig = NewtonConfig()
    normalize_inputs: bool = False

    def __post_init__(self):
        cases = tuple(
            (tuple(float(c) for c in np.atleast_1d(np.asarray(mu, dtype=float))), float(dt))
            for mu, dt in self.cases
        )
        if not cases:
            raise ValueError("at least one training case (mu, dt) is required")
        for mu, dt in cases:
            try:
                _step_count(self.horizon, dt)
            except ValueError as exc:
                raise ValueError(f"{exc} (training case mu={mu})") from None
        if self.epsilon is not None and (not np.isfinite(self.epsilon) or self.epsilon <= 0):
            raise ValueError(f"epsilon must be > 0 or None, got {self.epsilon!r}")
        if not isinstance(self.rule, SelectionRule):
            object.__setattr__(self, "rule", SelectionRule.from_string(self.rule))
        object.__setattr__(self, "cases", cases)


@dataclass
class SurrogateModel:
    """A trained one-step-map surrogate bound to a named problem.

    The expansion takes (dt, state) inputs of dimension d+1 and returns the
    predicted next state. ``diagnostics`` and ``cv`` carry training traces
    for inspection; they are not persisted.
    """

    expansion: KernelExpansion
    problem_id: str
    problem_options: dict = field(default_factory=dict)
    normalization: Normalization | None = None
    provenance: dict = field(default_factory=dict)
    diagnostics: GreedyResult | None = field(default=None, repr=False, compare=False)
    cv: CvResult | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.normalization is not None and (
            self.normalization.offsets.shape[0] != self.expansion.input_dim
        ):
            raise ValueError("normalization length does not match the expansion input")

    @property
    def state_dim(self) -> int:
        return self.expansion.output_dim

    @property
    def epsilon(self) -> float:
        return self.expansion.epsilon

    def training_dts(self) -> list[float]:
        return sorted({float(dt) for _, dt in self.provenance.get("cases", [])})

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Evaluate at raw (dt, state) inputs; normalization is applied here."""
        x = np.asarray(x, dtype=float)
        if self.normalization is not None:
            x = self.normalization.apply(x)
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


def build_training_data(
    cfg: OfflineConfig,
) -> tuple[TrainingSet, Normalization | None, int, IvpProblem]:
    """Integrate the training cases and assemble (possibly normalized) data.

    Returns the training set, the fitted normalization (None unless
    requested), the pair count before deduplication, and the problem the
    cases were integrated on. Raises OfflineError naming the case if any
    training integration fails.
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
    data = assemble_training_set(trajectories)
    normalization = None
    if cfg.normalize_inputs:
        normalization = Normalization.fit(data.inputs)
        data = TrainingSet(normalization.apply(data.inputs), data.targets)
    return data, normalization, n_before, problem


def offline(cfg: OfflineConfig) -> SurrogateModel:
    """Run the training phase end to end and return the surrogate.

    Raises OfflineError naming the case if any training integration fails;
    cross-validation failures propagate unchanged.
    """
    data, normalization, n_before, problem = build_training_data(cfg)
    cv_result = None
    if cfg.epsilon is not None:
        epsilon = cfg.epsilon
    else:
        cv_result = select_epsilon(data, cfg.cv, rule=cfg.rule, tolerance=cfg.tolerance)
        epsilon = cv_result.epsilon
    result = greedy_train(
        data, TrainConfig(epsilon, rule=cfg.rule, tolerance=cfg.tolerance, max_centers=cfg.max_centers)
    )
    provenance = {
        "problem": cfg.problem,
        "problem_options": dict(cfg.problem_options),
        "problem_notes": problem.notes,
        "cases": [[list(mu), dt] for mu, dt in cfg.cases],
        "horizon": cfg.horizon,
        "rule": cfg.rule.value,
        "greedy_tolerance": cfg.tolerance,
        "max_centers": cfg.max_centers,
        "newton_tolerance": cfg.newton.tolerance,
        "newton_max_iterations": cfg.newton.max_iterations,
        "residual_norm": "euclidean",
        "normalize_inputs": cfg.normalize_inputs,
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
        normalization=normalization,
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
    return (old - new) / old * 100.0


@dataclass
class CaseResult:
    """Baseline vs surrogate outcome of one (mu, dt) benchmark case."""

    mu: tuple
    dt: float
    iter_old: float
    iter_vkoga: float
    time_old_s: float
    time_vkoga_s: float
    gain_iter_pct: float
    gain_time_pct: float
    completed: bool = True
    error: str | None = None
    trajectories: tuple | None = field(default=None, repr=False, compare=False)


@dataclass
class ComparisonReport:
    """Per-case results plus mean/min/max summary aggregates.

    ``rows`` holds successful cases only; failed ones live in ``failures``
    and are excluded from every aggregate. Aggregate gains are means of the
    per-case gain percentages; min/max rows are the cases extremizing the
    iteration gain.
    """

    rows: list[CaseResult]
    failures: list[CaseResult]
    horizon: float
    repetitions: int

    def _gains(self) -> np.ndarray:
        return np.array([r.gain_iter_pct for r in self.rows])

    @property
    def mean_gain_iter_pct(self) -> float:
        return float(np.mean(self._gains())) if self.rows else float("nan")

    @property
    def mean_gain_time_pct(self) -> float:
        if not self.rows:
            return float("nan")
        return float(np.mean([r.gain_time_pct for r in self.rows]))

    @property
    def min_row(self) -> CaseResult:
        return self.rows[int(np.argmin(self._gains()))]

    @property
    def max_row(self) -> CaseResult:
        return self.rows[int(np.argmax(self._gains()))]

    def aggregates(self) -> dict:
        """Mean/min/max summary in the shape benchmark tables are printed."""
        if not self.rows:
            raise ValueError("no successful cases to aggregate")

        def from_row(r: CaseResult) -> dict:
            label = f"mu={r.mu}" if len({row.dt for row in self.rows}) == 1 else f"dt={r.dt:g}"
            return {
                "iter_old": r.iter_old,
                "time_old_s": r.time_old_s,
                "iter_vkoga": r.iter_vkoga,
                "time_vkoga_s": r.time_vkoga_s,
                "gain_iter_pct": r.gain_iter_pct,
                "gain_time_pct": r.gain_time_pct,
                "label": label,
            }

        mean = {
            "iter_old": float(np.mean([r.iter_old for r in self.rows])),
            "time_old_s": float(np.mean([r.time_old_s for r in self.rows])),
            "iter_vkoga": float(np.mean([r.iter_vkoga for r in self.rows])),
            "time_vkoga_s": float(np.mean([r.time_vkoga_s for r in self.rows])),
            "gain_iter_pct": self.mean_gain_iter_pct,
            "gain_time_pct": self.mean_gain_time_pct,
            "label": "",
        }
        return {"mean": mean, "min": from_row(self.min_row), "max": from_row(self.max_row)}


def compare_cases(
    model: SurrogateModel,
    cases,
    T: float,
    repetitions: int = 1,
    problem: IvpProblem | None = None,
    newton: NewtonConfig | None = None,
    keep_trajectories: bool = False,
) -> ComparisonReport:
    """Benchmark baseline vs surrogate initialization over (mu, dt) cases.

    The first run per case supplies iteration counts and the first timing
    sample; ``repetitions - 1`` further runs refine the timings (iteration
    counts are deterministic, timings are not).
    """
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions!r}")
    problem = problem if problem is not None else model.build_problem()
    _check_dims(model, problem)
    cases = [
        (tuple(float(v) for v in np.atleast_1d(np.asarray(mu, dtype=float))), float(dt))
        for mu, dt in cases
    ]
    init_new = surrogate_initializer(model.predict)

    rows: list[CaseResult] = []
    failures: list[CaseResult] = []
    for mu, dt in cases:
        t_old = integrate(problem, mu, dt, T, newton, PREVIOUS_VALUE)
        t_new = integrate(problem, mu, dt, T, newton, init_new)
        ok = t_old.completed and t_new.completed
        times_old = [t_old.wall_time_s]
        times_new = [t_new.wall_time_s]
        if ok:
            for _ in range(repetitions - 1):
                times_old.append(integrate(problem, mu, dt, T, newton, PREVIOUS_VALUE).wall_time_s)
                times_new.append(integrate(problem, mu, dt, T, newton, init_new).wall_time_s)
        row = CaseResult(
            mu=mu,
            dt=dt,
            iter_old=t_old.mean_iterations,
            iter_vkoga=t_new.mean_iterations,
            time_old_s=float(np.mean(times_old)),
            time_vkoga_s=float(np.mean(times_new)),
            gain_iter_pct=percent_gain(t_old.mean_iterations, t_new.mean_iterations) if ok else float("nan"),
            gain_time_pct=percent_gain(np.mean(times_old), np.mean(times_new)) if ok else float("nan"),
            completed=ok,
            error=t_old.error or t_new.error,
            trajectories=(t_old, t_new) if keep_trajectories else None,
        )
        if ok:
            rows.append(row)
        else:
            failures.append(row)
            warnings.warn(
                f"benchmark case mu={mu}, dt={dt} failed and is excluded "
                f"from aggregates: {row.error}",
                RuntimeWarning,
                stacklevel=2,
            )
    return ComparisonReport(rows=rows, failures=failures, horizon=T, repetitions=repetitions)


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
        "normalization": None
        if model.normalization is None
        else {
            "offsets": model.normalization.offsets.tolist(),
            "scales": model.normalization.scales.tolist(),
        },
        "provenance": model.provenance,
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def load_model(path) -> SurrogateModel:
    """Read a model written by :func:`save_model`; raises ModelLoadError."""
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
        expansion = KernelExpansion(centers, coefficients, float(raw["epsilon"]))
        normalization = None
        if raw.get("normalization") is not None:
            normalization = Normalization(
                np.asarray(raw["normalization"]["offsets"], dtype=float),
                np.asarray(raw["normalization"]["scales"], dtype=float),
            )
        return SurrogateModel(
            expansion=expansion,
            problem_id=str(raw["problem_id"]),
            problem_options=dict(raw.get("problem_options", {})),
            normalization=normalization,
            provenance=dict(raw.get("provenance", {})),
        )
    except ModelLoadError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ModelLoadError(f"malformed model file {path}: {exc}") from exc
