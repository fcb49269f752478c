"""Command line driver: run experiments from config files, emit reports.

Experiment configs are INI files with sections [problem], [offline], [cv],
[newton], [online]; values are Python literals (tuples for parameter
vectors, semicolon-separated lists of tuples for parameter sets). Three
presets ship with the package: experiment1 (single training parameter),
experiment2 (four-corner training grid), experiment3 (mixed step sizes).

Subcommands: offline (train and save a model), online (one surrogate-
initialized run), bench (baseline vs surrogate table + CSV), cv (width
search curve as CSV).
"""

from __future__ import annotations

import argparse
import ast
import configparser
import csv
import dataclasses
import importlib.resources
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model_selection import CrossValidationError, CvConfig, CvResult
from .ode import NewtonConfig, _nearest_step_count
from .pipeline import (
    CaseResult,
    DataInconsistencyError,
    ModelLoadError,
    OfflineConfig,
    OfflineError,
    compare_cases,
    load_model,
    offline,
    online,
    save_model,
)
from .problems import build_problem

__all__ = ["ConfigError", "ExperimentConfig", "load_experiment", "snap_dt", "main"]


class ConfigError(Exception):
    """Missing, unreadable, or inconsistent experiment configuration."""


def _literal(text: str):
    """Python literal if possible, bare string otherwise."""
    text = text.strip()
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _parse_params(text: str) -> list[tuple[float, ...]]:
    """Parameter vectors: tuples or lists separated by ';', e.g. '(3.2, 0); (3.6, 0.4)'."""
    params: list[tuple[float, ...]] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            value = ast.literal_eval(chunk)
        except (ValueError, SyntaxError) as exc:
            raise ConfigError(f"cannot parse parameter {chunk!r}: {exc}") from exc
        if isinstance(value, (int, float)):
            params.append((float(value),))
        elif isinstance(value, (tuple, list)) and all(isinstance(v, (int, float)) for v in value):
            params.append(tuple(float(v) for v in value))
        else:
            raise ConfigError(f"parameter {chunk!r} is not a number or tuple or list of numbers")
    if not params:
        raise ConfigError("empty parameter list")
    return params


def _parse_floats(text: str) -> list[float]:
    try:
        value = ast.literal_eval(text.strip())
    except (ValueError, SyntaxError) as exc:
        raise ConfigError(f"cannot parse number list {text!r}: {exc}") from exc
    if isinstance(value, (int, float)):
        return [float(value)]
    values = [float(v) for v in value]
    if not values:
        raise ConfigError("empty number list")
    return values


def _preset_names() -> list[str]:
    root = importlib.resources.files("flowcast") / "presets"
    return sorted(p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg"))


def _read_config_text(source) -> str:
    path = Path(source)
    if path.is_file():
        return path.read_text()
    name = str(source)
    if not name.endswith(".cfg"):
        name += ".cfg"
    resource = importlib.resources.files("flowcast") / "presets" / name
    if resource.is_file():
        return resource.read_text()
    raise ConfigError(
        f"config {source!r} is neither a file nor a preset "
        f"(presets: {', '.join(_preset_names())})"
    )


class _Section:
    """One config section with typed, checked key access."""

    def __init__(self, name: str, raw: dict):
        self.name = name
        self.raw = dict(raw)

    def take(self, key: str, conv, default=None, required: bool = False):
        if key not in self.raw:
            if required:
                raise ConfigError(f"missing key {key!r} in section [{self.name}]")
            return default
        value = self.raw.pop(key)
        try:
            return conv(value)
        except ConfigError:
            raise
        except Exception as exc:
            raise ConfigError(f"bad value for {key!r} in [{self.name}]: {exc}") from exc

    def present(self, **convs) -> dict:
        """Converted values of the keys in ``convs`` that the section sets; the
        keys it omits take the defaults of the config class they are passed to."""
        return {key: self.take(key, conv) for key, conv in convs.items() if key in self.raw}

    def finish(self):
        if self.raw:
            raise ConfigError(
                f"unknown keys in section [{self.name}]: {', '.join(sorted(self.raw))}"
            )


def _opt_int(text: str):
    return None if text.strip().lower() == "none" else int(text)


def _build(section: str, factory, /, *args, **kwargs):
    """``factory(*args, **kwargs)``, its ValueError reported against [section]."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(f"invalid [{section}] settings: {exc}") from exc


def snap_dt(T: float, dt: float) -> float:
    """Adjust dt minimally so the horizon T is an integer number of steps."""
    n, exact = _nearest_step_count(T, dt)
    return float(dt) if exact else T / n


@dataclass(frozen=True)
class ExperimentConfig:
    """Offline phase settings plus the test protocol of one experiment."""

    offline: OfflineConfig
    test_params: tuple
    test_dts: tuple
    test_horizon: float
    repetitions: int

    def test_cases(self) -> list[tuple[tuple[float, ...], float]]:
        """All (mu, dt) combinations, step sizes snapped to divide the horizon."""
        return [
            (mu, snap_dt(self.test_horizon, dt))
            for mu in self.test_params
            for dt in self.test_dts
        ]


def load_experiment(source) -> ExperimentConfig:
    """Load an experiment config from a path or a bundled preset name."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(_read_config_text(source))
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config {source!r}: {exc}") from exc

    def section(name):
        return _Section(name, dict(parser.items(name)) if parser.has_section(name) else {})

    prob = section("problem")
    settings = {"problem": prob.take("name", str)} if "name" in prob.raw else {}
    problem_options = {k: _literal(v) for k, v in prob.raw.items()}
    problem = _build("problem", build_problem, settings.get("problem", OfflineConfig.problem),
                     **problem_options)

    cv_sec = section("cv")
    cv = _build("cv", CvConfig, **cv_sec.present(epsilon_min=float, epsilon_max=float,
                                                 grid_size=int, folds=int, seed=int,
                                                 max_centers=_opt_int))
    cv_sec.finish()

    newton_sec = section("newton")
    newton = _build("newton", NewtonConfig,
                    **newton_sec.present(tolerance=float, max_iterations=int))
    newton_sec.finish()

    off_sec = section("offline")
    train_params = off_sec.take("train_params", _parse_params, required=True)
    train_dts = off_sec.take("train_dts", _parse_floats, required=True)
    settings.update(off_sec.present(horizon=float, epsilon=float, tolerance=float,
                                    max_centers=_opt_int))
    cases = tuple((mu, dt) for mu in train_params for dt in train_dts)
    off = _build("offline", OfflineConfig, cases=cases, problem_options=problem_options,
                 cv=cv, newton=newton, **settings)
    off_sec.finish()

    on_sec = section("online")
    test_params = on_sec.take("test_params", _parse_params, default=train_params)
    test_dts = on_sec.take("test_dts", _parse_floats)
    logspace = on_sec.take("test_dt_logspace", _parse_floats)
    if test_dts is None and logspace is None:
        test_dts = train_dts
    elif logspace is not None:
        if test_dts is not None:
            raise ConfigError("give either test_dts or test_dt_logspace, not both")
        if len(logspace) != 3 or not logspace[2].is_integer() or logspace[2] < 1:
            raise ConfigError(
                "test_dt_logspace must be (lo, hi, count) with an integer count >= 1, "
                f"got {tuple(logspace)}"
            )
        lo, hi, count = logspace
        test_dts = list(np.logspace(np.log10(lo), np.log10(hi), int(count)))
    exp = ExperimentConfig(
        offline=off,
        test_params=tuple(test_params),
        test_dts=tuple(float(d) for d in test_dts),
        test_horizon=on_sec.take("horizon", float, 2.0),
        repetitions=on_sec.take("repetitions", int, 1),
    )
    on_sec.finish()
    if exp.repetitions < 1:
        raise ConfigError(f"repetitions must be >= 1, got {exp.repetitions}")
    _build("online", exp.test_cases)
    for mu in test_params:
        _build("online", problem.initial_value, mu)
    return exp


def _write_cv_csv(path, result: CvResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "score"])
        for eps, score in zip(result.grid, result.scores):
            writer.writerow([repr(float(eps)), repr(float(score))])


def _write_bench_csv(path, results: list[CaseResult]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["mu", "dt", "iter_old", "iter_vkoga", "time_old_s", "time_vkoga_s",
             "gain_iter_pct", "gain_time_pct"]
        )
        for r in results:
            writer.writerow(
                [str(r.mu), repr(r.dt), repr(r.iter_old), repr(r.iter_vkoga),
                 repr(r.time_old_s), repr(r.time_vkoga_s),
                 repr(r.gain_iter_pct), repr(r.gain_time_pct)]
            )


def _format_table(results: list[CaseResult]) -> str:
    """Old/VKOGA/Gain table over the completed cases.

    Mean averages each column, gains included; Min and Max are the cases
    with the lowest and highest iteration gain (the first one on ties),
    labelled by mu when all cases share one dt and by dt otherwise.
    """
    done = [r for r in results if r.completed]
    table = np.array([[r.iter_old, r.time_old_s, r.iter_vkoga, r.time_vkoga_s,
                       r.gain_iter_pct, r.gain_time_pct] for r in done])
    lo, hi = int(np.argmin(table[:, 4])), int(np.argmax(table[:, 4]))
    one_dt = len({r.dt for r in done}) == 1
    rows = [("Mean", [np.mean(column) for column in table.T], "")] + [
        (name, table[i], f"mu={done[i].mu}" if one_dt else f"dt={done[i].dt:g}")
        for name, i in (("Min", lo), ("Max", hi))
    ]
    lines = [
        f"{'':6s}|{'Old value':^21s}|{'VKOGA':^21s}|{'Gain':^21s}|",
        f"{'':6s}|{'iter':>10s}{'time[s]':>11s}|{'iter':>10s}{'time[s]':>11s}"
        f"|{'iter':>10s}{'time':>11s}|",
        "-" * 73,
    ]
    for name, v, label in rows:
        lines.append(
            f"{name:6s}|{v[0]:10.2f}{v[1]:11.3f}|{v[2]:10.2f}{v[3]:11.3f}"
            f"|{v[4]:9.2f}%{v[5]:10.2f}%| {label}"
        )
    return "\n".join(lines)


def _apply_offline_overrides(off: OfflineConfig, args) -> OfflineConfig:
    changes = {}
    if getattr(args, "epsilon", None) is not None:
        changes["epsilon"] = args.epsilon
    if getattr(args, "seed", None) is not None:
        changes["cv"] = dataclasses.replace(off.cv, seed=args.seed)
    return dataclasses.replace(off, **changes) if changes else off


def _report_stalls(result: CvResult) -> None:
    """One line for all stalled greedy runs of a width search, if any."""
    if result.stalled_widths:
        print(f"warning: greedy selection stalled in some fold at "
              f"{result.stalled_widths} of {len(result.grid)} widths "
              f"(near-singular kernel columns)", file=sys.stderr)


def cmd_offline(args) -> int:
    exp = load_experiment(args.config)
    off = _apply_offline_overrides(exp.offline, args)
    model = offline(off)
    out = Path(args.out)
    prov = model.provenance
    cv_path = None
    if model.cv is not None:
        cv_path = out.with_name(out.stem + "-cv.csv")
        _write_cv_csv(cv_path, model.cv)
        prov["cv"]["table"] = str(cv_path)
    save_model(model, out)
    n_before, n_after = prov["n_training_before_dedup"], prov["n_training"]
    dedup = f" ({n_after} after deduplication)" if n_after != n_before else ""
    print(f"problem: {prov['problem']} ({prov['problem_notes']})")
    print(f"training pairs: N = {n_before}{dedup}")
    print(f"selected centers: n = {prov['n_centers']} (stop: {prov['greedy_status']})")
    print(f"epsilon: {model.epsilon:.8g} ({prov['epsilon_source']})")
    if cv_path is not None:
        print(f"cv curve: {cv_path}")
        _report_stalls(model.cv)
    print(f"model written to {out}")
    return 0


def cmd_online(args) -> int:
    try:
        params = _parse_params(args.mu)
    except (ConfigError, OverflowError) as exc:
        raise ConfigError(f"cannot parse --mu {args.mu!r}: {exc}") from None
    if len(params) != 1:
        raise ConfigError(f"--mu takes one parameter vector, got {len(params)}")
    model = load_model(args.model)
    traj, dt_in_training = online(model, params[0], args.dt, args.horizon)
    print(f"mu = {tuple(float(v) for v in traj.mu)}, dt = {traj.dt:g}, "
          f"T = {args.horizon:g}, steps = {traj.n_steps}")
    if dt_in_training is False:
        print("note: dt differs from every training step size")
    print(f"mean Newton iterations per step: {traj.mean_iterations:.2f} "
          f"(total {traj.total_iterations})")
    print(f"mean starting-guess residual: {traj.mean_initializer_residual:.3e}")
    print(f"wall time: {traj.wall_time_s:.3f} s")
    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "time", "iterations", "initializer_residual",
                             "final_residual"])
            for i, s in enumerate(traj.newton_stats):
                writer.writerow([i + 1, repr(float(traj.times[i + 1])), s.iterations,
                                 repr(s.initializer_residual_norm),
                                 repr(s.final_residual_norm)])
        print(f"per-step report written to {args.out}")
    if not traj.completed:
        print(f"error: {traj.error}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    exp = load_experiment(args.config)
    model = load_model(args.model)
    repetitions = args.repetitions if args.repetitions is not None else exp.repetitions
    results = compare_cases(model, exp.test_cases(), exp.test_horizon, repetitions=repetitions,
                            newton=exp.offline.newton)
    failed = [r for r in results if not r.completed]
    count = f"{len(failed)} of {len(results)}"
    first = next((f"; first at mu={r.mu}, dt={r.dt:g}: {r.error}" for r in failed), "")
    if len(failed) == len(results):  # also when the config yields no case
        print(f"error: every benchmark case failed ({count}){first}", file=sys.stderr)
        return 1
    if failed:
        print(f"warning: {count} cases failed and were left out of the table{first}",
              file=sys.stderr)
    _write_bench_csv(args.out, results)
    print(f"{len(results) - len(failed)} cases, T = {exp.test_horizon:g}, "
          f"repetitions = {repetitions}")
    print(_format_table(results))
    notes = model.provenance.get("problem_notes")
    if notes:
        print(f"problem: {notes}")
    print("iteration gains are implementation-independent; time gains are "
          "informational")
    print(f"per-case table written to {args.out}")
    return 0


def cmd_cv(args) -> int:
    exp = load_experiment(args.config)
    off = _apply_offline_overrides(exp.offline, args)
    # One final fit more than the search needs, so that only offline() wires CV.
    result = offline(dataclasses.replace(off, epsilon=None)).cv
    _write_cv_csv(args.out, result)
    print(f"selected epsilon = {result.epsilon:.8g} "
          f"(score {result.scores[result.best_index]:.6e})")
    print(f"cv table written to {args.out} ({len(result.grid)} rows)")
    _report_stalls(result)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flowcast",
        description="Kernel-surrogate warm starts for implicit ODE integration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_off = sub.add_parser("offline", help="train a surrogate and save it")
    p_off.add_argument("--config", required=True,
                       help="config file or preset name (e.g. experiment1)")
    p_off.add_argument("--out", required=True, help="model output path (JSON)")
    p_off.add_argument("--epsilon", type=float, help="fixed kernel width (skips CV)")
    p_off.add_argument("--seed", type=int, help="cross-validation fold seed")
    p_off.set_defaults(func=cmd_offline)

    p_on = sub.add_parser("online", help="run one surrogate-initialized integration")
    p_on.add_argument("--model", required=True, help="model file from 'offline'")
    p_on.add_argument("--mu", required=True, help="parameter vector, e.g. '(3.4, 0.2)'")
    p_on.add_argument("--dt", type=float, required=True, help="step size")
    p_on.add_argument("--horizon", "-T", type=float, required=True, help="final time")
    p_on.add_argument("--out", help="optional per-step CSV")
    p_on.set_defaults(func=cmd_online)

    p_bench = sub.add_parser("bench", help="baseline vs surrogate comparison table")
    p_bench.add_argument("--config", required=True)
    p_bench.add_argument("--model", required=True)
    p_bench.add_argument("--out", required=True, help="per-case CSV path")
    p_bench.add_argument("--repetitions", type=int,
                         help="timing repetitions (default from config)")
    p_bench.set_defaults(func=cmd_bench)

    p_cv = sub.add_parser("cv", help="kernel width search curve")
    p_cv.add_argument("--config", required=True)
    p_cv.add_argument("--out", required=True, help="(epsilon, score) CSV path")
    p_cv.add_argument("--seed", type=int)
    p_cv.set_defaults(func=cmd_cv)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OfflineError, ModelLoadError, CrossValidationError,
            DataInconsistencyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
