"""Command line driver: run experiments from config files, emit reports.

Experiment configs are INI files with sections [problem], [offline], [cv],
[newton], [online]. Every value is a Python literal (other text reads as a
string), and a parameter list is ';'-separated literals. Each section goes
unconverted to the class it configures, which checks it; an error reads
``invalid [section] settings: ...``. Every parameter vector is paired with
every step size into (mu, dt) cases, each checked by the one case rule
(``ode._check_cases``). ``epsilon = None`` reads as an omitted epsilon.
Three presets ship with the package: experiment1 (single training
parameter), experiment2 (four-corner training grid), experiment3 (mixed
step sizes).

Subcommands, one per phase: offline (train and save a model, plus the
width search curve as CSV when the config fixes no epsilon), online (one
surrogate-initialized run), bench (baseline vs surrogate table + CSV).
Every setting comes from the config file.
"""

from __future__ import annotations

import argparse
import ast
import configparser
import csv
import importlib.resources
import sys
import time
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .model_selection import CvConfig
from .ode import NewtonConfig, _check_cases, _check_int, _check_params, _check_real
from .pipeline import (
    CaseResult,
    OfflineConfig,
    compare_cases,
    load_model,
    offline,
    online,
    save_model,
)
from .problems import build_problem

__all__ = ["ExperimentConfig", "load_experiment", "main"]


def _literal(text: str):
    """Python literal if possible, bare string otherwise."""
    text = text.strip()
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _params(text: str) -> list:
    """The ';'-separated parameter vectors of ``text``, each read by
    :func:`_literal`, e.g. '(3.2, 0); (3.6, 0.4)'."""
    return [_literal(chunk) for chunk in text.split(";") if chunk.strip()]


def _cases(params: list, dts) -> list:
    """Every (mu, dt) of the parameter vectors and of ``dts``, one step size
    or a tuple or list of them, in parameter-major order."""
    dts = dts if isinstance(dts, (tuple, list)) else [dts]
    return [(mu, dt) for mu in params for dt in dts]


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
    raise ValueError(
        f"config {source!r} is neither a file nor a preset "
        f"(presets: {', '.join(_preset_names())})"
    )


def _build(section: str, factory, /, *args, **kwargs):
    """``factory(*args, **kwargs)``, its ValueError reported against [section]."""
    try:
        return factory(*args, **kwargs)
    except ValueError as exc:
        raise ValueError(f"invalid [{section}] settings: {exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    """Offline phase settings plus the test protocol of one experiment.

    ``cases`` are (mu, dt) pairs, checked against the offline problem and
    ``test_horizon`` by the case rule, as the training cases are.
    """

    offline: OfflineConfig
    cases: tuple
    test_horizon: float
    repetitions: int

    def __post_init__(self):
        object.__setattr__(self, "test_horizon", _check_real("T", self.test_horizon))
        object.__setattr__(self, "repetitions", _check_int("repetitions", self.repetitions, 1))
        problem = build_problem(self.offline.problem, **self.offline.problem_options)
        cases = tuple(_check_cases(problem, self.cases, self.test_horizon))
        if not cases:
            raise ValueError("at least one test case (mu, dt) is required")
        object.__setattr__(self, "cases", cases)

    def test_cases(self) -> list[tuple[tuple[float, ...], float]]:
        """The test cases, in their order, as a list."""
        return list(self.cases)


_PARAM_LISTS = {"train_params", "test_params"}
_OFFLINE_KEYS = {"train_params", "train_dts", "horizon", "epsilon", "tolerance", "max_centers"}
_ONLINE_KEYS = {"test_params", "test_dts", "horizon", "repetitions"}


def load_experiment(source) -> ExperimentConfig:
    """Load an experiment config from a path or a bundled preset name."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(_read_config_text(source))
    except configparser.Error as exc:
        raise ValueError(f"cannot parse config {source!r}: {exc}") from exc

    def section(name: str, keys=None, required=()) -> dict:
        """The section's values as read; a key outside ``keys`` (unless None)
        or a missing ``required`` one raises ValueError."""
        raw = dict(parser.items(name)) if parser.has_section(name) else {}
        unknown = sorted(set(raw) - keys) if keys is not None else []
        if unknown:
            raise ValueError(f"unknown keys in section [{name}]: {', '.join(unknown)}")
        for key in required:
            if key not in raw:
                raise ValueError(f"missing key {key!r} in section [{name}]")
        return {key: _params(text) if key in _PARAM_LISTS else _literal(text)
                for key, text in raw.items()}

    options = section("problem")
    name = options.pop("name", OfflineConfig.problem)
    _build("problem", build_problem, name, **options)  # OfflineConfig builds it again
    cv = _build("cv", CvConfig, **section("cv", {f.name for f in fields(CvConfig)}))
    newton = _build("newton", NewtonConfig,
                    **section("newton", {f.name for f in fields(NewtonConfig)}))

    settings = section("offline", _OFFLINE_KEYS, required=("train_params", "train_dts"))
    train_params, train_dts = settings.pop("train_params"), settings.pop("train_dts")
    off = _build("offline", OfflineConfig, cases=_cases(train_params, train_dts),
                 problem=name, problem_options=options, cv=cv, newton=newton, **settings)

    protocol = section("online", _ONLINE_KEYS)
    return _build("online", ExperimentConfig, offline=off,
                  cases=_cases(protocol.get("test_params", train_params),
                               protocol.get("test_dts", train_dts)),
                  test_horizon=protocol.get("horizon", 2.0),
                  repetitions=protocol.get("repetitions", 1))


def _write_csv(path, header, rows) -> None:
    """CSV with strings and ints as they are and every other value as ``repr(float(v))``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, (str, int)) else repr(float(v)) for v in row]
                         for row in rows)


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


def cmd_offline(args) -> int:
    model = offline(load_experiment(args.config).offline)
    out = Path(args.out)
    prov = model.provenance
    cv = model.cv
    save_model(model, out)  # before the curve: a model that cannot be written leaves no file
    n_before, n_after = prov["n_training_before_dedup"], prov["n_training"]
    dedup = f" ({n_after} after deduplication)" if n_after != n_before else ""
    print(f"problem: {prov['problem']} ({model.build_problem().notes})")
    print(f"training pairs: N = {n_before}{dedup}")
    print(f"selected centers: n = {model.expansion.n_centers} (stop: {prov['greedy_status']})")
    print(f"epsilon: {model.expansion.epsilon:.8g} ({'fixed' if cv is None else 'cv'})")
    if cv is not None:
        cv_path = out.with_name(out.stem + "-cv.csv")
        _write_csv(cv_path, ["epsilon", "score"], zip(cv.grid, cv.scores))
        print(f"cv curve: {cv_path}")
        if cv.stalled_widths:  # one line for all stalled greedy runs of the search
            print(f"warning: greedy selection stalled in some fold at "
                  f"{cv.stalled_widths} of {len(cv.grid)} widths "
                  f"(near-singular kernel columns)", file=sys.stderr)
    print(f"model written to {out}")
    return 0


def cmd_online(args) -> int:
    try:
        mu = _check_params(_literal(args.mu))
    except ValueError as exc:
        raise ValueError(f"cannot parse --mu {args.mu!r}: {exc}") from None
    model = load_model(args.model)
    start = time.perf_counter()
    traj, dt_in_training = online(model, mu, args.dt, args.horizon)
    wall = time.perf_counter() - start
    print(f"mu = {tuple(float(v) for v in traj.mu)}, dt = {traj.dt:g}, "
          f"T = {args.horizon:g}, steps = {traj.n_steps}")
    if not dt_in_training:
        print("note: dt differs from every training step size")
    print(f"mean Newton iterations per step: {traj.mean_iterations:.2f} "
          f"(total {traj.total_iterations})")
    print(f"mean starting-guess residual: {traj.mean_initializer_residual:.3e}")
    print(f"wall time: {wall:.3f} s")
    if args.out:
        _write_csv(args.out,
                   ["step", "time", "iterations", "initializer_residual", "final_residual"],
                   ([i + 1, traj.times[i + 1], s.iterations, s.initializer_residual_norm,
                     s.final_residual_norm] for i, s in enumerate(traj.newton_stats)))
        print(f"per-step report written to {args.out}")
    if not traj.completed:
        print(f"error: {traj.error}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(args) -> int:
    exp = load_experiment(args.config)
    model = load_model(args.model)
    problem = build_problem(exp.offline.problem, **exp.offline.problem_options)
    results = compare_cases(model, exp.test_cases(), exp.test_horizon,
                            repetitions=exp.repetitions, problem=problem,
                            newton=exp.offline.newton)
    failed = [r for r in results if not r.completed]
    count = f"{len(failed)} of {len(results)}"
    first = next((f"; first at mu={r.mu}, dt={r.dt:g}: {r.error}" for r in failed), "")
    if len(failed) == len(results):
        print(f"error: every benchmark case failed ({count}){first}", file=sys.stderr)
        return 1
    if failed:
        print(f"warning: {count} cases failed and were left out of the table{first}",
              file=sys.stderr)
    _write_csv(args.out,
               ["mu", "dt", "iter_old", "iter_vkoga", "time_old_s", "time_vkoga_s",
                "gain_iter_pct", "gain_time_pct"],
               ([str(r.mu), r.dt, r.iter_old, r.iter_vkoga, r.time_old_s, r.time_vkoga_s,
                 r.gain_iter_pct, r.gain_time_pct] for r in results))
    print(f"{len(results) - len(failed)} cases, T = {exp.test_horizon:g}, "
          f"repetitions = {exp.repetitions}")
    print(_format_table(results))
    if problem.notes:
        print(f"problem: {problem.notes}")
    print("iteration gains are implementation-independent; time gains are "
          "informational")
    print(f"per-case table written to {args.out}")
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
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
