"""Command line driver: config parsing, subcommands, CSV outputs, errors."""

import csv
import json
import re
import warnings

import numpy as np
import pytest

from flowcast.cli import ConfigError, load_experiment, main, snap_dt
from flowcast.ode import _nearest_step_count, _step_count, integrate
from flowcast.pipeline import OfflineConfig
from flowcast.problems import build_problem

TINY_CFG = """
[problem]
name = burgers
cells = 12
half_width = 5.0

[offline]
train_params = (3.4, 0.2)
train_dts = 0.05
horizon = 0.5
tolerance = 1e-12
max_centers = 8
epsilon = 0.3

[cv]
epsilon_min = 0.01
epsilon_max = 1.0
grid_size = 4
folds = 2
seed = 0
max_centers = 8

[newton]
tolerance = 1e-14
max_iterations = 100

[online]
test_params = (3.4, 0.2); (3.2, 0.4)
test_dts = 0.05
horizon = 0.25
repetitions = 1
"""


@pytest.fixture()
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CFG)
    return str(path)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def test_snap_dt():
    assert snap_dt(2.0, 0.01) == 0.01
    snapped = snap_dt(2.0, 0.0299)
    assert snapped == 2.0 / 67
    assert abs(2.0 / snapped - round(2.0 / snapped)) < 1e-9
    assert snap_dt(2.0, 5.0) == 2.0  # at most one step


# How each step size is written in a config file; nan has no literal form,
# so the config parser rejects it before the horizon rule sees it. With
# dt = 5e-324 the step count T/dt overflows to inf.
BAD_DTS = {0.0: "0.0", np.inf: "1e999", np.nan: "nan", -0.1: "-0.1", 0.0299: "0.0299",
           5e-324: "5e-324"}


@pytest.mark.parametrize("dt", list(BAD_DTS))
def test_horizon_rule_rejects_everywhere(dt, tmp_path, capsys):
    """T = 2 with a zero, non-finite, negative, vanishing or non-dividing dt
    is rejected with ValueError by every layer, and by the CLI as a clean
    error."""
    with pytest.raises(ValueError):
        OfflineConfig(cases=[((3.4, 0.2), dt)], horizon=2.0)
    with pytest.raises(ValueError):
        integrate(build_problem("burgers", cells=8), (3.4, 0.2), dt, 2.0)
    with pytest.raises(ValueError):
        _step_count(2.0, dt)
    if dt == 0.0299:
        assert _nearest_step_count(2.0, dt) == (67, False)
    else:
        with pytest.raises(ValueError):
            snap_dt(2.0, dt)

    cfg = tmp_path / "bad-dt.cfg"
    cfg.write_text(TINY_CFG.replace("train_dts = 0.05\nhorizon = 0.5",
                                    f"train_dts = {BAD_DTS[dt]}\nhorizon = 2.0"))
    assert main(["offline", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "m.json").exists()


def test_horizon_rule_accepts_round_off(tmp_path):
    """T / dt = 0.3 / 0.1 is 2.9999999999999996 in floating point."""
    assert OfflineConfig(cases=[((3.4, 0.2), 0.1)], horizon=0.3).cases[0][1] == 0.1
    traj = integrate(build_problem("burgers", cells=8), (3.4, 0.2), 0.1, 0.3)
    assert traj.completed and traj.n_steps == 3
    assert _step_count(0.3, 0.1) == 3
    assert snap_dt(0.3, 0.1) == 0.1

    cfg = tmp_path / "round-off.cfg"
    cfg.write_text(TINY_CFG.replace("train_dts = 0.05\nhorizon = 0.5",
                                    "train_dts = 0.1\nhorizon = 0.3"))
    assert main(["offline", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 0


def test_load_experiment_round_trip(tiny_cfg):
    exp = load_experiment(tiny_cfg)
    off = exp.offline
    assert off.problem == "burgers"
    assert off.problem_options == {"cells": 12, "half_width": 5.0}
    assert off.cases == (((3.4, 0.2), 0.05),)
    assert off.horizon == 0.5
    assert off.max_centers == 8
    assert off.epsilon == 0.3
    assert off.cv.grid_size == 4
    assert off.newton.max_iterations == 100
    assert exp.test_params == ((3.4, 0.2), (3.2, 0.4))
    assert exp.test_dts == (0.05,)
    assert exp.test_horizon == 0.25
    assert exp.repetitions == 1
    assert exp.test_cases() == [((3.4, 0.2), 0.05), ((3.2, 0.4), 0.05)]


def test_load_experiment_omitted_keys_take_library_defaults(tmp_path):
    path = tmp_path / "minimal.cfg"
    path.write_text("[offline]\ntrain_params = (3.4, 0.2)\ntrain_dts = 0.05\n")
    exp = load_experiment(str(path))
    assert exp.offline == OfflineConfig(cases=[((3.4, 0.2), 0.05)])


def test_shipped_presets_load():
    exp1 = load_experiment("experiment1")
    assert exp1.offline.cases == (((3.4, 0.2), 0.01),)
    assert len(exp1.test_params) == 9
    assert exp1.offline.max_centers == 150

    exp2 = load_experiment("experiment2")
    assert len(exp2.offline.cases) == 4
    assert exp2.offline.max_centers == 450

    exp3 = load_experiment("experiment3")
    assert len(exp3.offline.cases) == 3
    cases = exp3.test_cases()
    assert len(cases) == 10
    for _, dt in cases:
        ratio = exp3.test_horizon / dt
        assert abs(ratio - round(ratio)) < 1e-9  # snapped to divide the horizon


@pytest.mark.parametrize("count", ["10", "1e1", "10.7"])
def test_dt_logspace_count_must_be_an_integer(count, tmp_path):
    path = tmp_path / "logspace.cfg"
    path.write_text(
        TINY_CFG.replace("test_dts = 0.05", f"test_dt_logspace = (0.001, 0.05, {count})")
    )
    if count == "10.7":
        with pytest.raises(ConfigError, match="test_dt_logspace .* integer count"):
            load_experiment(str(path))
    else:
        assert len(load_experiment(str(path)).test_dts) == 10


def test_load_experiment_errors(tmp_path):
    with pytest.raises(ConfigError, match="neither a file nor a preset"):
        load_experiment("no-such-preset")

    def variant(name, mangle):
        path = tmp_path / f"{name}.cfg"
        path.write_text(mangle(TINY_CFG))
        return str(path)

    bad = variant("unknown-key", lambda s: s.replace("repetitions = 1", "shoes = 2"))
    with pytest.raises(ConfigError, match="unknown keys"):
        load_experiment(bad)

    bad = variant("missing", lambda s: s.replace("train_params = (3.4, 0.2)", ""))
    with pytest.raises(ConfigError, match="missing key 'train_params'"):
        load_experiment(bad)

    bad = variant("params", lambda s: s.replace("(3.4, 0.2)\ntrain_dts", "(3.4, 'a')\ntrain_dts"))
    with pytest.raises(ConfigError, match="not a number"):
        load_experiment(bad)

    bad = variant(
        "both-dts",
        lambda s: s.replace("test_dts = 0.05", "test_dts = 0.05\ntest_dt_logspace = (0.01, 0.1, 3)"),
    )
    with pytest.raises(ConfigError, match="not both"):
        load_experiment(bad)

    bad = variant("no-test-dts", lambda s: s.replace("test_dts = 0.05", "test_dts = ()"))
    with pytest.raises(ConfigError, match="empty number list"):
        load_experiment(bad)

    bad = variant(
        "no-logspace-count",
        lambda s: s.replace("test_dts = 0.05", "test_dt_logspace = (0.01, 0.1, 0)"),
    )
    with pytest.raises(ConfigError, match="count >= 1"):
        load_experiment(bad)

    bad = variant("reps", lambda s: s.replace("repetitions = 1", "repetitions = 0"))
    with pytest.raises(ConfigError, match="repetitions"):
        load_experiment(bad)

    bad = variant("horizon", lambda s: s.replace("train_dts = 0.05", "train_dts = 0.3"))
    with pytest.raises(ConfigError, match="invalid \\[offline\\]"):
        load_experiment(bad)

    # Greedy settings are checked before any training integration runs, and
    # a fractional budget is refused, not truncated.
    for old, new, message in [
        ("max_centers = 8\nepsilon", "max_centers = 0\nepsilon",
         r"invalid \[offline\] settings: max_centers must be"),
        ("max_centers = 8\nepsilon", "max_centers = 1.5\nepsilon",
         r"bad value for 'max_centers' in \[offline\]"),
        ("tolerance = 1e-12\nmax", "tolerance = -1e-12\nmax",
         r"invalid \[offline\] settings: tolerance must be"),
        ("max_centers = 8\n\n[newton]", "max_centers = 0\n\n[newton]",
         r"invalid \[cv\] settings: max_centers must be"),
        ("max_centers = 8\n\n[newton]", "max_centers = 1.5\n\n[newton]",
         r"bad value for 'max_centers' in \[cv\]"),
        ("tolerance = 1e-12", "tolerance = 1e-12\nnormalize_inputs = true",
         r"unknown keys in section \[offline\]: normalize_inputs$"),
        ("tolerance = 1e-12", "rule = p\ntolerance = 1e-12",
         r"unknown keys in section \[offline\]: rule$"),
        # The test protocol is checked too, not first by bench.
        ("horizon = 0.25", "horizon = -1.0", r"invalid \[online\] settings: T must be > 0"),
        ("horizon = 0.25", "horizon = nan", r"invalid \[online\] settings: T must be > 0"),
        ("test_dts = 0.05", "test_dts = 0.0", r"invalid \[online\] settings: dt must be > 0"),
        ("test_dts = 0.05", "test_dts = -0.01", r"invalid \[online\] settings: dt must be > 0"),
        ("(3.4, 0.2); (3.2, 0.4)", "(3.4, 0.2); (3.2, 0.4, 1.0)",
         r"invalid \[online\] settings: mu must have two components"),
        ("train_params = (3.4, 0.2)", "train_params = (3.4, 0.2, 1.0)",
         r"invalid \[offline\] settings: mu must have two components"),
    ]:
        assert TINY_CFG.count(old) == 1
        with pytest.raises(ConfigError, match=message):
            load_experiment(variant("greedy", lambda s: s.replace(old, new)))


@pytest.mark.parametrize("line, message", [
    ("foo = 1", "bad options for problem 'burgers': .*'foo'"),
    ("cells = 2.5e2", "cells must be an integer >= 1, got 250.0"),
    ("half_width = wide", "half_width must be a real number > 0, got 'wide'"),
    ("name = nonexistent", "unknown problem 'nonexistent'"),
])
def test_bad_problem_options_fail_cleanly(line, message, tmp_path, capsys):
    key = line.split(" = ")[0]
    text = re.sub(rf"\n{key} = [^\n]*", "", TINY_CFG).replace("[problem]", f"[problem]\n{line}")
    cfg = tmp_path / "bad-problem.cfg"
    cfg.write_text(text)
    with pytest.raises(ConfigError, match=r"invalid \[problem\] settings: " + message):
        load_experiment(str(cfg))
    assert main(["offline", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid [problem] settings") and err.count("\n") == 1
    assert not (tmp_path / "m.json").exists()


def test_cli_offline_online_bench_cv(tiny_cfg, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert main(["offline", "--config", tiny_cfg, "--out", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "selected centers" in out
    assert "fixed" in out  # epsilon came from the config, not CV
    assert model_path.is_file()
    assert not (tmp_path / "model-cv.csv").exists()
    payload = json.loads(model_path.read_text())
    assert payload["format_version"] == 1
    assert "rule" not in payload["provenance"]

    step_csv = tmp_path / "steps.csv"
    code = main([
        "online", "--model", str(model_path), "--mu", "(3.4, 0.2)",
        "--dt", "0.05", "-T", "0.25", "--out", str(step_csv),
    ])
    assert code == 0
    rows = read_csv(step_csv)
    assert rows[0] == ["step", "time", "iterations", "initializer_residual",
                       "final_residual"]
    assert len(rows) == 1 + 5  # header + one row per step

    bench_csv = tmp_path / "bench.csv"
    assert main([
        "bench", "--config", tiny_cfg, "--model", str(model_path),
        "--out", str(bench_csv),
    ]) == 0
    out = capsys.readouterr().out
    assert "Mean" in out and "Min" in out and "Max" in out
    rows = read_csv(bench_csv)
    assert rows[0] == ["mu", "dt", "iter_old", "iter_vkoga", "time_old_s",
                       "time_vkoga_s", "gain_iter_pct", "gain_time_pct"]
    assert len(rows) == 3  # header + two cases
    for row in rows[1:]:
        for cell in row[1:]:  # plain numbers, not reprs such as np.float64(...)
            assert "np." not in cell
            float(cell)

    cv_csv = tmp_path / "cv.csv"
    assert main(["cv", "--config", tiny_cfg, "--out", str(cv_csv)]) == 0
    rows = read_csv(cv_csv)
    assert rows[0] == ["epsilon", "score"]
    assert len(rows) == 1 + 4  # header + grid_size


def test_cli_offline_with_cv_writes_curve(tiny_cfg, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    cfg_text = TINY_CFG.replace("epsilon = 0.3\n", "")
    cfg = tmp_path / "cv-route.cfg"
    cfg.write_text(cfg_text)
    assert main(["offline", "--config", str(cfg), "--out", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "(cv)" in out
    assert (tmp_path / "model-cv.csv").is_file()
    payload = json.loads(model_path.read_text())
    assert payload["provenance"]["epsilon_source"] == "cv"
    assert payload["provenance"]["cv"]["grid_size"] == 4


def test_cli_reports_stalled_widths_once(tmp_path, capsys):
    # At widths near 1e-6 the kernel columns of the 10 training pairs are
    # near-singular, so unbounded greedy runs stall in some fold.
    cfg = tmp_path / "stalls.cfg"
    cfg.write_text(
        TINY_CFG.replace("epsilon = 0.3\n", "")
        .replace("tolerance = 1e-12", "tolerance = 0")
        .replace("epsilon_min = 0.01", "epsilon_min = 1e-6")
        .replace("max_centers = 8\n\n[newton]", "max_centers = None\n\n[newton]")
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["cv", "--config", str(cfg), "--out", str(tmp_path / "cv.csv")]) == 0
        cv_err = capsys.readouterr().err
        assert main(["offline", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 0
        offline_err = capsys.readouterr().err
    for err in (cv_err, offline_err):
        assert re.fullmatch(r"warning: greedy selection stalled in some fold at [1-4] of 4 "
                            r"widths \(near-singular kernel columns\)\n", err)


def test_cli_overrides(tiny_cfg, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert main([
        "offline", "--config", tiny_cfg, "--out", str(model_path), "--epsilon", "0.4",
    ]) == 0
    payload = json.loads(model_path.read_text())
    assert payload["epsilon"] == 0.4
    # P-greedy is the only selection rule; there is no option to pick another.
    with pytest.raises(SystemExit) as exc:
        main(["offline", "--config", tiny_cfg, "--out", str(model_path), "--rule", "p"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --rule p" in capsys.readouterr().err


def test_cli_determinism(tiny_cfg, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["offline", "--config", tiny_cfg, "--out", str(a)]) == 0
    assert main(["offline", "--config", tiny_cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()

    model_path = a
    csv_a, csv_b = tmp_path / "ba.csv", tmp_path / "bb.csv"
    for out in (csv_a, csv_b):
        assert main([
            "bench", "--config", tiny_cfg, "--model", str(model_path),
            "--out", str(out),
        ]) == 0
    timing_columns = {"time_old_s", "time_vkoga_s", "gain_time_pct"}
    rows_a, rows_b = read_csv(csv_a), read_csv(csv_b)
    keep = [i for i, name in enumerate(rows_a[0]) if name not in timing_columns]
    trimmed_a = [[row[i] for i in keep] for row in rows_a]
    trimmed_b = [[row[i] for i in keep] for row in rows_b]
    assert trimmed_a == trimmed_b


def test_cli_error_paths(tiny_cfg, tmp_path, capsys):
    assert main(["offline", "--config", "missing.cfg", "--out", "x.json"]) == 1
    assert "error:" in capsys.readouterr().err

    assert main(["online", "--model", str(tmp_path / "nope.json"), "--mu", "(1, 2)",
                 "--dt", "0.1", "-T", "1.0"]) == 1
    assert "error:" in capsys.readouterr().err

    model_path = tmp_path / "model.json"
    assert main(["offline", "--config", tiny_cfg, "--out", str(model_path)]) == 0
    capsys.readouterr()
    bench_csv = tmp_path / "bench.csv"
    assert main(["bench", "--config", tiny_cfg, "--model", str(model_path),
                 "--out", str(bench_csv), "--repetitions", "0"]) == 1
    assert capsys.readouterr().err.startswith("error: repetitions must be >= 1")
    assert not bench_csv.exists()

    raw = json.loads(model_path.read_text())
    raw["problem_options"]["foo"] = 1
    model_path.write_text(json.dumps(raw))
    assert main(["online", "--model", str(model_path), "--mu", "(3.4, 0.2)",
                 "--dt", "0.05", "-T", "0.25"]) == 1
    assert re.fullmatch(r"error: malformed model file .*: bad options for problem 'burgers': "
                        r".*'foo'\n", capsys.readouterr().err)

    with pytest.raises(SystemExit) as exc:
        main(["cv", "--config", tiny_cfg, "--out", str(tmp_path / "cv.csv"), "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_cli_bench_uses_newton_section(tiny_cfg, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert main(["offline", "--config", tiny_cfg, "--out", str(model_path)]) == 0
    capsys.readouterr()
    one_iteration = tmp_path / "one-iteration.cfg"
    one_iteration.write_text(TINY_CFG.replace("max_iterations = 100", "max_iterations = 1"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["bench", "--config", str(one_iteration), "--model", str(model_path),
                     "--out", str(tmp_path / "bench.csv")])
    assert code == 1
    assert re.fullmatch(r"error: every benchmark case failed \(2 of 2\); first at "
                        r"mu=\(3\.4, 0\.2\), dt=0\.05: step 1: step did not converge "
                        r"within 1 iterations \(residual [^)]+\)\n",
                        capsys.readouterr().err)


def test_cli_bench_reports_partial_failures_once(tiny_cfg, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert main(["offline", "--config", tiny_cfg, "--out", str(model_path)]) == 0
    capsys.readouterr()
    # dt = 0.25 needs more than 4 Newton iterations on some step; dt = 0.05 does not.
    cfg = tmp_path / "partial.cfg"
    cfg.write_text(TINY_CFG.replace("max_iterations = 100", "max_iterations = 4")
                   .replace("test_dts = 0.05", "test_dts = (0.25, 0.05)"))
    bench_csv = tmp_path / "bench.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bench", "--config", str(cfg), "--model", str(model_path),
                     "--out", str(bench_csv)]) == 0
    captured = capsys.readouterr()
    assert re.fullmatch(r"warning: 2 of 4 cases failed and were left out of the table; "
                        r"first at mu=\(3\.4, 0\.2\), dt=0\.25: step \d+: step did not "
                        r"converge within 4 iterations \(residual [^)]+\)\n", captured.err)
    assert captured.out.startswith("2 cases, T = 0.25")
    # Rows come in case order, failed ones included.
    rows = read_csv(bench_csv)[1:]
    assert [(r[0], r[1]) for r in rows] == [("(3.4, 0.2)", "0.25"), ("(3.4, 0.2)", "0.05"),
                                          ("(3.2, 0.4)", "0.25"), ("(3.2, 0.4)", "0.05")]
    assert [r[6] == "nan" for r in rows] == [True, False, True, False]


def test_cli_online_bad_mu(tiny_cfg, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert main(["offline", "--config", tiny_cfg, "--out", str(model_path)]) == 0
    capsys.readouterr()
    # Each malformed value is one error line and exit 1, before any integration.
    for mu, message in [
        ("(3.4,", "cannot parse --mu"),
        ("{1: 2}", "cannot parse --mu '{1: 2}': parameter '{1: 2}' is not a number"),
        ("((3.4, 0.2),)", "cannot parse --mu '((3.4, 0.2),)': parameter"),
        ("", "cannot parse --mu '': empty parameter list"),
        ("1" + "0" * 400, "cannot parse --mu '1000"),
        ("(3.4, 0.2); (3.2, 0.4)", "--mu takes one parameter vector, got 2"),
    ]:
        assert main(["online", "--model", str(model_path), "--mu", mu,
                     "--dt", "0.05", "-T", "0.25"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert captured.out == ""
    assert main(["online", "--model", str(model_path), "--mu", "[3.4, 0.2]",
                 "--dt", "0.05", "-T", "0.25"]) == 0
    assert capsys.readouterr().out.startswith("mu = (3.4, 0.2), dt = 0.05")
