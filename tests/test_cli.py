"""Command line driver: config parsing, subcommands, CSV outputs, errors."""

import csv
import json
import multiprocessing
import os
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from flowcast import model_selection, pipeline
from flowcast.cli import ExperimentConfig, _build_parser, load_experiment, main
from flowcast.ode import _step_count, integrate
from flowcast.pipeline import (OfflineConfig, compare_cases, load_model, offline,
                               save_model)
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


# How each step size is written in a config file; nan has no literal form,
# so the config parser rejects it before the horizon rule sees it. With
# dt = 5e-324 the step count T/dt overflows to inf.
BAD_DTS = {0.0: "0.0", np.inf: "1e999", np.nan: "nan", -0.1: "-0.1", 0.0299: "0.0299",
           5e-324: "5e-324"}


# The [offline] section of TINY_CFG, as a config object.
TINY_OFFLINE = OfflineConfig(cases=[((3.4, 0.2), 0.05)], horizon=0.5,
                             problem_options={"cells": 12}, epsilon=0.3, max_centers=8)


@pytest.fixture(scope="module")
def tiny_model_path(tmp_path_factory):
    """The model TINY_CFG trains, saved to a file."""
    path = tmp_path_factory.mktemp("model") / "model.json"
    save_model(offline(TINY_OFFLINE), path)
    return str(path)


@pytest.mark.parametrize("dt", list(BAD_DTS))
def test_horizon_rule_rejects_everywhere(dt, tiny_model_path, tmp_path, capsys):
    """T = 2 with a zero, non-finite, negative, vanishing or non-dividing dt
    is rejected with ValueError by every layer, and by every command as a
    clean error that writes no file. A non-dividing dt gets one message from
    all of them."""
    message = "horizon T=2.0 is not an integer multiple of dt=0.0299" if dt == 0.0299 else ""
    model = load_model(tiny_model_path)
    for refuse in [
        lambda: OfflineConfig(cases=[((3.4, 0.2), dt)], horizon=2.0),
        lambda: ExperimentConfig(TINY_OFFLINE, [((3.4, 0.2), dt)], 2.0, 1),
        lambda: integrate(model.build_problem(), (3.4, 0.2), dt, 2.0),
        lambda: compare_cases(model, [((3.4, 0.2), 0.1), ((3.4, 0.2), dt)], 2.0),
        lambda: _step_count(2.0, dt),
    ]:
        with pytest.raises(ValueError, match=re.escape(message) or None):
            refuse()

    train_cfg, test_cfg = tmp_path / "bad-train-dt.cfg", tmp_path / "bad-test-dt.cfg"
    train_cfg.write_text(TINY_CFG.replace("train_dts = 0.05\nhorizon = 0.5",
                                          f"train_dts = {BAD_DTS[dt]}\nhorizon = 2.0"))
    test_cfg.write_text(TINY_CFG.replace("test_dts = 0.05", f"test_dts = {BAD_DTS[dt]}")
                        .replace("horizon = 0.25", "horizon = 2.0"))
    out = str(tmp_path / "out")
    for argv in [["offline", "--config", str(train_cfg), "--out", out],
                 ["online", "--model", tiny_model_path, "--mu", "(3.4, 0.2)",
                  "--dt", BAD_DTS[dt], "-T", "2.0", "--out", out],
                 ["bench", "--config", str(test_cfg), "--model", tiny_model_path,
                  "--out", out]]:
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


def test_horizon_rule_accepts_round_off(tmp_path):
    """T / dt = 0.3 / 0.1 is 2.9999999999999996 in floating point."""
    assert OfflineConfig(cases=[((3.4, 0.2), 0.1)], horizon=0.3).cases[0][1] == 0.1
    traj = integrate(build_problem("burgers", cells=8), (3.4, 0.2), 0.1, 0.3)
    assert traj.completed and traj.n_steps == 3
    assert _step_count(0.3, 0.1) == 3

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
    assert exp.cases == (((3.4, 0.2), 0.05), ((3.2, 0.4), 0.05))
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
    assert len(exp1.cases) == 9
    assert exp1.offline.max_centers == 150

    exp2 = load_experiment("experiment2")
    assert len(exp2.offline.cases) == 4
    assert exp2.offline.max_centers == 450

    exp3 = load_experiment("experiment3")
    assert len(exp3.offline.cases) == 3
    # The ten divisors of T = 2 nearest to log-spaced sizes in [0.001, 0.05],
    # 2000 down to 40 steps.
    assert exp3.test_horizon == 2.0
    assert exp3.cases == tuple(((3.4, 0.2), dt) for dt in (
        0.001, 0.0015444015444015444, 0.002386634844868735, 0.003683241252302026,
        0.005681818181818182, 0.008771929824561403, 0.013605442176870748,
        0.021052631578947368, 0.03225806451612903, 0.049999999999999996))
    assert [_step_count(2.0, dt) for _, dt in exp3.cases] == [
        2000, 1295, 838, 543, 352, 228, 147, 95, 62, 40]


def test_experiment_config_checks_the_test_protocol():
    """ExperimentConfig checks itself, as load_experiment builds it."""
    protocol = dict(offline=OfflineConfig(cases=[((3.4, 0.2), 0.05)]),
                    cases=[([3, 0], np.float64(0.05))], test_horizon=1, repetitions=2)
    exp = ExperimentConfig(**protocol)
    assert exp.cases == (((3.0, 0.0), 0.05),) and type(exp.cases[0][0][0]) is float
    assert type(exp.cases[0][1]) is float
    assert exp.test_horizon == 1.0 and type(exp.test_horizon) is float
    for change, message in [
        ({"cases": [((3, 0), 0.0)]}, "dt must be a real number > 0, got 0.0"),
        ({"cases": [((3, 0), "0.05")]}, "dt must be a real number > 0, got '0.05'"),
        ({"cases": [((3, 0), 5e-324)]}, "dt=5e-324 is too small for T=1.0"),
        ({"test_horizon": -1.0}, "T must be a real number > 0, got -1.0"),
        ({"repetitions": 0}, "repetitions must be an integer >= 1, got 0"),
        ({"repetitions": True}, "repetitions must be an integer >= 1, got True"),
        ({"cases": [(("3.4", "0.2"), 0.05)]}, "mu must be a finite real number"),
        ({"cases": [((3.4,), 0.05)]}, "mu must have two components"),
        ({"cases": []}, "at least one test case"),
    ]:
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**{**protocol, **change})


def test_load_experiment_errors(tmp_path):
    with pytest.raises(ValueError, match="neither a file nor a preset"):
        load_experiment("no-such-preset")

    def variant(name, mangle):
        path = tmp_path / f"{name}.cfg"
        path.write_text(mangle(TINY_CFG))
        return str(path)

    bad = variant("no-header", lambda s: s.replace("[problem]\n", ""))
    with pytest.raises(ValueError, match="cannot parse config .*no-header.cfg"):
        load_experiment(bad)

    bad = variant("unknown-key", lambda s: s.replace("repetitions = 1", "shoes = 2"))
    with pytest.raises(ValueError, match="unknown keys"):
        load_experiment(bad)

    bad = variant("missing", lambda s: s.replace("train_params = (3.4, 0.2)", ""))
    with pytest.raises(ValueError, match="missing key 'train_params'"):
        load_experiment(bad)

    bad = variant("params", lambda s: s.replace("(3.4, 0.2)\ntrain_dts", "(3.4, 'a')\ntrain_dts"))
    with pytest.raises(ValueError, match=r"invalid \[offline\] settings: mu must be a finite real "
                                         r"number or a 1-d sequence of them, got \(3.4, 'a'\)"):
        load_experiment(bad)

    # Test step sizes are listed; there is no log-spaced shorthand for them.
    bad = variant("logspace", lambda s: s.replace("test_dts = 0.05",
                                                  "test_dt_logspace = (0.001, 0.05, 10)"))
    with pytest.raises(ValueError, match=r"unknown keys in section \[online\]: "
                                         r"test_dt_logspace$"):
        load_experiment(bad)

    for old, new in [("test_dts = 0.05", "test_dts = ()"),
                     ("test_params = (3.4, 0.2); (3.2, 0.4)", "test_params =")]:
        bad = variant("empty-protocol", lambda s: s.replace(old, new))
        with pytest.raises(ValueError, match=r"invalid \[online\] settings: at least one "
                                             r"test case \(mu, dt\) is required"):
            load_experiment(bad)

    # A number is an int or a float, never a string, dict, set or bool, and
    # the class that owns the setting says so.
    dt_message = "settings: dt must be a real number > 0, got "
    mu_message = r"invalid \[offline\] settings: mu must be a finite real number"
    for old, new, message in [
        ("train_dts = 0.05", "train_dts = '15'", r"invalid \[offline\] " + dt_message + "'15'"),
        ("train_dts = 0.05", "train_dts = {0.01: 1}", r"invalid \[offline\] " + dt_message),
        ("train_dts = 0.05", "train_dts = {0.01}", r"invalid \[offline\] " + dt_message),
        ("train_dts = 0.05", "train_dts = True", r"invalid \[offline\] " + dt_message + "True"),
        ("train_dts = 0.05", "train_dts = (0.05, True)",
         r"invalid \[offline\] " + dt_message + "True"),
        ("test_dts = 0.05", "test_dts = [0.05, '0.01']",
         r"invalid \[online\] " + dt_message + "'0.01'"),
        ("train_params = (3.4, 0.2)", "train_params = (True, 0.2)", mu_message),
        ("train_params = (3.4, 0.2)", "train_params = False", mu_message),
        ("train_params = (3.4, 0.2)", "train_params = ('3.4', '0.2')", mu_message),
        ("train_params = (3.4, 0.2)", "train_params = (3.4, 1e999)", mu_message),
        ("train_params = (3.4, 0.2)", "train_params = ((3.4, 0.2),)", mu_message),
        ("test_params = (3.4, 0.2)", "test_params = (3.4, '0.2')",
         r"invalid \[online\] settings: mu must be a finite real number"),
    ]:
        assert TINY_CFG.count(old) == 1
        with pytest.raises(ValueError, match=message):
            load_experiment(variant("not-numbers", lambda s: s.replace(old, new)))

    bad = variant("reps", lambda s: s.replace("repetitions = 1", "repetitions = 0"))
    with pytest.raises(ValueError, match="repetitions"):
        load_experiment(bad)

    bad = variant("horizon", lambda s: s.replace("train_dts = 0.05", "train_dts = 0.3"))
    with pytest.raises(ValueError, match="invalid \\[offline\\]"):
        load_experiment(bad)

    # Greedy settings are checked before any training integration runs, and
    # a fractional budget is refused, not truncated.
    for old, new, message in [
        ("max_centers = 8\nepsilon", "max_centers = 0\nepsilon",
         r"invalid \[offline\] settings: max_centers must be"),
        ("max_centers = 8\nepsilon", "max_centers = 1.5\nepsilon",
         r"invalid \[offline\] settings: max_centers must be an integer >= 1 or None, "
         r"got 1.5"),
        ("tolerance = 1e-12\nmax", "tolerance = -1e-12\nmax",
         r"invalid \[offline\] settings: tolerance must be"),
        ("max_centers = 8\n\n[newton]", "max_centers = 0\n\n[newton]",
         r"invalid \[cv\] settings: max_centers must be"),
        ("max_centers = 8\n\n[newton]", "max_centers = 1.5\n\n[newton]",
         r"invalid \[cv\] settings: max_centers must be an integer >= 1 or None, got 1.5"),
        ("tolerance = 1e-12", "tolerance = 1e-12\nnormalize_inputs = true",
         r"unknown keys in section \[offline\]: normalize_inputs$"),
        ("tolerance = 1e-12", "rule = p\ntolerance = 1e-12",
         r"unknown keys in section \[offline\]: rule$"),
        # The test protocol is checked too, not first by bench.
        ("horizon = 0.25", "horizon = -1.0",
         r"invalid \[online\] settings: T must be a real number > 0"),
        ("horizon = 0.25", "horizon = nan",
         r"invalid \[online\] settings: T must be a real number > 0"),
        ("test_dts = 0.05", "test_dts = 0.0",
         r"invalid \[online\] settings: dt must be a real number > 0"),
        ("test_dts = 0.05", "test_dts = -0.01",
         r"invalid \[online\] settings: dt must be a real number > 0"),
        ("(3.4, 0.2); (3.2, 0.4)", "(3.4, 0.2); (3.2, 0.4, 1.0)",
         r"invalid \[online\] settings: mu must have two components"),
        # A negative fold seed is refused at read, not after the integration.
        ("seed = 0", "seed = -1", r"invalid \[cv\] settings: seed must be an integer >= 0"),
        ("train_params = (3.4, 0.2)", "train_params = (3.4, 0.2, 1.0)",
         r"invalid \[offline\] settings: mu must have two components"),
    ]:
        assert TINY_CFG.count(old) == 1
        with pytest.raises(ValueError, match=message):
            load_experiment(variant("greedy", lambda s: s.replace(old, new)))


@pytest.mark.parametrize("line, message", [
    ("foo = 1", "bad options for problem 'burgers': .*'foo'"),
    ("cells = 2.5e2", "cells must be an integer >= 1, got 250.0"),
    ("half_width = wide", "half_width must be a real number > 0, got 'wide'"),
    ("name = nonexistent", "unknown problem 'nonexistent'"),
    ("name = [1]", r"unknown problem \[1\]"),
])
def test_bad_problem_options_fail_cleanly(line, message, tmp_path, capsys):
    key = line.split(" = ")[0]
    text = re.sub(rf"\n{key} = [^\n]*", "", TINY_CFG).replace("[problem]", f"[problem]\n{line}")
    cfg = tmp_path / "bad-problem.cfg"
    cfg.write_text(text)
    with pytest.raises(ValueError, match=r"invalid \[problem\] settings: " + message):
        load_experiment(str(cfg))
    assert main(["offline", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: invalid [problem] settings") and err.count("\n") == 1
    assert not (tmp_path / "m.json").exists()


def test_cli_offline_online_bench(tiny_cfg, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    assert main(["offline", "--config", tiny_cfg, "--out", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "selected centers" in out
    assert "fixed" in out  # epsilon came from the config, not CV
    assert model_path.is_file()
    assert not (tmp_path / "model-cv.csv").exists()
    payload = json.loads(model_path.read_text())
    assert payload["format_version"] == 2
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


def test_cli_offline_with_cv_writes_curve(tiny_cfg, tmp_path, capsys):
    model_path = tmp_path / "model.json"
    cfg_text = TINY_CFG.replace("epsilon = 0.3\n", "")
    cfg = tmp_path / "cv-route.cfg"
    cfg.write_text(cfg_text)
    assert main(["offline", "--config", str(cfg), "--out", str(model_path)]) == 0
    out = capsys.readouterr().out
    assert "(cv)" in out
    rows = read_csv(tmp_path / "model-cv.csv")
    assert rows[0] == ["epsilon", "score"]
    assert len(rows) == 1 + 4  # header + grid_size
    payload = json.loads(model_path.read_text())
    assert payload["provenance"]["epsilon"] is None  # chosen by cross validation
    assert payload["provenance"]["cv"]["grid_size"] == 4
    assert payload["provenance"]["cv"]["max_centers"] == 8


def test_cli_offline_model_bytes_do_not_depend_on_the_output_path(tmp_path, monkeypatch, capsys):
    # The curve is always <model stem>-cv.csv beside the model, so the model
    # records no path: a relative and an absolute --out give the same bytes.
    cfg = tmp_path / "cv-route.cfg"
    cfg.write_text(TINY_CFG.replace("epsilon = 0.3\n", ""))
    here, elsewhere = tmp_path / "here", tmp_path / "elsewhere"
    here.mkdir()
    elsewhere.mkdir()
    monkeypatch.chdir(here)
    assert main(["offline", "--config", str(cfg), "--out", "m.json"]) == 0
    assert main(["offline", "--config", str(cfg), "--out", str(elsewhere / "m.json")]) == 0
    assert "(cv)" in capsys.readouterr().out
    assert (here / "m.json").read_bytes() == (elsewhere / "m.json").read_bytes()
    assert (here / "m-cv.csv").read_bytes() == (elsewhere / "m-cv.csv").read_bytes()


def test_cli_offline_that_cannot_write_its_model_leaves_no_file(tmp_path, capsys):
    # The model is written before the width search curve: when --out names a
    # directory, the run fails and leaves no curve behind.
    cfg = tmp_path / "cv-route.cfg"
    cfg.write_text(TINY_CFG.replace("epsilon = 0.3\n", ""))
    (tmp_path / "model").mkdir()
    assert main(["offline", "--config", str(cfg), "--out", str(tmp_path / "model")]) == 1
    assert "Is a directory" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["cv-route.cfg", "model"]


def test_cli_online_reports_memory_error(tiny_model_path, monkeypatch, capsys):
    # A state array that cannot be allocated ends the run with one error line.
    def no_memory(*args):
        raise MemoryError("Unable to allocate 87.3 TiB for an array")

    monkeypatch.setattr(pipeline, "integrate", no_memory)
    assert main(["online", "--model", tiny_model_path, "--mu", "(3.4, 0.2)",
                 "--dt", "0.05", "-T", "0.25"]) == 1
    assert capsys.readouterr().err == "error: Unable to allocate 87.3 TiB for an array\n"


def test_cli_offline_reports_a_dead_worker(tmp_path, monkeypatch, capsys):
    # A width search worker killed mid-search ends the run with one error
    # line and no model, never a hang or a traceback.
    parent = os.getpid()

    def dying(*args):
        assert os.getpid() != parent
        os._exit(3)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(model_selection, "_score_width", dying)
    cfg = tmp_path / "cv-route.cfg"
    cfg.write_text(TINY_CFG.replace("epsilon = 0.3\n", ""))
    assert main(["offline", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(r"error: a cross-validation worker process died: .*\n", err)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cv-route.cfg"]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("command, old, new, named", [
    ("offline", "train_params = (3.4, 0.2)\n", "train_params = (3.2, 0.4); (3.4, 0.2, 1.0)\n",
     "[offline] settings: mu must have two components (u_l, u_r), got 3 "
     "(case mu=(3.4, 0.2, 1.0), dt=0.05)"),
    ("offline", "train_dts = 0.05\n", "train_dts = 0.05, 0.07\n",
     "[offline] settings: horizon T=0.5 is not an integer multiple of dt=0.07 "
     "(case mu=(3.4, 0.2), dt=0.07)"),
    ("bench", "test_params = (3.4, 0.2); (3.2, 0.4)", "test_params = (3.4, 0.2); (3.2, 0.4, 1.0)",
     "[online] settings: mu must have two components (u_l, u_r), got 3 "
     "(case mu=(3.2, 0.4, 1.0), dt=0.05)"),
    ("bench", "test_dts = 0.05", "test_dts = 0.05, 0.07",
     "[online] settings: horizon T=0.25 is not an integer multiple of dt=0.07 "
     "(case mu=(3.4, 0.2), dt=0.07)"),
], ids=["offline-mu", "offline-dt", "bench-mu", "bench-dt"])
def test_cli_refuses_a_bad_later_case_before_anything_integrates(
        command, old, new, named, tiny_model_path, tmp_path, step_calls, capsys):
    cfg, out = tmp_path / "later.cfg", tmp_path / "out"
    assert old in TINY_CFG
    cfg.write_text(TINY_CFG.replace(old, new))
    argv = [command, "--config", str(cfg), "--out", str(out)]
    assert main(argv + (["--model", tiny_model_path] if command == "bench" else [])) == 1
    assert capsys.readouterr().err == f"error: invalid {named}\n"
    assert step_calls == [] and not out.exists()


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
        assert main(["offline", "--config", str(cfg), "--out", str(tmp_path / "m.json")]) == 0
    assert re.fullmatch(r"warning: greedy selection stalled in some fold at [1-4] of 4 "
                        r"widths \(near-singular kernel columns\)\n", capsys.readouterr().err)


def test_cli_overrides(tiny_cfg, tmp_path, capsys):
    """Every setting comes from the config file: no flag overrides a key, and
    the width search curve comes from offline, not from a command of its own."""
    model_path = str(tmp_path / "model.json")
    for argv, message in [
        (["cv", "--config", tiny_cfg, "--out", str(tmp_path / "cv.csv")],
         "invalid choice: 'cv'"),
        (["offline", "--config", tiny_cfg, "--out", model_path, "--epsilon", "0.4"],
         "unrecognized arguments: --epsilon 0.4"),
        (["offline", "--config", tiny_cfg, "--out", model_path, "--seed", "1"],
         "unrecognized arguments: --seed 1"),
        (["bench", "--config", tiny_cfg, "--model", model_path,
          "--out", str(tmp_path / "bench.csv"), "--repetitions", "2"],
         "unrecognized arguments: --repetitions 2"),
        # P-greedy is the only selection rule; there is no option to pick another.
        (["offline", "--config", tiny_cfg, "--out", model_path, "--rule", "p"],
         "unrecognized arguments: --rule p"),
    ]:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["tiny.cfg"]


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

    # A model file that cannot be opened is reported by the OS's own message;
    # one that is not JSON, as a file that cannot be read.
    missing = tmp_path / "nope.json"
    assert main(["online", "--model", str(missing), "--mu", "(1, 2)",
                 "--dt", "0.1", "-T", "1.0"]) == 1
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    assert main(["online", "--model", str(garbage), "--mu", "(1, 2)",
                 "--dt", "0.1", "-T", "1.0"]) == 1
    assert re.fullmatch(rf"error: cannot read model file {re.escape(str(garbage))}: "
                        r"Expecting property name [^\n]*\n", capsys.readouterr().err)

    model_path = tmp_path / "model.json"
    assert main(["offline", "--config", tiny_cfg, "--out", str(model_path)]) == 0
    capsys.readouterr()
    raw = json.loads(model_path.read_text())
    raw["provenance"]["problem_options"]["foo"] = 1
    model_path.write_text(json.dumps(raw))
    assert main(["online", "--model", str(model_path), "--mu", "(3.4, 0.2)",
                 "--dt", "0.05", "-T", "0.25"]) == 1
    assert re.fullmatch(r"error: malformed model file .*: bad options for problem 'burgers': "
                        r".*'foo'\n", capsys.readouterr().err)

    with pytest.raises(SystemExit) as exc:
        main(["offline", "--config", tiny_cfg, "--out", str(tmp_path / "m.json"), "--jobs", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err


def test_cli_reports_a_failed_training_integration(tmp_path, capsys):
    # One step of 0.5 on 8 cells does not converge within 4 Newton
    # iterations: the run ends with one error line naming the case and the
    # step, and writes no model.
    cfg, out = tmp_path / "fails.cfg", tmp_path / "m.json"
    cfg.write_text("[problem]\nname = burgers\ncells = 8\n"
                   "[offline]\ntrain_params = (3.4, 0.2)\ntrain_dts = 0.5\nhorizon = 0.5\n"
                   "epsilon = 0.3\n[newton]\nmax_iterations = 4\n")
    assert main(["offline", "--config", str(cfg), "--out", str(out)]) == 1
    assert re.fullmatch(r"error: training integration failed at mu=\(3\.4, 0\.2\), dt=0\.5: "
                        r"step 1: step did not converge within 4 iterations \(residual [^\n]*\)\n",
                        capsys.readouterr().err)
    assert [p.name for p in tmp_path.iterdir()] == ["fails.cfg"]


@pytest.mark.parametrize("cases", [[[[3.4, 0.2], None]], "x"])
def test_malformed_recorded_cases_fail_on_reading(tiny_model_path, tmp_path, capsys, cases):
    # Once read only by the first online run: a traceback from float(None),
    # or an error line that did not name the file.
    raw = json.loads(Path(tiny_model_path).read_text())
    raw["provenance"]["cases"] = cases
    path = tmp_path / "model.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match="malformed model file"):
        load_model(path)
    assert main(["online", "--model", str(path), "--mu", "(3.4, 0.2)",
                 "--dt", "0.05", "-T", "0.25"]) == 1
    assert re.fullmatch(r"error: malformed model file .*\n", capsys.readouterr().err)


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


def test_cli_online_uses_trained_newton_settings(tmp_path, capsys):
    """online solves with the [newton] settings the model was trained with,
    as bench does with the config's, not with the library defaults."""
    cfg = tmp_path / "loose-newton.cfg"
    cfg.write_text(TINY_CFG.replace("tolerance = 1e-14", "tolerance = 1e-6")
                   .replace("horizon = 0.25", "horizon = 0.5")
                   .replace("(3.4, 0.2); (3.2, 0.4)", "(3.4, 0.2)"))
    model_path = tmp_path / "model.json"
    assert main(["offline", "--config", str(cfg), "--out", str(model_path)]) == 0
    assert main(["online", "--model", str(model_path), "--mu", "(3.4, 0.2)",
                 "--dt", "0.05", "-T", "0.5"]) == 0
    online_out = capsys.readouterr().out
    bench_csv = tmp_path / "bench.csv"
    assert main(["bench", "--config", str(cfg), "--model", str(model_path),
                 "--out", str(bench_csv)]) == 0
    iter_vkoga = float(read_csv(bench_csv)[1][3])
    assert f"mean Newton iterations per step: {iter_vkoga:.2f} " in online_out
    assert iter_vkoga == 0.4  # at the library default tolerance, 1e-14, it reads 1.50


def test_cli_online_reports_a_failed_step_and_a_new_step_size(tmp_path, capsys):
    """A step that does not converge ends online with exit 1, one error line
    and a per-step report of the steps before it; a step size outside the
    model's training ones gets a note, a training one none."""
    cfg = tmp_path / "four-iterations.cfg"
    cfg.write_text(TINY_CFG.replace("max_iterations = 100", "max_iterations = 4"))
    model_path = tmp_path / "model.json"
    assert main(["offline", "--config", str(cfg), "--out", str(model_path)]) == 0
    capsys.readouterr()
    steps_csv = tmp_path / "s.csv"
    assert main(["online", "--model", str(model_path), "--mu", "(3.4, 0.2)",
                 "--dt", "0.5", "-T", "0.5", "--out", str(steps_csv)]) == 1
    captured = capsys.readouterr()
    assert "note: dt differs from every training step size\n" in captured.out
    assert "mean Newton iterations per step: nan (total 0)\n" in captured.out
    assert read_csv(steps_csv) == [["step", "time", "iterations", "initializer_residual",
                                    "final_residual"]]
    assert captured.err.startswith("error: step 1: step did not converge within 4 iterations")
    assert captured.err.count("\n") == 1
    assert main(["online", "--model", str(model_path), "--mu", "(3.4, 0.2)",
                 "--dt", "0.05", "-T", "0.5"]) == 0
    assert "note:" not in capsys.readouterr().out


def test_cli_bench_solves_config_problem(tiny_cfg, tmp_path, capsys):
    """bench solves the config's [problem], not the one stored in the model."""
    model_path = tmp_path / "model.json"
    assert main(["offline", "--config", tiny_cfg, "--out", str(model_path)]) == 0
    capsys.readouterr()
    wider = tmp_path / "cells40.cfg"
    wider.write_text(TINY_CFG.replace("cells = 12", "cells = 40"))
    bench_csv = tmp_path / "bench.csv"
    assert main(["bench", "--config", str(wider), "--model", str(model_path),
                 "--out", str(bench_csv)]) == 1
    assert capsys.readouterr().err == (
        "error: model maps 13 -> 12 but the problem needs 41 -> 40\n")
    assert not bench_csv.exists()

    narrow = tmp_path / "half-width1.cfg"
    narrow.write_text(TINY_CFG.replace("half_width = 5.0", "half_width = 1.0"))
    assert main(["bench", "--config", str(narrow), "--model", str(model_path),
                 "--out", str(bench_csv)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("problem: ")] == [
        "problem: finite volumes, 12 cells on (-1, 1), local Lax-Friedrichs flux, "
        "Dirichlet ghost cells, step initial profile at x=0"]


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
    rule = "mu must be a finite real number or a 1-d sequence of them, got "
    for mu, message in [
        ("(3.4,", f"cannot parse --mu '(3.4,': {rule}'(3.4,'"),
        ("{1: 2}", f"cannot parse --mu '{{1: 2}}': {rule}{{1: 2}}"),
        ("(True, 0.2)", f"cannot parse --mu '(True, 0.2)': {rule}(True, 0.2)"),
        ("'3.4'", f"cannot parse --mu \"'3.4'\": {rule}'3.4'"),
        ("((3.4, 0.2),)", f"cannot parse --mu '((3.4, 0.2),)': {rule}((3.4, 0.2),)"),
        ("", f"cannot parse --mu '': {rule}''"),
        ("1" + "0" * 400, "cannot parse --mu '1000"),
        ("(3.4, 0.2); (3.2, 0.4)", f"cannot parse --mu '(3.4, 0.2); (3.2, 0.4)': {rule}"),
    ]:
        assert main(["online", "--model", str(model_path), "--mu", mu,
                     "--dt", "0.05", "-T", "0.25"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}") and captured.err.count("\n") == 1
        assert captured.out == ""
    assert main(["online", "--model", str(model_path), "--mu", "[3.4, 0.2]",
                 "--dt", "0.05", "-T", "0.25"]) == 0
    assert capsys.readouterr().out.startswith("mu = (3.4, 0.2), dt = 0.05")


def test_readme_commands_parse():
    """Every `flowcast ...` line of README's sh blocks is a valid command line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("flowcast ")]
    assert lines
    parser = _build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def test_readme_configs_load(tmp_path):
    """Every ini block of README is a config that loads."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        path = tmp_path / f"readme-{i}.cfg"
        path.write_text(block)
        load_experiment(str(path))
