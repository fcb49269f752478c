"""Offline/online pipeline: data assembly, training, benchmarking, persistence."""

import json
import warnings

import numpy as np
import pytest

from flowcast import pipeline
from flowcast.cli import _format_table
from flowcast.model_selection import CvConfig
from flowcast.ode import NewtonConfig, NewtonStats, Trajectory, integrate
from flowcast.pipeline import (
    DataInconsistencyError,
    ModelLoadError,
    OfflineConfig,
    OfflineError,
    assemble_training_set,
    compare_cases,
    load_model,
    offline,
    online,
    percent_gain,
    save_model,
)
from flowcast.problems import build_problem

TINY = dict(cells=16, half_width=5.0)


def tiny_config(**overrides):
    settings = dict(
        cases=[((3.4, 0.2), 0.05)],
        horizon=1.0,
        problem="burgers",
        problem_options=TINY,
        epsilon=0.3,
        max_centers=15,
    )
    settings.update(overrides)
    return OfflineConfig(**settings)


@pytest.fixture(scope="module")
def tiny_model():
    return offline(tiny_config())


def fake_trajectory(dt, states):
    states = np.asarray(states, dtype=float)
    n = states.shape[0] - 1
    stats = [NewtonStats(1, 0.0, True, 1.0)] * n
    return Trajectory(
        mu=np.array([0.0]),
        dt=dt,
        times=dt * np.arange(n + 1),
        states=states,
        newton_stats=stats,
    )


def test_assemble_training_set_stacks_steps():
    t1 = fake_trajectory(0.1, [[0.0, 0.0], [1.0, 1.0], [2.0, 4.0]])
    t2 = fake_trajectory(0.2, [[5.0, 5.0], [6.0, 7.0]])
    data = assemble_training_set([t1, t2])
    assert data.size == 3
    assert np.array_equal(data.inputs[:, 0], [0.1, 0.1, 0.2])
    assert np.array_equal(data.inputs[0], [0.1, 0.0, 0.0])
    assert np.array_equal(data.targets[0], [1.0, 1.0])
    assert np.array_equal(data.targets[2], [6.0, 7.0])


def test_assemble_training_set_deduplicates():
    t = fake_trajectory(0.1, [[0.0], [1.0], [2.0]])
    data = assemble_training_set([t, t])
    assert data.size == 2


def test_assemble_training_set_detects_inconsistency():
    a = fake_trajectory(0.1, [[0.0], [1.0]])
    b = fake_trajectory(0.1, [[0.0], [1.0 + 1e-6]])
    with pytest.raises(DataInconsistencyError, match="repeats"):
        assemble_training_set([a, b])
    with pytest.raises(ValueError, match="at least one trajectory"):
        assemble_training_set([])


def test_offline_config_validation():
    with pytest.raises(ValueError, match="at least one training case"):
        OfflineConfig(cases=[])
    with pytest.raises(ValueError, match="integer multiple"):
        OfflineConfig(cases=[((1.0,), 0.3)], horizon=1.0)
    with pytest.raises(ValueError, match="epsilon"):
        tiny_config(epsilon=-1.0)
    # Each training mu is checked on the named problem, before any
    # integration: a bad case after a good one is caught too.
    for cases in ([((3.4, 0.2, 1.0), 0.05)], [((3.4, 0.2), 0.05), ((3.4,), 0.05)]):
        with pytest.raises(ValueError, match=r"two components .*\(training case mu=\("):
            tiny_config(cases=cases)
    # The greedy settings are checked when the config is built, before any
    # training integration runs.
    for bad in (0, -3, 1.5):
        with pytest.raises(ValueError, match="max_centers must be an integer >= 1 or None"):
            tiny_config(max_centers=bad)
    for bad in (-1e-12, np.inf, np.nan):
        with pytest.raises(ValueError, match="tolerance must be >= 0"):
            tiny_config(tolerance=bad)
    assert tiny_config(max_centers=None, tolerance=0.0).max_centers is None
    assert tiny_config(max_centers=np.int64(3)).max_centers == 3
    assert tiny_config().cases == (((3.4, 0.2), 0.05),)


def test_offline_produces_working_surrogate(tiny_model):
    prov = tiny_model.provenance
    assert prov["n_training_before_dedup"] == 20
    assert prov["n_training"] <= 20
    assert prov["epsilon_source"] == "fixed"
    assert prov["greedy_status"] in ("tolerance", "max_centers")
    assert tiny_model.state_dim == 16
    assert tiny_model.expansion.input_dim == 17
    assert tiny_model.epsilon == 0.3
    assert tiny_model.training_dts() == [0.05]
    assert tiny_model.diagnostics is not None
    # The surrogate must be a usable predictor of the one-step map.
    problem = build_problem("burgers", **TINY)
    traj = integrate(problem, (3.4, 0.2), 0.05, 1.0)
    pred = tiny_model.predict(np.concatenate(([0.05], traj.states[0])))
    assert np.linalg.norm(pred - traj.states[1]) < 1e-2


def test_offline_with_cv_attaches_curve():
    cfg = tiny_config(
        epsilon=None,
        cv=CvConfig(epsilon_min=1e-3, epsilon_max=1.0, grid_size=5, folds=3,
                    max_centers=15),
    )
    model = offline(cfg)
    assert model.cv is not None
    assert model.provenance["epsilon_source"] == "cv"
    assert model.provenance["cv"]["grid_size"] == 5
    assert model.epsilon in model.cv.grid


def test_offline_reports_failing_case():
    cfg = tiny_config(newton=NewtonConfig(max_iterations=1))
    with pytest.raises(OfflineError, match="mu="):
        offline(cfg)


def test_online_runs_and_flags_dt(tiny_model):
    traj, dt_in_training = online(tiny_model, (3.4, 0.2), 0.05, 0.5)
    assert traj.completed
    assert dt_in_training is True
    assert traj.initializer == "surrogate"
    assert traj.n_steps == 10
    assert traj.mean_iterations <= 5.0
    assert traj.mean_initializer_residual == pytest.approx(
        np.mean([s.initializer_residual_norm for s in traj.newton_stats])
    )
    _, dt_in_training = online(tiny_model, (3.4, 0.2), 0.025, 0.5)
    assert dt_in_training is False


def test_online_checks_dimensions(tiny_model):
    other = build_problem("burgers", cells=8, half_width=5.0)
    with pytest.raises(ValueError, match="needs"):
        online(tiny_model, (3.4, 0.2), 0.05, 0.5, problem=other)


def test_percent_gain():
    assert percent_gain(4.0, 1.0) == 75.0
    assert percent_gain(0.0, 1.0) == 0.0
    assert percent_gain(2.0, 3.0) == -50.0


def test_compare_reports_gains(tiny_model):
    results = compare_cases(tiny_model, [((3.4, 0.2), 0.05), ((3.0, 0.4), 0.05)], 0.5)
    assert [r.mu for r in results] == [(3.4, 0.2), (3.0, 0.4)]
    assert all(r.completed and r.error is None for r in results)
    row = results[0]
    assert row.iter_old > 0 and row.iter_vkoga > 0
    assert row.gain_iter_pct == percent_gain(row.iter_old, row.iter_vkoga)
    for r in results:
        for name in ("dt", "iter_old", "iter_vkoga", "time_old_s", "time_vkoga_s",
                     "gain_iter_pct", "gain_time_pct"):
            assert type(getattr(r, name)) is float, name
    table = _format_table(results).splitlines()
    gains = [r.gain_iter_pct for r in results]
    assert table[3].startswith("Mean  |") and f"{np.mean(gains):9.2f}%" in table[3]
    assert table[4].startswith("Min   |") and table[4].endswith(f"| mu={results[int(np.argmin(gains))].mu}")
    assert table[5].startswith("Max   |") and table[5].endswith(f"| mu={results[int(np.argmax(gains))].mu}")
    with pytest.raises(ValueError, match="repetitions"):
        compare_cases(tiny_model, [((3.4, 0.2), 0.05)], 0.5, repetitions=0)


def test_compare_cases_labels_by_dt_when_dts_vary(tiny_model):
    results = compare_cases(
        tiny_model, [((3.4, 0.2), 0.05), ((3.4, 0.2), 0.025)], 0.5
    )
    assert len(results) == 2
    assert _format_table(results).splitlines()[4].split("| ")[-1].startswith("dt=")


def test_compare_keeps_first_run_trajectories(tiny_model):
    (row,) = compare_cases(tiny_model, [((3.4, 0.2), 0.05)], 0.5, repetitions=2)
    assert row.baseline.initializer == "previous"
    assert row.surrogate.initializer == "surrogate"
    assert row.iter_old == row.baseline.mean_iterations
    assert row.iter_vkoga == row.surrogate.mean_iterations


def test_compare_alternates_run_order(tiny_model, monkeypatch):
    order = []

    def recording_integrate(problem, mu, dt, T, newton, initializer):
        order.append(initializer.name)
        return integrate(problem, mu, dt, T, newton, initializer)

    monkeypatch.setattr(pipeline, "integrate", recording_integrate)
    compare_cases(tiny_model, [((3.4, 0.2), 0.05), ((3.0, 0.4), 0.05)], 0.5, repetitions=2)
    # (case index + repetition) even: baseline first; odd: surrogate first.
    assert order == ["previous", "surrogate", "surrogate", "previous",
                     "surrogate", "previous", "previous", "surrogate"]


def test_compare_excludes_failures_with_warning(tiny_model, capsys):
    # dt = 0.25 needs more than 4 Newton iterations on some step; dt = 0.05 does not.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        results = compare_cases(
            tiny_model, [((3.4, 0.2), 0.25), ((3.4, 0.2), 0.05)], 0.5,
            newton=NewtonConfig(max_iterations=4),
        )
    assert capsys.readouterr().err == ""  # a failure is recorded, not warned about
    failed, ok = results
    assert not failed.completed and "did not converge within 4 iterations" in failed.error
    assert np.isnan(failed.gain_iter_pct) and np.isnan(failed.gain_time_pct)
    assert ok.completed
    # The summary covers completed cases only.
    assert _format_table(results) == _format_table([ok])


def test_save_load_roundtrip(tiny_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(tiny_model, path)
    loaded = load_model(path)
    assert loaded.problem_id == "burgers"
    assert loaded.problem_options == TINY
    assert loaded.provenance == tiny_model.provenance
    assert np.array_equal(loaded.expansion.centers, tiny_model.expansion.centers)
    assert np.array_equal(
        loaded.expansion.coefficients, tiny_model.expansion.coefficients
    )
    assert loaded.expansion.epsilon == tiny_model.epsilon
    assert loaded.diagnostics is None  # training traces are not persisted


def test_load_model_error_paths(tiny_model, tmp_path):
    with pytest.raises(ModelLoadError, match="cannot read"):
        load_model(tmp_path / "missing.json")

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    with pytest.raises(ModelLoadError, match="cannot read"):
        load_model(garbage)

    path = tmp_path / "model.json"
    save_model(tiny_model, path)
    raw = json.loads(path.read_text())

    wrong = dict(raw, format_version=99)
    path.write_text(json.dumps(wrong))
    with pytest.raises(ModelLoadError, match="version"):
        load_model(path)

    broken = {k: v for k, v in raw.items() if k != "centers"}
    path.write_text(json.dumps(broken))
    with pytest.raises(ModelLoadError, match="malformed"):
        load_model(path)

    bad_eps = dict(raw, epsilon=-2.0)
    path.write_text(json.dumps(bad_eps))
    with pytest.raises(ModelLoadError, match="malformed"):
        load_model(path)

    # One non-finite number would fail every surrogate run at its first step.
    for key, value in (("coefficients", float("nan")), ("centers", float("inf"))):
        rows = [list(row) for row in raw[key]]
        rows[0][0] = value
        path.write_text(json.dumps(dict(raw, **{key: rows})))
        with pytest.raises(ModelLoadError, match="malformed.*must be finite"):
            load_model(path)

    # The problem is built at load time: bad options or a dimension mismatch
    # fail here, not when the model is first used.
    for options in ({**TINY, "foo": 1}, {**TINY, "cells": 16.0}, {**TINY, "cells": 8}):
        path.write_text(json.dumps(dict(raw, problem_options=options)))
        with pytest.raises(ModelLoadError, match="malformed"):
            load_model(path)
    path.write_text(json.dumps(dict(raw, problem_id="nonexistent")))
    with pytest.raises(ModelLoadError, match="unknown problem"):
        load_model(path)


def test_load_model_rejects_normalized_inputs(tiny_model, tmp_path):
    path = tmp_path / "model.json"
    save_model(tiny_model, path)
    raw = json.loads(path.read_text())
    assert "normalization" not in raw
    dim = tiny_model.expansion.input_dim
    raw["normalization"] = {"offsets": [0.0] * dim, "scales": [1.0] * dim}
    path.write_text(json.dumps(raw))
    with pytest.raises(ModelLoadError, match="normalized inputs"):
        load_model(path)


def test_load_model_reads_files_with_null_normalization(tiny_model, tmp_path):
    """Files that record ``"normalization": null`` (the earlier layout of
    format version 1) load and predict bit for bit."""
    path = tmp_path / "model.json"
    save_model(tiny_model, path)
    raw = json.loads(path.read_text())
    raw["provenance"]["normalize_inputs"] = False
    earlier = {k: v for k, v in raw.items() if k != "provenance"}
    earlier.update(normalization=None, provenance=raw["provenance"])
    path.write_text(json.dumps(earlier, indent=1))
    loaded = load_model(path)
    assert loaded.provenance == raw["provenance"]
    x = np.random.default_rng(5).uniform(0.0, 3.5, size=(20, tiny_model.expansion.input_dim))
    x[:, 0] = 0.05
    assert np.array_equal(loaded.predict(x), tiny_model.predict(x))
    assert np.array_equal(loaded.expansion.coefficients, tiny_model.expansion.coefficients)
