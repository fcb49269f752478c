"""Offline/online pipeline: data assembly, training, benchmarking, persistence."""

import json
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from flowcast import pipeline
from flowcast.burgers import BurgersGrid
from flowcast.cli import ExperimentConfig, _format_table
from flowcast.greedy import TrainConfig
from flowcast.kernels import GaussianKernel, KernelExpansion
from flowcast.model_selection import CvConfig, select_epsilon
from flowcast.ode import (
    NewtonConfig,
    NewtonStats,
    Trajectory,
    ie_step,
    integrate,
    integrate_many,
    surrogate_initializer,
)
from flowcast.pipeline import (
    OfflineConfig,
    assemble_training_set,
    build_training_data,
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
    stats = [NewtonStats(1, 0.0, "converged", 1.0)] * n
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


def test_assemble_training_set_deduplicates_by_value():
    # -0 and +0 are one value: the repeat is dropped, the first occurrence
    # (with its sign) kept in place, and the order of the rest kept.
    a = fake_trajectory(0.1, [[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    b = fake_trajectory(0.1, [[5.0, 1.0], [2.0, -0.0], [3.0, 0.0], [4.0, 0.0]])
    data = assemble_training_set([a, b])
    assert data.inputs.tolist() == [[0.1, 1.0, 0.0], [0.1, 2.0, 0.0], [0.1, 5.0, 1.0],
                                    [0.1, 3.0, 0.0]]
    assert not np.signbit(data.inputs).any()
    assert data.targets.tolist() == [[2.0, 0.0], [3.0, 0.0], [2.0, -0.0], [4.0, 0.0]]
    c = fake_trajectory(0.1, [[2.0, -0.0], [3.0, 1e-6]])
    with pytest.raises(ValueError, match="repeats"):
        assemble_training_set([a, c])


def test_training_cases_with_signed_zero_parameters():
    # (3.4, 0.0) and (3.4, -0.0) give trajectories equal in value; kept
    # twice, their inputs used to fail TrainingSet's distinctness check.
    cfg = OfflineConfig(cases=[((3.4, 0.0), 0.05), ((3.4, -0.0), 0.05)], horizon=0.5,
                        problem_options=dict(cells=20), epsilon=0.3)
    data, n_before = build_training_data(cfg)
    assert (n_before, data.size) == (20, 10)
    alone = integrate(build_problem("burgers", cells=20), (3.4, 0.0), 0.05, 0.5)
    assert data.targets.tobytes() == alone.states[1:].tobytes()


def test_build_training_data_keeps_case_order():
    # Step sizes interleaved in the cases: each step size integrates as one
    # stack, and the pairs come out in case order, bit for bit those of
    # integrating each case alone.
    cases = [((3.4, 0.2), 0.1), ((3.0, 0.4), 0.05), ((3.6, 0.0), 0.1), ((3.4, 0.2), 0.05),
             ((3.2, 0.1), 0.1)]
    cfg = OfflineConfig(cases=cases, horizon=0.5, problem_options=TINY, epsilon=0.3)
    data, n_before = build_training_data(cfg)
    problem = build_problem("burgers", **TINY)
    want = assemble_training_set([integrate(problem, mu, dt, 0.5) for mu, dt in cases])
    assert n_before == 5 + 10 + 5 + 10 + 5
    assert data.inputs.tobytes() == want.inputs.tobytes()
    assert data.targets.tobytes() == want.targets.tobytes()


def test_assemble_training_set_detects_inconsistency():
    a = fake_trajectory(0.1, [[0.0], [1.0]])
    b = fake_trajectory(0.1, [[0.0], [1.0 + 1e-6]])
    with pytest.raises(ValueError, match="repeats"):
        assemble_training_set([a, b])
    with pytest.raises(ValueError, match="at least one trajectory"):
        assemble_training_set([])
    with pytest.raises(ValueError, match="every trajectory must contain at least one step"):
        assemble_training_set([a, fake_trajectory(0.1, [[0.0]])])


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
        with pytest.raises(ValueError, match=r"two components .*\(case mu=\("):
            tiny_config(cases=cases)
    # The greedy settings are checked when the config is built, before any
    # training integration runs.
    for bad in (0, -3, 1.5):
        with pytest.raises(ValueError, match="max_centers must be an integer >= 1 or None"):
            tiny_config(max_centers=bad)
    for bad in (-1e-12, np.inf, np.nan):
        with pytest.raises(ValueError, match="tolerance must be a real number >= 0"):
            tiny_config(tolerance=bad)
    assert tiny_config(max_centers=None, tolerance=0.0).max_centers is None
    assert tiny_config(max_centers=np.int64(3)).max_centers == 3
    assert tiny_config().cases == (((3.4, 0.2), 0.05),)


@pytest.mark.parametrize("setting, value", [
    ("cv", None), ("cv", {"folds": 2}), ("newton", None), ("newton", {"max_iterations": 5}),
], ids=["cv-none", "cv-dict", "newton-none", "newton-dict"])
def test_offline_config_refuses_settings_of_the_wrong_type(setting, value):
    # The nested settings are their config classes, refused by name when the
    # config is built, before anything integrates.
    cls = {"cv": "CvConfig", "newton": "NewtonConfig"}[setting]
    with pytest.raises(ValueError, match=f"^{setting} must be a {cls}, got {re.escape(repr(value))}$"):
        tiny_config(**{setting: value})


def test_offline_produces_working_surrogate(tiny_model):
    prov = tiny_model.provenance
    assert prov["n_training_before_dedup"] == 20
    assert prov["n_training"] <= 20
    assert prov["epsilon"] == 0.3  # fixed, not chosen by cross validation
    assert "best_score" not in prov["cv"]
    assert prov["greedy_status"] in ("tolerance", "max_centers")
    assert tiny_model.expansion.output_dim == 16
    assert tiny_model.expansion.input_dim == 17
    assert tiny_model.expansion.epsilon == 0.3
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
    assert model.provenance["epsilon"] is None  # chosen by cross validation
    assert model.provenance["cv"]["grid_size"] == 5
    assert model.provenance["cv"]["best_score"] == model.cv.scores[model.cv.best_index]
    assert model.expansion.epsilon in model.cv.grid


def test_cv_folds_train_within_the_center_budget():
    # A budget below the CV cap bounds every fold: the curve is the one a
    # direct search at that budget gives, not the one at the CV cap.
    cfg = tiny_config(
        epsilon=None, max_centers=8,
        cv=CvConfig(epsilon_min=1e-3, epsilon_max=1.0, grid_size=5, folds=3, max_centers=15),
    )
    model = offline(cfg)
    data, _ = build_training_data(cfg)
    direct = select_epsilon(data, cfg.cv, tolerance=cfg.tolerance, max_centers=cfg.max_centers)
    assert model.cv.scores.tobytes() == direct.scores.tobytes()
    uncapped = select_epsilon(data, cfg.cv, tolerance=cfg.tolerance, max_centers=None)
    assert not np.array_equal(model.cv.scores, uncapped.scores)


def test_provenance_is_the_config():
    """The provenance is the config that trained the model plus the outcome
    of the run, so the config can be rebuilt from it, every field included."""
    cfg = tiny_config(
        epsilon=None,
        cv=CvConfig(epsilon_min=1e-3, epsilon_max=1.0, grid_size=3, folds=2, seed=4,
                    max_centers=12),
        tolerance=1e-10,
        newton=NewtonConfig(tolerance=1e-13, max_iterations=50),
    )
    model = offline(cfg)
    record = json.loads(json.dumps(model.provenance))
    outcome = {key: record.pop(key)
               for key in ("n_training_before_dedup", "n_training", "greedy_status")}
    assert outcome["greedy_status"] == model.diagnostics.status
    assert record["cv"].pop("best_score") == float(np.min(model.cv.scores))
    record.update(cv=CvConfig(**record["cv"]), newton=NewtonConfig(**record["newton"]))
    assert OfflineConfig(**record) == cfg
    assert model.newton() == cfg.newton


def test_offline_refuses_non_json_options_before_integrating(monkeypatch):
    # A Fraction is a real number to the problem, but JSON cannot hold it:
    # the config refuses it, naming the option, before anything integrates.
    monkeypatch.setattr(pipeline, "build_training_data", lambda cfg: pytest.fail("integrated"))
    with pytest.raises(ValueError, match="problem option 'half_width': .*JSON serializable"):
        tiny_config(problem_options={**TINY, "half_width": Fraction(5)})


@pytest.mark.parametrize("overrides, path", [
    (dict(max_centers=np.int64(3)), ("max_centers",)),
    (dict(problem_options={**TINY, "cells": np.int64(12)}), ("problem_options", "cells")),
    (dict(newton=NewtonConfig(max_iterations=np.int64(50))), ("newton", "max_iterations")),
    (dict(cv=CvConfig(seed=np.int64(3))), ("cv", "seed")),
], ids=["max_centers", "cells", "max_iterations", "cv_seed"])
def test_numpy_integer_settings_train_and_save(overrides, path, tmp_path):
    # A numpy integer is an integer setting; the config keeps it as a plain
    # int, so the JSON provenance can hold it.
    model = offline(tiny_config(**overrides))
    save_model(model, tmp_path / "model.json")
    for provenance in (model.provenance, load_model(tmp_path / "model.json").provenance):
        value = provenance
        for key in path:
            value = value[key]
        assert type(value) is int and value in (3, 12, 50)


def test_offline_reports_failing_case():
    cfg = tiny_config(newton=NewtonConfig(max_iterations=1))
    with pytest.raises(ValueError, match="mu="):
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
    # A training step size matches exactly, as training groups its cases.
    _, dt_in_training = online(tiny_model, (3.4, 0.2), np.nextafter(0.05, 1.0), 0.5)
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


def test_compare_cases_runs_keep_their_own_guess_memory(tiny_model, monkeypatch):
    # compare_cases reuses one surrogate initializer for every case and
    # repetition; each run must still guess as a run of its own does.
    runs = []

    def recording_integrate(problem, mu, dt, T, newton, initializer):
        runs.append(integrate(problem, mu, dt, T, newton, initializer))
        return runs[-1]

    monkeypatch.setattr(pipeline, "integrate", recording_integrate)
    cases = [((3.0, 0.4), 0.05), ((3.4, 0.2), 0.05)]
    compare_cases(tiny_model, cases, 0.5, repetitions=2)
    surrogate = [t for t in runs if t.initializer == "surrogate"]
    assert len(surrogate) == 4
    problem, newton = tiny_model.build_problem(), tiny_model.newton()
    for got, (mu, dt) in zip(surrogate, [case for case in cases for _ in range(2)]):
        want = integrate(problem, mu, dt, 0.5, newton, surrogate_initializer(tiny_model.predict))
        assert got.completed and want.completed
        assert got.states.tobytes() == want.states.tobytes()
        assert got.newton_stats == want.newton_stats


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
    raw = json.loads(path.read_text())
    assert list(raw) == ["format_version", "input_dim", "output_dim", "epsilon", "centers",
                         "coefficients", "provenance"]
    assert raw["format_version"] == 2
    loaded = load_model(path)
    assert loaded.provenance["problem"] == "burgers"
    assert loaded.provenance["problem_options"] == TINY
    assert loaded.provenance == tiny_model.provenance
    assert np.array_equal(loaded.expansion.centers, tiny_model.expansion.centers)
    assert np.array_equal(
        loaded.expansion.coefficients, tiny_model.expansion.coefficients
    )
    assert loaded.expansion.epsilon == tiny_model.expansion.epsilon
    assert loaded.diagnostics is None  # training traces are not persisted


def test_loaded_model_guesses_bit_for_bit_as_the_trained_one(tiny_model, tmp_path):
    # Single points and (1, p) batches take a matrix-vector kernel whose
    # rounding depends on the coefficients' memory layout.
    path = tmp_path / "model.json"
    save_model(tiny_model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = np.r_[0.05, rng.uniform(0.0, 3.5, tiny_model.expansion.input_dim - 1)]
        for point in (x, x[None]):
            assert tiny_model.predict(point).tobytes() == loaded.predict(point).tobytes()
    trained, _ = online(tiny_model, (3.4, 0.2), 0.05, 1.0)
    reloaded, dt_in_training = online(loaded, (3.4, 0.2), 0.05, 1.0)
    assert trained.completed and reloaded.completed and dt_in_training is True
    assert trained.states.tobytes() == reloaded.states.tobytes()
    assert trained.newton_stats == reloaded.newton_stats


def test_load_model_error_paths(tiny_model, tmp_path):
    # A file that cannot be opened raises the OS's own error, which names it.
    with pytest.raises(FileNotFoundError, match="missing.json"):
        load_model(tmp_path / "missing.json")

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    with pytest.raises(ValueError, match="cannot read"):
        load_model(garbage)

    path = tmp_path / "model.json"
    save_model(tiny_model, path)
    raw = json.loads(path.read_text())

    wrong = dict(raw, format_version=99)
    path.write_text(json.dumps(wrong))
    with pytest.raises(ValueError, match="version"):
        load_model(path)

    broken = {k: v for k, v in raw.items() if k != "centers"}
    path.write_text(json.dumps(broken))
    with pytest.raises(ValueError, match="malformed"):
        load_model(path)

    bad_eps = dict(raw, epsilon=-2.0)
    path.write_text(json.dumps(bad_eps))
    with pytest.raises(ValueError, match="malformed"):
        load_model(path)

    # One non-finite number would fail every surrogate run at its first step.
    for key, value in (("coefficients", float("nan")), ("centers", float("inf"))):
        rows = [list(row) for row in raw[key]]
        rows[0][0] = value
        path.write_text(json.dumps(dict(raw, **{key: rows})))
        with pytest.raises(ValueError, match="malformed.*must be finite"):
            load_model(path)

    # The problem and the Newton settings are built at load time: bad options
    # or a dimension mismatch fail here, not when the model is first used.
    prov = raw["provenance"]
    for record in ({"problem_options": {**TINY, "foo": 1}},
                   {"problem_options": {**TINY, "cells": 16.0}},
                   {"problem_options": {**TINY, "cells": 8}},
                   {"newton": {"tolerance": 0.0}},
                   {"newton": {"max_iterations": 1.5}},
                   {"newton": {"foo": 1}}):
        path.write_text(json.dumps(dict(raw, provenance={**prov, **record})))
        with pytest.raises(ValueError, match="malformed"):
            load_model(path)
    path.write_text(json.dumps(dict(raw, provenance={**prov, "problem": "nonexistent"})))
    with pytest.raises(ValueError, match="unknown problem"):
        load_model(path)
    path.write_text(json.dumps({k: v for k, v in raw.items() if k != "provenance"}))
    with pytest.raises(ValueError, match="malformed.*provenance"):
        load_model(path)


@pytest.mark.parametrize("cases", [[], [[[3.4, 0.2], "0.05"]], [[[3.4, 0.2], -1.0]],
                                   [["abc", 0.05]]],
                         ids=["empty", "string_dt", "negative_dt", "string_mu"])
def test_load_model_checks_the_recorded_cases(tiny_model, tmp_path, cases):
    # The recorded cases pass the case rule against the recorded problem and
    # horizon, as the config that trained the model did.
    path = tmp_path / "model.json"
    save_model(tiny_model, path)
    raw = json.loads(path.read_text())
    path.write_text(json.dumps(dict(raw, provenance={**raw["provenance"], "cases": cases})))
    with pytest.raises(ValueError, match="malformed model file "):
        load_model(path)


def test_load_model_rejects_normalized_inputs(tiny_model, tmp_path):
    """A format-2 file never holds a ``normalization``; one that does is
    refused rather than run on raw inputs with the rescaling dropped."""
    path = tmp_path / "model.json"
    save_model(tiny_model, path)
    raw = json.loads(path.read_text())
    assert "normalization" not in raw
    dim = tiny_model.expansion.input_dim
    raw["normalization"] = {"offsets": [0.0] * dim, "scales": [1.0] * dim}
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=r"malformed.*unexpected keys \['normalization'\]"):
        load_model(path)


def test_load_model_refuses_format_1(tiny_model, tmp_path):
    """Format 1 stored the problem at the top level and in the provenance,
    under other provenance names; such a file is refused, not guessed at."""
    path = tmp_path / "model.json"
    save_model(tiny_model, path)
    raw = json.loads(path.read_text())
    prov = raw["provenance"]
    old = {"format_version": 1, "problem_id": prov["problem"],
           "problem_options": prov["problem_options"],
           **{k: raw[k] for k in ("input_dim", "output_dim", "epsilon", "centers",
                                  "coefficients")},
           "normalization": None, "provenance": prov}
    path.write_text(json.dumps(old))
    with pytest.raises(ValueError, match=r"^unsupported model format version 1 "
                                         r"\(this build reads 2\); retrain the model"):
        load_model(path)


def burgers_step(dt):
    problem = build_problem("burgers", **TINY)
    return ie_step(problem, problem.initial_value(np.array([3.4, 0.2])), (3.4, 0.2), dt)


def burgers_run(dt, T):
    return integrate(build_problem("burgers", **TINY), (3.4, 0.2), dt, T)


REAL_SETTINGS = {
    "GaussianKernel epsilon": GaussianKernel,
    "KernelExpansion epsilon": lambda v: KernelExpansion(np.zeros((1, 2)), np.ones((1, 1)), v),
    "TrainConfig epsilon": TrainConfig,
    "TrainConfig tolerance": lambda v: TrainConfig(1.0, tolerance=v),
    "NewtonConfig tolerance": lambda v: NewtonConfig(tolerance=v),
    "CvConfig epsilon_min": lambda v: CvConfig(epsilon_min=v),
    "CvConfig epsilon_max": lambda v: CvConfig(epsilon_max=v),
    "BurgersGrid half_width": lambda v: BurgersGrid(10, v),
    "OfflineConfig epsilon": lambda v: tiny_config(epsilon=v),
    "OfflineConfig tolerance": lambda v: tiny_config(tolerance=v),
    "ie_step dt": burgers_step,
    "integrate dt": lambda v: burgers_run(v, 1.0),
    "integrate T": lambda v: burgers_run(0.05, v),
}


@pytest.mark.parametrize("value", [True, "0.3"])
@pytest.mark.parametrize("setting", sorted(REAL_SETTINGS))
def test_real_settings_refuse_bool_and_string(setting, value):
    with pytest.raises(ValueError, match="must be a real number"):
        REAL_SETTINGS[setting](value)


@pytest.mark.parametrize("value", [True, "2", 1.5])
def test_repetitions_are_an_integer(tiny_model, value):
    with pytest.raises(ValueError, match="repetitions must be an integer >= 1"):
        compare_cases(tiny_model, [((3.4, 0.2), 0.05)], 0.5, repetitions=value)


# Every way a (mu, dt) case enters the package, each given a model trained
# with T = 1 and a list of cases of the tiny problem. integrate takes one
# case; integrate_many takes one step size for all its parameters, the last
# case's.
CASE_USERS = {
    "OfflineConfig": lambda model, cases: tiny_config(cases=cases),
    "integrate": lambda model, cases: integrate(model.build_problem(), *cases[0], 1.0),
    "integrate_many": lambda model, cases: integrate_many(
        model.build_problem(), [mu for mu, _ in cases], cases[-1][1], 1.0),
    "compare_cases": lambda model, cases: compare_cases(model, cases, 1.0),
    "ExperimentConfig": lambda model, cases: ExperimentConfig(tiny_config(), cases, 1.0, 1),
}


@pytest.mark.parametrize("mu", [("3.4", "0.2"), (True, 0.2), (3.4, np.inf), "3.4", [[3.4, 0.2]]],
                         ids=["strings", "bool", "inf", "string", "nested"])
@pytest.mark.parametrize("user", sorted(CASE_USERS))
def test_parameters_are_finite_real_numbers(tiny_model, user, mu):
    with pytest.raises(ValueError, match="mu must be a finite real number or a 1-d sequence"):
        CASE_USERS[user](tiny_model, [(mu, 0.05)])


@pytest.mark.parametrize("dt", [True, "0.05", 0.0])
@pytest.mark.parametrize("user", sorted(CASE_USERS))
def test_step_sizes_are_real_numbers(tiny_model, user, dt):
    with pytest.raises(ValueError, match="dt must be a real number > 0"):
        CASE_USERS[user](tiny_model, [((3.4, 0.2), dt)])


@pytest.mark.parametrize("bad, message", [
    (((3.4, 0.2, 1.0), 0.05),
     r"mu must have two components \(u_l, u_r\), got 3 \(case mu=\(3\.4, 0\.2, 1\.0\), "
     r"dt=0\.05\)"),
    # integrate_many takes this dt for both parameters, so its first case fails.
    (((3.4, 0.2), 0.07),
     r"horizon T=1\.0 is not an integer multiple of dt=0\.07 \(case mu=\(3\.[04], 0\.[42]\), "
     r"dt=0\.07\)"),
], ids=["mu", "dt"])
@pytest.mark.parametrize("user", sorted(set(CASE_USERS) - {"integrate"}))
def test_a_bad_later_case_is_refused_before_anything_integrates(tiny_model, step_calls, user,
                                                                 bad, message):
    with pytest.raises(ValueError, match=message):
        CASE_USERS[user](tiny_model, [((3.0, 0.4), 0.05), bad])
    assert step_calls == []


def test_baseline_and_surrogate_agree_whenever_both_complete():
    # Invariant 1 on seeded parameters of a 12-cell model trained on a box:
    # inside the box, and far outside it, where the state is large enough
    # that the residual of some runs plateaus above the Newton tolerance and
    # both initializers fail (3 of 8 off-box parameters complete at dt = 0.05,
    # none at 0.25).
    corners = [(3.2, 0.0), (3.2, 0.4), (3.6, 0.0), (3.6, 0.4)]
    model = offline(OfflineConfig(cases=[(mu, 0.05) for mu in corners], horizon=0.5,
                                  problem_options={"cells": 12}, epsilon=0.3, max_centers=40))
    rng = np.random.default_rng(22)
    mus = [tuple(mu) for mu in np.concatenate([rng.uniform([3.2, 0.0], [3.6, 0.4], (4, 2)),
                                               rng.uniform(-40.0, 40.0, (8, 2))])]
    results = compare_cases(model, [(mu, dt) for dt in (0.05, 0.25) for mu in mus], 1.0)
    both = [r for r in results if r.baseline.completed and r.surrogate.completed]
    assert 0 < len(both) < len(results)
    for r in both:
        assert r.baseline.n_steps == r.surrogate.n_steps
        assert np.max(np.abs(r.baseline.final_state - r.surrogate.final_state)) <= 1e-10


@pytest.mark.parametrize("key, value, message", [
    ("input_dim", 17.7, "input_dim must be an integer >= 1, got 17.7"),  # once read as 17
    ("input_dim", True, "input_dim must be an integer >= 1, got True"),
    ("output_dim", "16", "output_dim must be an integer >= 1, got '16'"),
    ("epsilon", "0.3", "epsilon must be a real number > 0, got '0.3'"),  # once read as 0.3
    ("epsilon", True, "epsilon must be a real number > 0, got True"),
])
def test_load_model_checks_scalars_without_coercing(tiny_model, tmp_path, key, value, message):
    path = tmp_path / "model.json"
    save_model(tiny_model, path)
    raw = json.loads(path.read_text())
    path.write_text(json.dumps(dict(raw, **{key: value})))
    with pytest.raises(ValueError, match=f"malformed model file .*: {message}"):
        load_model(path)


@pytest.mark.parametrize("key, entry", [("centers", "0.5"), ("centers", True),
                                        ("coefficients", None), ("coefficients", False)])
def test_load_model_refuses_entries_that_are_not_real(tiny_model, tmp_path, key, entry):
    path = tmp_path / "model.json"
    save_model(tiny_model, path)
    raw = json.loads(path.read_text())
    rows = [list(row) for row in raw[key]]
    rows[-1][-1] = entry
    path.write_text(json.dumps(dict(raw, **{key: rows})))
    with pytest.raises(ValueError, match=re.escape(f"{key} must hold real numbers only, "
                                                   f"got {entry!r}")):
        load_model(path)
    # Once read as numbers: every center a string and the first coefficient true.
    raw["centers"] = [[repr(v) for v in row] for row in raw["centers"]]
    raw["coefficients"][0][0] = True
    path.write_text(json.dumps(raw))
    with pytest.raises(ValueError, match=r"malformed model file .*: centers must hold "
                                         r"real numbers only, got '"):
        load_model(path)
