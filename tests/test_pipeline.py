"""Offline/online pipeline: data assembly, training, benchmarking, persistence."""

import json

import numpy as np
import pytest

from flowcast.greedy import SelectionRule
from flowcast.model_selection import CvConfig
from flowcast.ode import NewtonConfig, NewtonStats, Trajectory, integrate
from flowcast.pipeline import (
    DataInconsistencyError,
    ModelLoadError,
    Normalization,
    OfflineConfig,
    OfflineError,
    SurrogateModel,
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
    stats = [NewtonStats(1, 0.0, True, 1.0)] * n
    return Trajectory(
        mu=np.array([0.0]),
        dt=dt,
        times=dt * np.arange(n + 1),
        states=states,
        newton_stats=stats,
    )


def test_normalization_fit_apply():
    inputs = np.array([[0.0, 10.0], [2.0, 30.0], [1.0, 20.0]])
    norm = Normalization.fit(inputs)
    mapped = norm.apply(inputs)
    assert np.allclose(mapped.min(axis=0), 0.0)
    assert np.allclose(mapped.max(axis=0), 1.0)


def test_normalization_keeps_near_constant_coordinates_inert():
    inputs = np.array([[5.0, 1.0], [5.0 + 1e-13, 2.0]])
    norm = Normalization.fit(inputs)
    assert norm.scales[0] == 1.0  # a span at round-off must not be amplified
    assert norm.scales[1] == 1.0
    assert np.allclose(norm.apply(inputs)[:, 0], [0.0, 1e-13])


def test_normalization_validation():
    with pytest.raises(ValueError, match="positive"):
        Normalization(np.zeros(2), np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="equal length"):
        Normalization(np.zeros(2), np.ones(3))


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
    cfg = tiny_config(rule="p")
    assert cfg.rule is SelectionRule.P_GREEDY
    assert cfg.cases == (((3.4, 0.2), 0.05),)


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


def test_build_training_data_normalizes():
    data, norm, n_before, problem = build_training_data(tiny_config(normalize_inputs=True))
    assert n_before == 20
    assert problem.dim == 16
    assert norm is not None
    assert data.inputs.min() >= -1e-12
    assert data.inputs.max() <= 1.0 + 1e-12


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
    report = compare_cases(tiny_model, [((3.4, 0.2), 0.05), ((3.0, 0.4), 0.05)], 0.5)
    assert len(report.rows) == 2
    assert not report.failures
    row = report.rows[0]
    assert row.mu == (3.4, 0.2)
    assert row.iter_old > 0 and row.iter_vkoga > 0
    assert row.gain_iter_pct == percent_gain(row.iter_old, row.iter_vkoga)
    agg = report.aggregates()
    assert set(agg) == {"mean", "min", "max"}
    assert agg["mean"]["gain_iter_pct"] == pytest.approx(report.mean_gain_iter_pct)
    assert agg["min"]["label"].startswith("mu=")
    assert report.min_row.gain_iter_pct <= report.max_row.gain_iter_pct
    with pytest.raises(ValueError, match="repetitions"):
        compare_cases(tiny_model, [((3.4, 0.2), 0.05)], 0.5, repetitions=0)


def test_compare_cases_labels_by_dt_when_dts_vary(tiny_model):
    report = compare_cases(
        tiny_model, [((3.4, 0.2), 0.05), ((3.4, 0.2), 0.025)], 0.5
    )
    assert len(report.rows) == 2
    assert report.aggregates()["min"]["label"].startswith("dt=")


def test_compare_keeps_trajectories_on_request(tiny_model):
    report = compare_cases(tiny_model, [((3.4, 0.2), 0.05)], 0.5, keep_trajectories=True)
    t_old, t_new = report.rows[0].trajectories
    assert t_old.initializer == "previous"
    assert t_new.initializer == "surrogate"
    plain = compare_cases(tiny_model, [((3.4, 0.2), 0.05)], 0.5)
    assert plain.rows[0].trajectories is None


def test_compare_excludes_failures_with_warning(tiny_model):
    with pytest.warns(RuntimeWarning, match="excluded"):
        report = compare_cases(
            tiny_model, [((3.4, 0.2), 0.05)], 0.5,
            newton=NewtonConfig(max_iterations=1),
        )
    assert not report.rows
    assert len(report.failures) == 1
    assert not report.failures[0].completed
    with pytest.raises(ValueError, match="no successful cases"):
        report.aggregates()


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
    assert loaded.normalization is None
    assert loaded.diagnostics is None  # training traces are not persisted


def test_save_load_preserves_normalization(tmp_path):
    model = offline(tiny_config(normalize_inputs=True))
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    assert np.array_equal(loaded.normalization.offsets, model.normalization.offsets)
    assert np.array_equal(loaded.normalization.scales, model.normalization.scales)
    x = np.concatenate(([0.05], np.linspace(0.2, 3.4, 16)))
    assert np.array_equal(loaded.predict(x), model.predict(x))


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


def test_surrogate_model_validates_normalization(tiny_model):
    with pytest.raises(ValueError, match="normalization length"):
        SurrogateModel(
            expansion=tiny_model.expansion,
            problem_id="burgers",
            normalization=Normalization(np.zeros(3), np.ones(3)),
        )
