"""Newton solver, implicit Euler stepping, initializers, trajectories."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from flowcast.burgers import make_burgers_problem
from flowcast.ode import (
    PREVIOUS_VALUE,
    Initializer,
    IvpProblem,
    NewtonConfig,
    NewtonStats,
    _check_params,
    _failure,
    _ie_step_stack,
    _ie_system,
    _linear_solve,
    ie_step,
    integrate,
    integrate_many,
    newton_solve,
    surrogate_initializer,
)

from conftest import finite_difference_jacobian

EXPLICIT_EULER = Initializer("explicit-euler",
                             lambda p, u, mu, dt: u + dt * p.linearize(u, mu)[0])


def system(residual, jacobian):
    """A Newton system from a residual and a Jacobian, each a function of u."""
    return lambda u: (residual(u), lambda: jacobian(u))


def decay_problem():
    return IvpProblem(
        dim=1,
        linearize=lambda u, mu: (-u, lambda: -np.eye(1)),
        initial_value=lambda mu: np.ones(1),
    )


def test_newton_sqrt2():
    u, stats = newton_solve(
        system(lambda x: x * x - 2.0, lambda x: np.diag(2.0 * x)), np.array([1.0])
    )
    assert stats.converged
    assert abs(u[0] - np.sqrt(2.0)) < 1e-15
    assert stats.iterations <= 8  # quadratic convergence
    assert stats.final_residual_norm <= 1e-14
    assert stats.initializer_residual_norm == pytest.approx(1.0)


def test_newton_zero_iterations_on_exact_guess():
    u, stats = newton_solve(
        system(lambda x: x * x - 4.0, lambda x: np.diag(2.0 * x)), np.array([2.0])
    )
    assert stats.iterations == 0
    assert stats.converged
    assert u[0] == 2.0


SINGULAR_AT_0 = "linear solve failed at iteration 0: singular matrix"


def test_newton_singular_jacobian():
    u, stats = newton_solve(system(lambda x: x + 1.0, lambda x: np.zeros((1, 1))),
                            np.array([0.0]))
    assert stats == NewtonStats(0, 1.0, "singular", 1.0) and not stats.converged
    assert _failure(stats) == SINGULAR_AT_0 and u[0] == 0.0


def test_newton_singular_banded_jacobian():
    # A 1x1 system: solve_banded itself would divide by the zero pivot.
    for pivot in (0.0, np.inf, np.nan):
        ab = np.array([[0.0], [pivot], [0.0]])
        _, stats = newton_solve(system(lambda x: x + 1.0, lambda x: ab), np.array([0.0]),
                                bands=(1, 1))
        assert stats.status == "singular" and _failure(stats) == SINGULAR_AT_0
    # [[1, 1, 0], [1, 1, 0], [0, 0, 1]]: equal first two rows.
    ab = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    _, stats = newton_solve(system(lambda x: x + 1.0, lambda x: ab), np.zeros(3), bands=(1, 1))
    assert stats.status == "singular" and _failure(stats) == SINGULAR_AT_0


def test_tridiagonal_solve_matches_solve_banded(rng):
    # Random diagonally dominant tridiagonal systems, and the first Newton
    # system of a Burgers step from the previous state, once a shock has formed.
    systems = []
    for n in (1, 2, 3, 200):
        ab = rng.uniform(-1.0, 1.0, (3, n))
        ab[1] += np.sign(ab[1]) * 2.0
        ab[0, 0] = ab[2, -1] = 0.0
        systems.append((ab, rng.standard_normal(n)))
    problem = make_burgers_problem()
    mu = np.array([3.4, 0.2])
    u = integrate(problem, mu, 0.01, 0.5).final_state
    f, jacobian = problem.linearize(u, mu)
    ab = -0.01 * jacobian()
    ab[1] += 1.0
    systems.append((ab, 0.01 * f))
    for ab, b in systems:
        ab_before, b_before = ab.copy(), b.copy()
        got = _linear_solve(ab, b, (1, 1))
        want = solve_banded((1, 1), ab_before, b_before)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ab.tobytes() == ab_before.tobytes() and b.tobytes() == b_before.tobytes()


def assert_non_finite(stats, iterations):
    assert stats.status == "non-finite" and stats.iterations == iterations
    assert not np.isfinite(stats.final_residual_norm)
    assert _failure(stats) == ("residual norm of the starting guess is not finite"
                               if iterations == 0
                               else f"non-finite residual norm at iteration {iterations}")


def test_newton_divergence():
    _, stats = newton_solve(system(lambda x: x * np.inf, lambda x: np.eye(1)), np.array([1.0]))
    assert_non_finite(stats, 0)

    def residual(x):
        return np.array([np.nan]) if x[0] != 0.0 else np.array([1.0])

    _, stats = newton_solve(system(residual, lambda x: np.eye(1)), np.array([0.0]))
    assert_non_finite(stats, 1)

    # A non-finite band entry, like a non-finite dense one, gives a
    # non-finite step rather than a ValueError from the solver.
    ab = np.array([[0.0, 1.0, np.nan], [1.0, 2.0, 1.0], [1.0, 0.0, 0.0]])
    _, stats = newton_solve(system(lambda x: x + 1.0, lambda x: ab), np.zeros(3), bands=(1, 1))
    assert_non_finite(stats, 1)


def test_newton_residual_norm_overflow_raises():
    """Finite entries whose squares overflow give a non-finite 2-norm: the
    solve stops with status "non-finite", as on a non-finite entry."""
    _, stats = newton_solve(system(lambda x: np.full(3, 1e200), lambda x: np.eye(3)),
                            np.zeros(3))
    assert_non_finite(stats, 0)

    def residual(x):
        return np.full(3, 1e200) if x[0] != 0.0 else np.ones(3)

    _, stats = newton_solve(system(residual, lambda x: np.eye(3)), np.zeros(3))
    assert_non_finite(stats, 1)


def test_newton_residual_norm_is_numpy_norm(rng):
    cfg = NewtonConfig(max_iterations=1)
    for scale in (1e-15, 1.0, 1e150):
        r = scale * rng.standard_normal(200)
        _, stats = newton_solve(system(lambda x: r, lambda x: np.eye(200)), np.zeros(200), cfg)
        assert stats.initializer_residual_norm == np.linalg.norm(r)
        assert stats.final_residual_norm == np.linalg.norm(r)


def test_newton_iteration_cap_does_not_raise():
    # x^2 with root of multiplicity 2 converges linearly; one iteration
    # cannot reach 1e-14.
    u, stats = newton_solve(
        system(lambda x: x * x, lambda x: np.diag(2.0 * x)),
        np.array([1.0]),
        NewtonConfig(max_iterations=1),
    )
    assert not stats.converged
    assert stats.iterations == 1


def test_newton_config_validation():
    with pytest.raises(ValueError, match="tolerance"):
        NewtonConfig(tolerance=0.0)
    # An iteration cap is an integer: 2.5 would run 3 iterations and True 1.
    for bad in (0, 2.5, True, "3"):
        with pytest.raises(ValueError, match="max_iterations must be an integer >= 1"):
            NewtonConfig(max_iterations=bad)
    cap = NewtonConfig(max_iterations=np.int64(3)).max_iterations
    assert cap == 3 and type(cap) is int


def test_finite_difference_jacobian_matches_analytic(rng):
    def fn(u):
        return np.array([u[0] ** 2 + np.sin(u[1]), u[0] * u[1]])

    u = rng.random(2) + 0.5
    exact = np.array([[2 * u[0], np.cos(u[1])], [u[1], u[0]]])
    fd = finite_difference_jacobian(fn, u)
    assert np.max(np.abs(fd - exact)) < 1e-8


def test_problem_requires_jacobian():
    # The Jacobian comes with the right-hand side, from linearize: there is
    # no finite-difference fallback, and no separate rhs or jacobian.
    base = decay_problem()
    with pytest.raises(TypeError, match="linearize"):
        IvpProblem(dim=1, initial_value=base.initial_value)
    with pytest.raises(ValueError, match="linearize must be callable, got None"):
        IvpProblem(dim=1, linearize=None, initial_value=base.initial_value)
    for field in ("rhs", "jacobian"):
        with pytest.raises(TypeError, match=field):
            IvpProblem(dim=1, linearize=base.linearize, initial_value=base.initial_value,
                       **{field: base.linearize})
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            IvpProblem(dim=bad, linearize=base.linearize, initial_value=base.initial_value)


def test_problem_validates_jacobian_bands():
    base = decay_problem()
    # A band wider than the system is allowed (a 1-cell grid keeps (1, 1)).
    assert IvpProblem(dim=1, linearize=base.linearize, initial_value=base.initial_value,
                      jacobian_bands=(1, 1)).jacobian_bands == (1, 1)
    # Only dense or tridiagonal: a (2, 2) band must not be solved as (1, 1).
    ab = np.ones((5, 3))
    for bad in [(2, 2), (0, 0), (1, 2), (-1, 1), (1,), (1, 1, 1), 1, [1, 1]]:
        with pytest.raises(ValueError, match=r"None \(dense\) or \(1, 1\)"):
            IvpProblem(dim=3, linearize=base.linearize, initial_value=base.initial_value,
                       jacobian_bands=bad)
        with pytest.raises(ValueError, match=r"None \(dense\) or \(1, 1\)"):
            newton_solve(system(lambda x: x + 1.0, lambda x: ab), np.zeros(3), bands=bad)


def test_ie_step_banded_matches_dense():
    # u' = A u with a tridiagonal A, declared once as a band and once dense.
    ab = np.array([[0.0, 0.3, -0.2], [-1.0, -2.0, -0.5], [0.4, 0.1, 0.0]])
    u_prev = np.array([1.0, -2.0, 0.5])
    dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    common = dict(dim=3, initial_value=lambda mu: np.ones(3))
    banded = IvpProblem(linearize=lambda u, mu: (dense @ u, lambda: ab), jacobian_bands=(1, 1),
                        **common)
    full = IvpProblem(linearize=lambda u, mu: (dense @ u, lambda: dense), **common)
    stored, stored_dense = ab.copy(), dense.copy()
    got, got_stats = ie_step(banded, u_prev, [], 0.1)
    want, want_stats = ie_step(full, u_prev, [], 0.1)
    assert got_stats.iterations == want_stats.iterations
    closed_form = np.linalg.solve(np.eye(3) - 0.1 * dense, u_prev)
    assert np.allclose(got, closed_form, rtol=0, atol=1e-15)
    assert np.allclose(got, want, rtol=0, atol=1e-15)
    # Neither Jacobian is modified in place.
    assert np.array_equal(ab, stored) and np.array_equal(dense, stored_dense)


def test_builtin_initializers():
    problem = decay_problem()
    u = np.array([2.0])
    assert np.array_equal(PREVIOUS_VALUE(problem, u, [], 0.1), u)
    assert np.allclose(EXPLICIT_EULER(problem, u, [], 0.1), [1.8])


def test_initializer_shape_check():
    bad = Initializer("bad", lambda p, u, mu, dt: np.zeros(3))
    with pytest.raises(ValueError, match="returned shape"):
        bad(decay_problem(), np.ones(1), [], 0.1)


def test_surrogate_initializer_packs_dt_and_state():
    seen = {}

    def model(x):
        seen["input"] = x.copy()
        return x[1:] * 2.0

    init = surrogate_initializer(model)
    guess = init(decay_problem(), np.array([5.0]), [], 0.25)
    assert np.array_equal(seen["input"], [0.25, 5.0])
    assert np.array_equal(guess, [10.0])
    assert init.name == "surrogate"



def test_error_feedback_makes_an_offset_model_exact():
    # The "model" is the exact implicit Euler map of u' = A u plus a constant
    # offset. Newton needs one iteration from any guess of a linear step; the
    # previous step's error cancels the offset from the second step on, so
    # Newton starts there at the converged state.
    a = np.array([[-1.0, 0.5], [0.0, -2.0]])
    problem = IvpProblem(dim=2, linearize=lambda u, mu: (a @ u, lambda: a),
                         initial_value=lambda mu: np.array([1.0, -2.0]))
    step, offset = np.linalg.inv(np.eye(2) - 0.1 * a), np.array([0.3, -0.2])

    def model(x):
        return step @ x[1:] + offset

    cfg = NewtonConfig(tolerance=1e-12)
    raw = integrate(problem, [], 0.1, 1.0, cfg,
                    Initializer("raw", lambda p, u, mu, dt: model(np.r_[dt, u])))
    corrected = integrate(problem, [], 0.1, 1.0, cfg, surrogate_initializer(model))
    assert [s.iterations for s in raw.newton_stats] == [1] * 10
    assert [s.iterations for s in corrected.newton_stats] == [1] + [0] * 9
    assert corrected.newton_stats[0] == raw.newton_stats[0]  # the first step is raw
    assert min(s.initializer_residual_norm for s in raw.newton_stats) > 0.1
    assert max(s.initializer_residual_norm for s in corrected.newton_stats[1:]) < 1e-15
    assert np.allclose(corrected.states, raw.states, rtol=0, atol=1e-15)


def test_error_feedback_starts_each_run_from_the_raw_prediction():
    def model(x):
        return 1.5 * x[1:]

    problem, init = decay_problem(), surrogate_initializer(model)
    guess = init.start()
    assert np.array_equal(guess(problem, np.array([2.0]), [], 0.1), [3.0])  # raw
    # The next step adds the last one's error: 1.5 * 1.0 + (1.0 - 3.0).
    assert np.array_equal(guess(problem, np.array([1.0]), [], 0.1), [-0.5])
    # A lone call, a new run and ie_step start from the raw prediction.
    assert np.array_equal(init(problem, np.array([1.0]), [], 0.1), [1.5])
    assert np.array_equal(init.start()(problem, np.array([1.0]), [], 0.1), [1.5])
    _, stats = ie_step(problem, np.array([1.0]), [], 0.1, None, init)
    assert stats.initializer_residual_norm == pytest.approx(0.65, rel=1e-15)
    assert PREVIOUS_VALUE.start() is PREVIOUS_VALUE  # no memory: its own guess function


def test_error_feedback_memory_stays_in_one_run():
    # One initializer serves runs one after another and the instances of a
    # stack; each run guesses as a run with a new initializer does.
    problem, mus = make_burgers_problem(cells=8), [(3.4, 0.2), (3.0, 0.4)]

    def model(x):
        return 1.01 * x[1:]

    fresh = [integrate(problem, mu, 0.1, 0.5, None, surrogate_initializer(model)) for mu in mus]
    assert all(t.completed and t.initializer == "surrogate" for t in fresh)
    shared = surrogate_initializer(model)
    for _ in range(2):
        for got, want in zip([integrate(problem, mu, 0.1, 0.5, None, shared) for mu in mus],
                             fresh):
            assert_same_runs(got, want)
        for got, want in zip(integrate_many(problem, mus, 0.1, 0.5, None, shared), fresh):
            assert_same_runs(got, want)
    # The memory is at work: the raw predictions start Newton elsewhere.
    raw = integrate(problem, mus[0], 0.1, 0.5, None,
                    Initializer("raw", lambda p, u, mu, dt: model(np.r_[dt, u])))
    assert raw.newton_stats[0] == fresh[0].newton_stats[0]
    assert raw.newton_stats[1:] != fresh[0].newton_stats[1:]


@pytest.mark.parametrize("increment, exact_from", [
    (lambda n: np.array([3.0, -2.0]), 2),  # constant: order 1
    (lambda n: np.array([3.0 + 2.0 * n, -1.0 - n]), 4),  # linear in n: order 2
    (lambda n: np.array([1.0 - n + n * n, 2.0 + 3.0 * n * n]), 5),  # quadratic: order 3
], ids=["constant", "linear", "quadratic"])
def test_error_feedback_extrapolates_at_the_order_that_fit_best(increment, exact_from):
    # With the identity as model, the surrogate's error at a step is the
    # state's increment there; integer states keep the arithmetic exact. An
    # order-k guess extrapolates the increments by a polynomial of degree
    # k - 1, and is chosen once the run is long enough to show that it fits.
    guess = surrogate_initializer(lambda x: x[1:]).start()
    u, exact = np.array([5.0, -7.0]), []
    for step in range(1, 12):
        following = u + increment(step)
        exact.append(np.array_equal(guess(decay_problem(), u, [], 0.1), following))
        u = following
    assert exact == [step >= exact_from for step in range(1, 12)]


def test_ie_step_linear_closed_form():
    # u' = -u: the implicit step has the exact solution u_prev / (1 + dt).
    u, stats = ie_step(decay_problem(), np.array([1.0]), [], 0.1)
    assert abs(u[0] - 1.0 / 1.1) < 1e-15
    assert stats.converged
    with pytest.raises(ValueError, match="dt"):
        ie_step(decay_problem(), np.array([1.0]), [], -0.1)


def test_ie_step_raises_on_no_convergence():
    # A step that does not converge is returned, not raised: its stats stop
    # at the cap, and they word the run's error.
    quadratic = IvpProblem(
        dim=1,
        linearize=lambda u, mu: (u * u, lambda: np.diag(2.0 * u)),
        initial_value=lambda mu: np.ones(1),
    )
    _, stats = ie_step(
        quadratic, np.array([1.0]), [], 0.1,
        NewtonConfig(max_iterations=1),
        Initializer("far", lambda p, u, mu, dt: u + 100.0),
    )
    assert stats.status == "cap" and stats.iterations == 1 and not stats.converged
    assert _failure(stats) == (f"step did not converge within 1 iterations "
                               f"(residual {stats.final_residual_norm:.3e})")


def test_integrate_geometric_decay():
    traj = integrate(decay_problem(), [], 0.1, 1.0)
    assert traj.completed
    assert traj.n_steps == 10
    assert traj.states.shape == (11, 1)
    assert np.allclose(traj.times, 0.1 * np.arange(11))
    assert traj.final_state[0] == pytest.approx((1 / 1.1) ** 10, rel=1e-12)
    assert traj.total_iterations == sum(s.iterations for s in traj.newton_stats)
    assert traj.mean_iterations == traj.total_iterations / 10
    assert traj.initializer == "previous"
    # The final state is a copy: keeping it does not keep every state alive.
    assert not np.shares_memory(traj.final_state, traj.states)
    assert np.array_equal(traj.final_state, traj.states[-1])


def test_check_params_reads_one_parameter_vector():
    assert _check_params([]) == ()  # a problem without parameters
    assert _check_params(3) == (3.0,)
    assert _check_params((3, np.float32(0.5), np.int64(-2))) == (3.0, 0.5, -2.0)
    assert _check_params(np.array([3.4, 0.2])) == (3.4, 0.2)
    assert _check_params(np.array(2.0)) == (2.0,)
    for bad in (True, "3.4", ("3.4", 0.2), (True, 0.2), np.array([True, False]), (np.nan,),
                (1.0, np.inf), 10**400, [[3.4, 0.2]], np.zeros((1, 2)), None, {1: 2}):
        with pytest.raises(ValueError, match="mu must be a finite real number or a 1-d "
                                             "sequence of them, got "):
            _check_params(bad)
    traj = integrate(decay_problem(), [], 0.1, 0.3)
    assert traj.completed and traj.mu.shape == (0,)


def test_integrate_rejects_bad_horizon():
    with pytest.raises(ValueError, match="integer multiple"):
        integrate(decay_problem(), [], 0.3, 1.0)
    with pytest.raises(ValueError, match="dt"):
        integrate(decay_problem(), [], 0.0, 1.0)


def test_integrate_zero_iteration_fixed_point():
    steady = IvpProblem(
        dim=2,
        linearize=lambda u, mu: (np.zeros(2), lambda: np.zeros((2, 2))),
        initial_value=lambda mu: np.array([1.0, -1.0]),
    )
    traj = integrate(steady, [], 0.1, 0.5)
    assert traj.total_iterations == 0
    assert all(s.iterations == 0 for s in traj.newton_stats)
    assert np.array_equal(traj.states[-1], traj.states[0])


def test_integrate_partial_trajectory_on_failure():
    # The quadratic blow-up problem u' = u^2 from u(0)=1 explodes at t=1;
    # with a tight iteration cap the step near blow-up fails.
    problem = IvpProblem(
        dim=1,
        linearize=lambda u, mu: (u * u, lambda: np.diag(2.0 * u)),
        initial_value=lambda mu: np.ones(1),
    )
    traj = integrate(problem, [], 0.25, 2.0, NewtonConfig(max_iterations=2))
    assert not traj.completed
    assert traj.error is not None and "step" in traj.error
    assert traj.states.shape[0] == traj.n_steps + 1
    assert traj.n_steps < 8


def test_integrate_validates_initial_shape():
    bad = IvpProblem(dim=2, linearize=lambda u, mu: (u, lambda: np.eye(2)),
                     initial_value=lambda mu: np.ones(3))
    with pytest.raises(ValueError, match="initial value"):
        integrate(bad, [], 0.1, 0.2)


# Stacked integration: several parameters of one step size advance as one
# stack, and each instance must read bit for bit as its run alone.


def assert_same_runs(got, want):
    assert got.completed == want.completed and got.error == want.error
    assert got.states.shape == want.states.shape
    assert got.states.tobytes() == want.states.tobytes()  # signs of zeros included
    assert got.times.tobytes() == want.times.tobytes()
    assert got.mu.tobytes() == want.mu.tobytes()
    # Equal dataclasses: iterations, both residual norms and the flag.
    assert got.newton_stats == want.newton_stats


def band_to_dense(ab):
    """(1, 1) band storage, alone or stacked, expanded to the dense matrix."""
    cells = ab.shape[-1]
    dense = np.zeros(ab.shape[:-2] + (cells, cells))
    i = np.arange(cells)
    dense[..., i, i] = ab[..., 1, :]
    dense[..., i[:-1], i[1:]] = ab[..., 0, 1:]
    dense[..., i[1:], i[:-1]] = ab[..., 2, :-1]
    return dense


def dense_burgers(cells):
    """Burgers with its band expanded to a dense (stacked) Jacobian."""
    banded = make_burgers_problem(cells=cells)

    def linearize(u, mu):
        f, jacobian = banded.linearize(u, mu)
        return f, lambda: band_to_dense(jacobian())

    return IvpProblem(dim=cells, linearize=linearize, initial_value=banded.initial_value)


def test_integrate_many_matches_single_runs_on_experiment2_corners():
    from flowcast.cli import load_experiment

    offline_cfg = load_experiment("experiment2").offline
    (dt,) = {dt for _, dt in offline_cfg.cases}
    mus = [mu for mu, _ in offline_cfg.cases]
    problem = make_burgers_problem(**offline_cfg.problem_options)
    stacked = integrate_many(problem, mus, dt, offline_cfg.horizon, offline_cfg.newton)
    for mu, got in zip(mus, stacked):
        assert got.completed
        assert_same_runs(got, integrate(problem, mu, dt, offline_cfg.horizon, offline_cfg.newton))


def test_integrate_many_matches_single_runs_with_dense_jacobian():
    # The systems of a dense stack are solved one at a time.
    problem = dense_burgers(20)
    mus = [(3.4, 0.2), (3.2, -0.0), (3.6, 0.4)]
    stacked = integrate_many(problem, mus, 0.05, 1.0)
    for mu, got in zip(mus, stacked):
        assert got.completed
        assert_same_runs(got, integrate(problem, mu, 0.05, 1.0))


def record_newton_solve(monkeypatch):
    """The (u, NewtonStats) result of every ``ode.newton_solve`` call from
    now on, as the benchmark's tracer reads it."""
    import flowcast.ode as ode

    results, solve = [], ode.newton_solve

    def recording_solve(*args, **kwargs):
        results.append(solve(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(ode, "newton_solve", recording_solve)
    return results


def assert_fails_alone_in_a_stack(monkeypatch, problem, mus, dt, T, cfg, failing, error):
    """The run of ``mus[failing]`` fails at the same step with the same error,
    states and stats in the stack as alone, and its partners' runs do not
    change. Returns the runs alone and the results of the ``newton_solve``
    calls the stacked run made."""
    with monkeypatch.context() as patch:
        solves = record_newton_solve(patch)
        stacked = integrate_many(problem, mus, dt, T, cfg)
    alone = [integrate(problem, mu, dt, T, cfg) for mu in mus]
    assert not alone[failing].completed and alone[failing].error.startswith(error)
    for got, want in zip(stacked, alone):
        assert_same_runs(got, want)
    return alone, solves


def test_stalled_instance_fails_alone_in_a_stack(monkeypatch):
    # (3.4, 0.2) at dt 0.1 stalls on Newton's round-off plateau: status "cap".
    # It leaves the stack by its residual norm, as a converged row does: no
    # linear solve failed, so the stack makes no lone newton_solve call.
    _, solves = assert_fails_alone_in_a_stack(
        monkeypatch, make_burgers_problem(), [(3.4, 0.2), (3.2, 0.0)], 0.1, 2.0, None, 0,
        "step 6: step did not converge within 100 iterations")
    assert solves == []


@pytest.mark.parametrize("bad, error, dense", [
    ("singular", f"step 1: {SINGULAR_AT_0}", False),
    ("nan", "step 1: non-finite residual norm at iteration 1", False),
    ("singular", f"step 1: {SINGULAR_AT_0}", True),
    ("nan", "step 1: non-finite residual norm at iteration 1", True),
], ids=["singular", "non-finite", "singular-dense", "non-finite-dense"])
def test_spoiled_instance_fails_alone_in_a_stack(monkeypatch, bad, error, dense):
    # At dt = 1 the spoiled system of tridiagonal_systems stops with status
    # "singular" or "non-finite" at its first step; its neighbours run on.
    problem, mus = tridiagonal_systems(bad, dense)
    alone, solves = assert_fails_alone_in_a_stack(
        monkeypatch, problem, mus, 1.0, 3.0, NewtonConfig(tolerance=1e-12), 1, error)
    assert alone[0].completed and alone[2].completed
    # A stacked solve that raises hands its step to newton_solve, one state
    # at a time; the later steps of the two partners stack again. A dense
    # stack solves each system alone, so its NaN system gives a non-finite
    # step that stops its row by the residual norm, with no solve raising.
    assert len(solves) == (0 if dense and bad == "nan" else len(mus))
    assert all(u.shape == (4,) and isinstance(stats, NewtonStats) for u, stats in solves)


def test_integrate_many_calls_initializer_per_instance():
    seen = []

    def previous(problem, u, mu, dt):
        seen.append((u.shape, tuple(mu)))
        return u

    mus = [(3.4, 0.2), (3.0, 0.4)]
    init = Initializer("recording", previous)
    trajectories = integrate_many(make_burgers_problem(cells=8), mus, 0.1, 0.2, None, init)
    assert seen == [((8,), mu) for mu in mus] * 2
    assert [t.initializer for t in trajectories] == ["recording"] * 2
    assert integrate_many(make_burgers_problem(cells=8), [], 0.1, 0.2) == []
    with pytest.raises(ValueError, match="mus must be iterable, got 5"):
        integrate_many(make_burgers_problem(cells=8), 5, 0.1, 0.2)


def test_single_instance_keeps_1d_calls(monkeypatch):
    # One instance runs unstacked: 1-d states reach the problem, and
    # newton_solve returns (u, NewtonStats), as the benchmark's tracer reads.
    import flowcast.burgers as burgers

    shapes, linearize = [], burgers.burgers_linearize

    def recording_linearize(u, mu, grid):
        shapes.append(np.shape(u))
        return linearize(u, mu, grid)

    monkeypatch.setattr(burgers, "burgers_linearize", recording_linearize)
    results = record_newton_solve(monkeypatch)
    integrate(make_burgers_problem(cells=8), (3.4, 0.2), 0.1, 0.3)
    assert set(shapes) == {(8,)}
    assert len(results) == 3
    assert all(u.shape == (8,) and isinstance(s, NewtonStats) for u, s in results)


def test_stacked_runs_keep_newton_solve_one_system(monkeypatch):
    # The benchmark's tracer reads (u, NewtonStats) from every newton_solve
    # call; a stacked run must not pass a stack through it, and a stack whose
    # solves all succeed makes no newton_solve call at all.
    import dataclasses

    from flowcast.cli import load_experiment
    from flowcast.pipeline import build_training_data

    results = record_newton_solve(monkeypatch)
    problem = make_burgers_problem(cells=8)
    integrate_many(problem, [(3.4, 0.2), (3.0, 0.4)], 0.1, 0.3)
    offline_cfg = load_experiment("experiment2").offline
    build_training_data(dataclasses.replace(offline_cfg, cases=offline_cfg.cases[:2]))
    assert not results  # the stacks step through the private stepper
    integrate_many(problem, [(3.4, 0.2)], 0.1, 0.3)
    assert len(results) == 3
    for result in results:
        assert len(result) == 2 and isinstance(result[1], NewtonStats)
        assert isinstance(result[0], np.ndarray) and result[0].shape == (8,)


def test_newton_solve_and_ie_step_refuse_a_stack():
    problem = make_burgers_problem(cells=8)
    u = np.stack([problem.initial_value(np.array(mu)) for mu in [(3.4, 0.2), (3.0, 0.4)]])
    with pytest.raises(ValueError, match="integrate_many"):
        newton_solve(system(lambda v: v, lambda v: np.eye(8)), u)
    with pytest.raises(ValueError, match="integrate_many"):
        ie_step(problem, u, np.array([(3.4, 0.2), (3.0, 0.4)]), 0.1)


def tridiagonal_systems(bad, dense=False):
    """A stack-capable problem u' = c - u*u on 4 unknowns, c = mu, with a
    tridiagonal Jacobian band whose 1e-3 off-diagonals only slow Newton down.
    The band of the system with c[0] == 1.5 is spoiled as ``bad`` says: a
    NaN entry, or, at dt = 1, a singular I - dt * J. With ``dense`` the
    problem brings the same Jacobian as dense matrices."""

    def band(u, c):
        ab = np.zeros((3, 4))
        ab[1] = -2.0 * u
        ab[0, 1:] = 1e-3 * u[:-1]
        ab[2, :-1] = 1e-3 * u[1:]
        if c[0] == 1.5 and bad == "nan":
            ab[0, 2] = np.nan
        if c[0] == 1.5 and bad == "singular":
            ab[:, 1:] = 0.0
            ab[1, 1:] = 1.0
        return ab

    def jacobian(u, mu):
        ab = band(u, mu) if u.ndim == 1 else np.stack([band(v, c) for v, c in zip(u, mu)])
        return band_to_dense(ab) if dense else ab

    problem = IvpProblem(dim=4, linearize=lambda u, mu: (mu - u * u, lambda: jacobian(u, mu)),
                         initial_value=lambda mu: mu, jacobian_bands=None if dense else (1, 1))
    mus = np.array([[2.0, 3.0, 5.0, 7.0], [1.5, 2.5, 3.5, 4.5], [6.0, 0.5, 2.0, 9.0]])
    return problem, mus


@pytest.mark.parametrize("bad, dense", [("nan", False), ("singular", False),
                                        ("nan", True), ("singular", True)],
                         ids=["nan", "singular", "nan-dense", "singular-dense"])
def test_spoiled_system_does_not_touch_its_neighbours(bad, dense):
    # In dgtsv's elimination a NaN block leaks into the next through 0 * NaN,
    # and dgtsv stops at the first singular pivot; the stack must still give
    # every system its own solve's bits, the spoiled one included, and so
    # must a dense stack, whose systems are solved one at a time.
    problem, mus = tridiagonal_systems(bad, dense)
    u_prev, cfg = np.ones((3, 4)), NewtonConfig(tolerance=1e-12)
    u, outcomes = _ie_step_stack(problem, u_prev, mus, 1.0, cfg, u_prev)  # previous values
    alone_u, alone = ie_step(problem, u_prev[1], mus[1], 1.0, cfg)
    assert outcomes[1].status == alone.status == {"nan": "non-finite"}.get(bad, bad)
    assert _failure(outcomes[1]) == _failure(alone)
    assert u[1].tobytes() == alone_u.tobytes()
    if bad == "singular":  # a finite residual norm: the whole outcome compares
        assert outcomes[1] == alone
    for j in (0, 2):
        want_u, want_stats = ie_step(problem, u_prev[j], mus[j], 1.0, cfg)
        assert outcomes[j] == want_stats and want_stats.converged
        assert u[j].tobytes() == want_u.tobytes()
    if dense:
        return
    # The hazard is real: one dgtsv over the whole stack spoils every block.
    g, jacobian = _ie_system(problem, u_prev, mus, 1.0)(u_prev)
    one_solve = (np.concatenate(list(jacobian()), axis=1), g.reshape(-1), (1, 1))
    if bad == "singular":
        with pytest.raises(np.linalg.LinAlgError):
            _linear_solve(*one_solve)
    else:
        assert np.isnan(_linear_solve(*one_solve)).all()


def test_stack_outcomes_per_system():
    # A non-finite starting residual, the iteration cap and convergence, side
    # by side: each system leaves with its own outcome and iteration count.
    # At dt = 1 from u_prev = 0, g(u) = u - (u - u*u + c) = u*u - c, started
    # from mu[1].
    problem = IvpProblem(dim=1,
                         linearize=lambda u, mu: (u - u * u + mu[..., :1],
                                                  lambda: (1.0 - 2.0 * u)[..., None]),
                         initial_value=lambda mu: mu[1:])
    guess = Initializer("guess", lambda p, u, mu, dt: mu[1:])
    mus = np.array([[4.0, 3.0], [np.inf, 1.0], [0.0, 1.0]])
    cfg = NewtonConfig(max_iterations=8)
    u, outcomes = _ie_step_stack(problem, np.zeros((3, 1)), mus, 1.0, cfg, mus[:, 1:])
    want_u, want = ie_step(problem, np.zeros(1), mus[0], 1.0, cfg, guess)
    assert outcomes[0] == want and want.converged and u[0, 0] == 2.0
    assert u[0].tobytes() == want_u.tobytes()
    assert_non_finite(outcomes[1], 0)
    assert outcomes[2].status == "cap" and outcomes[2].iterations == 8  # x^2: linear convergence
    for j in (1, 2):
        _, alone = ie_step(problem, np.zeros(1), mus[j], 1.0, cfg, guess)
        assert alone == outcomes[j] and _failure(alone) == _failure(outcomes[j])


def counting_problem(bands):
    """u' = c - u*u on two unknowns, c = mu, with a dense or a band Jacobian,
    counting its linearizations and the Jacobians built from them."""
    counts = {"linearize": 0, "jacobian": 0}

    def linearize(u, mu):
        counts["linearize"] += 1

        def jacobian():
            counts["jacobian"] += 1
            if bands is None:
                return -2.0 * u[..., None] * np.eye(2)
            ab = np.zeros(u.shape[:-1] + (3, 2))
            ab[..., 1, :] = -2.0 * u
            return ab

        return mu - u * u, jacobian

    problem = IvpProblem(dim=2, linearize=linearize, initial_value=lambda mu: np.zeros(2),
                         jacobian_bands=bands)
    return problem, counts


@pytest.mark.parametrize("bands", [None, (1, 1)], ids=["dense", "band"])
def test_newton_linearizes_each_iterate_once_and_builds_jacobians_lazily(bands):
    # At dt = 1 from u_prev = 0, g(u) = u*u + u - c, with the exact roots
    # (1, 2) for c = (2, 6). A solve of k iterations linearizes its k + 1
    # iterates and builds the Jacobian of the k that go on; a stack counts
    # one of each per iteration, as long as one of its states goes on. A
    # lone ie_step, handed no linearization, has none to reuse.
    problem, counts = counting_problem(bands)
    mus = np.array([[2.0, 6.0], [2.0, 6.0]])
    roots = np.array([[1.0, 2.0], [1.0, 2.0]])
    cases = [
        ("converged", np.array([[0.0, 0.0], [0.9, 1.9]]), NewtonConfig()),
        ("converged", roots, NewtonConfig()),  # a guess inside the tolerance
        ("cap", np.full((2, 2), 100.0), NewtonConfig(max_iterations=3)),
    ]
    iterations = []
    for status, u0, cfg in cases:
        counts.update(linearize=0, jacobian=0)
        guess = Initializer("guess", lambda p, u, mu, dt: u0[0])
        _, stats = ie_step(problem, np.zeros(2), mus[0], 1.0, cfg, guess)
        k = stats.iterations
        assert stats.status == status
        assert counts == {"linearize": k + 1, "jacobian": k}
        counts.update(linearize=0, jacobian=0)
        _, outcomes = _ie_step_stack(problem, np.zeros((2, 2)), mus, 1.0, cfg, u0)
        assert outcomes[0] == stats and {o.status for o in outcomes} == {status}
        k = max(o.iterations for o in outcomes)
        assert counts == {"linearize": k + 1, "jacobian": k}
        iterations.append([o.iterations for o in outcomes])
    # The first stack's states stop at different iterates.
    assert iterations == [[7, 4], [0, 0], [3, 3]]


def stepped_alone(problem, mu, dt, n_steps, initializer):
    """States and NewtonStats of n_steps taken by one ie_step call each,
    with no linearization handed from a step to the next."""
    guess, states, stats = initializer.start(), [problem.initial_value(np.array(mu))], []
    for _ in range(n_steps):
        u, outcome = ie_step(problem, states[-1], mu, dt, None, guess)
        states.append(u)
        stats.append(outcome)
    return np.array(states), stats


COPY = Initializer("copy", lambda p, u, mu, dt: u.copy())
# An explicit Euler step of the counting problem at c = (2, 6), as a surrogate.
EULER_SURROGATE = surrogate_initializer(
    lambda x: x[1:] + x[0] * (np.array([2.0, 6.0]) - x[1:] ** 2))


@pytest.mark.parametrize("bands", [None, (1, 1)], ids=["dense", "band"])
@pytest.mark.parametrize("mu, initializer, carried", [
    ((2.0, 6.0), PREVIOUS_VALUE, True),
    ((2.0, 6.0), COPY, False),
    ((2.0, 6.0), EULER_SURROGATE, False),
    ((0.0, 0.0), PREVIOUS_VALUE, True),  # steady: every step converges at once
], ids=["previous", "copy", "surrogate", "steady"])
def test_a_run_hands_its_last_linearization_to_a_previous_value_step(bands, mu, initializer,
                                                                     carried):
    # A step whose guess is the state the step before ended on, that very
    # array, starts from that step's last linearization: N steps of K
    # iterations make K + 1 linearizations, where one ie_step call per step
    # makes K + N, as does any other guess, a copy of that state included.
    problem, counts = counting_problem(bands)
    run = integrate(problem, mu, 0.1, 1.0, None, initializer)
    n, k = run.n_steps, run.total_iterations
    assert run.completed and n == 10 and (k == 0) == (mu == (0.0, 0.0))
    assert counts == {"linearize": k + 1 if carried else k + n, "jacobian": k}
    counts.update(linearize=0, jacobian=0)
    states, stats = stepped_alone(problem, mu, 0.1, n, initializer)
    assert counts == {"linearize": k + n, "jacobian": k}
    assert run.states.tobytes() == states.tobytes()
    assert run.newton_stats == stats


def test_only_a_step_from_its_previous_state_hands_on_a_linearization():
    # A step from another guess leaves no linearization: a held one would
    # stay alive while the next step's guess runs.
    problem, counts = counting_problem(None)
    carry, mu = [None], (2.0, 6.0)
    u, _ = ie_step(problem, np.zeros(2), mu, 0.1, None, PREVIOUS_VALUE, carry)
    f, _ = carry[0]
    assert f.tobytes() == problem.linearize(u, np.array(mu))[0].tobytes()
    counts.update(linearize=0)
    _, stats = ie_step(problem, u, mu, 0.1, None, COPY, carry)
    assert carry == [None] and counts["linearize"] == stats.iterations + 1
