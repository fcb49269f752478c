"""Newton solver, implicit Euler stepping, initializers, trajectories."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from flowcast.burgers import make_burgers_problem
from flowcast.ode import (
    PREVIOUS_VALUE,
    DivergenceError,
    Initializer,
    IvpProblem,
    NewtonConfig,
    SingularJacobianError,
    StepError,
    _linear_solve,
    finite_difference_jacobian,
    ie_step,
    integrate,
    newton_solve,
    surrogate_initializer,
)

EXPLICIT_EULER = Initializer("explicit-euler", lambda p, u, mu, dt: u + dt * p.rhs(u, mu))


def decay_problem():
    return IvpProblem(
        dim=1,
        rhs=lambda u, mu: -u,
        initial_value=lambda mu: np.ones(1),
        jacobian=lambda u, mu: -np.eye(1),
    )


def test_newton_sqrt2():
    u, stats = newton_solve(
        lambda x: x * x - 2.0, lambda x: np.diag(2.0 * x), np.array([1.0])
    )
    assert stats.converged
    assert abs(u[0] - np.sqrt(2.0)) < 1e-15
    assert stats.iterations <= 8  # quadratic convergence
    assert stats.final_residual_norm <= 1e-14
    assert stats.initializer_residual_norm == pytest.approx(1.0)


def test_newton_zero_iterations_on_exact_guess():
    u, stats = newton_solve(
        lambda x: x * x - 4.0, lambda x: np.diag(2.0 * x), np.array([2.0])
    )
    assert stats.iterations == 0
    assert stats.converged
    assert u[0] == 2.0


def test_newton_singular_jacobian():
    with pytest.raises(SingularJacobianError):
        newton_solve(lambda x: x + 1.0, lambda x: np.zeros((1, 1)), np.array([0.0]))


def test_newton_singular_banded_jacobian():
    # A 1x1 system: solve_banded itself would divide by the zero pivot.
    for pivot in (0.0, np.inf, np.nan):
        ab = np.array([[0.0], [pivot], [0.0]])
        with pytest.raises(SingularJacobianError):
            newton_solve(lambda x: x + 1.0, lambda x: ab, np.array([0.0]), bands=(1, 1))
    # [[1, 1, 0], [1, 1, 0], [0, 0, 1]]: equal first two rows.
    ab = np.array([[0.0, 1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(SingularJacobianError):
        newton_solve(lambda x: x + 1.0, lambda x: ab, np.zeros(3), bands=(1, 1))


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
    ab = -0.01 * problem.jacobian(u, mu)
    ab[1] += 1.0
    systems.append((ab, 0.01 * problem.rhs(u, mu)))
    for ab, b in systems:
        ab_before, b_before = ab.copy(), b.copy()
        got = _linear_solve(ab, b, (1, 1))
        want = solve_banded((1, 1), ab_before, b_before)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert ab.tobytes() == ab_before.tobytes() and b.tobytes() == b_before.tobytes()


def test_newton_divergence():
    with pytest.raises(DivergenceError, match="starting guess"):
        newton_solve(lambda x: x * np.inf, lambda x: np.eye(1), np.array([1.0]))

    def residual(x):
        return np.array([np.nan]) if x[0] != 0.0 else np.array([1.0])

    with pytest.raises(DivergenceError, match="iteration 1"):
        newton_solve(residual, lambda x: np.eye(1), np.array([0.0]))

    # A non-finite band entry, like a non-finite dense one, gives a
    # non-finite step rather than a ValueError from the solver.
    ab = np.array([[0.0, 1.0, np.nan], [1.0, 2.0, 1.0], [1.0, 0.0, 0.0]])
    with pytest.raises(DivergenceError, match="iteration 1"):
        newton_solve(lambda x: x + 1.0, lambda x: ab, np.zeros(3), bands=(1, 1))


def test_newton_residual_norm_overflow_raises():
    """Finite entries whose squares overflow give a non-finite 2-norm."""
    with pytest.raises(DivergenceError, match="starting guess"):
        newton_solve(lambda x: np.full(3, 1e200), lambda x: np.eye(3), np.zeros(3))

    def residual(x):
        return np.full(3, 1e200) if x[0] != 0.0 else np.ones(3)

    with pytest.raises(DivergenceError, match="iteration 1"):
        newton_solve(residual, lambda x: np.eye(3), np.zeros(3))


def test_newton_residual_norm_is_numpy_norm(rng):
    cfg = NewtonConfig(max_iterations=1)
    for scale in (1e-15, 1.0, 1e150):
        r = scale * rng.standard_normal(200)
        _, stats = newton_solve(lambda x: r, lambda x: np.eye(200), np.zeros(200), cfg)
        assert stats.initializer_residual_norm == np.linalg.norm(r)
        assert stats.final_residual_norm == np.linalg.norm(r)


def test_newton_iteration_cap_does_not_raise():
    # x^2 with root of multiplicity 2 converges linearly; one iteration
    # cannot reach 1e-14.
    u, stats = newton_solve(
        lambda x: x * x,
        lambda x: np.diag(2.0 * x),
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
    assert NewtonConfig(max_iterations=np.int64(3)).max_iterations == 3


def test_finite_difference_jacobian_matches_analytic(rng):
    def fn(u):
        return np.array([u[0] ** 2 + np.sin(u[1]), u[0] * u[1]])

    u = rng.random(2) + 0.5
    exact = np.array([[2 * u[0], np.cos(u[1])], [u[1], u[0]]])
    fd = finite_difference_jacobian(fn, u)
    assert np.max(np.abs(fd - exact)) < 1e-8


def test_problem_requires_jacobian():
    base = decay_problem()
    with pytest.raises(TypeError, match="jacobian"):
        IvpProblem(dim=1, rhs=base.rhs, initial_value=base.initial_value)
    # None no longer selects a finite-difference fallback.
    with pytest.raises(ValueError, match="jacobian must be callable, got None"):
        IvpProblem(dim=1, rhs=base.rhs, initial_value=base.initial_value, jacobian=None)
    for bad in (0, 2.5, True):
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            IvpProblem(dim=bad, rhs=base.rhs, initial_value=base.initial_value,
                       jacobian=base.jacobian)


def test_problem_validates_jacobian_bands():
    base = decay_problem()
    # A band wider than the system is allowed (a 1-cell grid keeps (1, 1)).
    assert IvpProblem(dim=1, rhs=base.rhs, initial_value=base.initial_value,
                      jacobian=base.jacobian, jacobian_bands=(1, 1)).jacobian_bands == (1, 1)
    # Only dense or tridiagonal: a (2, 2) band must not be solved as (1, 1).
    ab = np.ones((5, 3))
    for bad in [(2, 2), (0, 0), (1, 2), (-1, 1), (1,), (1, 1, 1), 1, [1, 1]]:
        with pytest.raises(ValueError, match=r"None \(dense\) or \(1, 1\)"):
            IvpProblem(dim=3, rhs=base.rhs, initial_value=base.initial_value,
                       jacobian=base.jacobian, jacobian_bands=bad)
        with pytest.raises(ValueError, match=r"None \(dense\) or \(1, 1\)"):
            newton_solve(lambda x: x + 1.0, lambda x: ab, np.zeros(3), bands=bad)


def test_ie_step_banded_matches_dense():
    # u' = A u with a tridiagonal A, declared once as a band and once dense.
    ab = np.array([[0.0, 0.3, -0.2], [-1.0, -2.0, -0.5], [0.4, 0.1, 0.0]])
    u_prev = np.array([1.0, -2.0, 0.5])
    dense = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[2, :-1], -1)
    common = dict(dim=3, rhs=lambda u, mu: dense @ u, initial_value=lambda mu: np.ones(3))
    banded = IvpProblem(jacobian=lambda u, mu: ab, jacobian_bands=(1, 1), **common)
    full = IvpProblem(jacobian=lambda u, mu: dense, **common)
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

    init = surrogate_initializer(model, name="test")
    guess = init(decay_problem(), np.array([5.0]), [], 0.25)
    assert np.array_equal(seen["input"], [0.25, 5.0])
    assert np.array_equal(guess, [10.0])
    assert init.name == "test"


def test_ie_step_linear_closed_form():
    # u' = -u: the implicit step has the exact solution u_prev / (1 + dt).
    u, stats = ie_step(decay_problem(), np.array([1.0]), [], 0.1)
    assert abs(u[0] - 1.0 / 1.1) < 1e-15
    assert stats.converged
    with pytest.raises(ValueError, match="dt"):
        ie_step(decay_problem(), np.array([1.0]), [], -0.1)


def test_ie_step_raises_on_no_convergence():
    quadratic = IvpProblem(
        dim=1,
        rhs=lambda u, mu: u * u,
        initial_value=lambda mu: np.ones(1),
        jacobian=lambda u, mu: np.diag(2.0 * u),
    )
    with pytest.raises(StepError) as info:
        ie_step(
            quadratic, np.array([1.0]), [], 0.1,
            NewtonConfig(max_iterations=1),
            Initializer("far", lambda p, u, mu, dt: u + 100.0),
        )
    assert info.value.stats is not None
    assert not info.value.stats.converged


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


def test_integrate_rejects_bad_horizon():
    with pytest.raises(ValueError, match="integer multiple"):
        integrate(decay_problem(), [], 0.3, 1.0)
    with pytest.raises(ValueError, match="dt"):
        integrate(decay_problem(), [], 0.0, 1.0)


def test_integrate_zero_iteration_fixed_point():
    steady = IvpProblem(
        dim=2,
        rhs=lambda u, mu: np.zeros(2),
        initial_value=lambda mu: np.array([1.0, -1.0]),
        jacobian=lambda u, mu: np.zeros((2, 2)),
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
        rhs=lambda u, mu: u * u,
        initial_value=lambda mu: np.ones(1),
        jacobian=lambda u, mu: np.diag(2.0 * u),
    )
    traj = integrate(problem, [], 0.25, 2.0, NewtonConfig(max_iterations=2))
    assert not traj.completed
    assert traj.error is not None and "step" in traj.error
    assert traj.states.shape[0] == traj.n_steps + 1
    assert traj.n_steps < 8


def test_integrate_validates_initial_shape():
    bad = IvpProblem(dim=2, rhs=lambda u, mu: u, initial_value=lambda mu: np.ones(3),
                     jacobian=lambda u, mu: np.eye(2))
    with pytest.raises(ValueError, match="initial value"):
        integrate(bad, [], 0.1, 0.2)
