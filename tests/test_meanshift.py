import math

import numpy as np
import pytest
from scipy import optimize, stats

import oracles
from oracles import (variance_criterion, variance_criterion_gradient,
                     variance_criterion_hessian)
from tailshift import (DomainError, ModelSpec, NoSurvivors, NotConverged,
                       RngStream, WeightedBatch, log_objective,
                       log_objective_gradient, log_objective_hessian,
                       solve_optimal_shift)
from tailshift.meanshift import _newton_step


def make_batch(seed, n=200, d=3, gamma=0.5, shift=None):
    """Batch drawn from N(shift, I), the nominal law when ``shift`` is None,
    with a linear response and threshold gamma."""
    noise = RngStream(seed, 77).generator.standard_normal((n, d))
    if shift is None:
        points, log_weights = noise, np.zeros(n)
    else:
        shift = np.asarray(shift, float)
        points = noise + shift
        log_weights = -(noise @ shift) - 0.5 * (shift @ shift)
    responses = points.sum(axis=1) / np.sqrt(d)
    return WeightedBatch.from_threshold(points, responses, gamma, log_weights)


def pooled(*batches):
    """One batch of the rows of ``batches``, each keeping its log weight."""
    return WeightedBatch(np.concatenate([b.points for b in batches]),
                         np.concatenate([b.survivors for b in batches]),
                         np.concatenate([b.log_weights for b in batches]))


class TestVarianceCriterion:
    def test_unit_at_zero_shift_all_survivors(self):
        batch = make_batch(1, gamma=-np.inf)
        assert variance_criterion(np.zeros(3), batch) == pytest.approx(
            1.0, rel=1e-14)

    def test_closed_form_identity_model(self):
        # 1-D closed form: v(t) = e^(t^2) Phi(-(gamma + t))
        noise = RngStream(2, 5).generator.standard_normal((1_000_000, 1))
        batch = WeightedBatch.from_threshold(noise, noise[:, 0], 1.5,
                                             np.zeros(len(noise)))
        expected = oracles.shift_second_moment(1.0, 1.5)
        got = variance_criterion(np.array([1.0]), batch)
        assert got == pytest.approx(expected, rel=0.02)

    def test_population_limit_all_survivors(self):
        # with every sample surviving, v(theta) -> e^(|theta|^2)
        batch = make_batch(3, n=200_000, d=2, gamma=-np.inf)
        theta = np.array([0.5, -0.3])
        assert variance_criterion(theta, batch) == pytest.approx(
            np.exp(theta @ theta), rel=0.02)

    def test_no_survivors(self):
        batch = make_batch(4, gamma=100.0)
        with pytest.raises(NoSurvivors):
            log_objective(np.zeros(3), batch)

    def test_never_worse_than_no_shift(self):
        for seed in range(5):
            batch = make_batch(seed, n=400, gamma=1.0)
            sol = solve_optimal_shift(batch)
            assert variance_criterion(sol.theta, batch) <= variance_criterion(
                np.zeros(3), batch) * (1.0 + 1e-12)


def central_difference_gradient(fun, theta, h=1e-5):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fun(up) - fun(down)) / (2 * h)
    return grad


class TestDerivatives:
    @pytest.mark.parametrize("seed", range(5))
    def test_criterion_gradient_matches_fd(self, seed):
        batch = make_batch(seed, n=100)
        theta = RngStream(seed, 9).generator.standard_normal(3) * 0.5
        grad = variance_criterion_gradient(theta, batch)
        fd = central_difference_gradient(
            lambda t: variance_criterion(t, batch), theta)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_criterion_hessian_matches_fd(self, seed):
        batch = make_batch(seed, n=100)
        theta = RngStream(seed, 10).generator.standard_normal(3) * 0.5
        hess = variance_criterion_hessian(theta, batch)
        direction = RngStream(seed, 11).generator.standard_normal(3)
        fd = central_difference_gradient(
            lambda t: variance_criterion_gradient(t, batch) @ direction, theta)
        assert np.linalg.norm(hess @ direction - fd) <= 1e-6 * np.linalg.norm(fd)

    @pytest.mark.parametrize("seed", range(5))
    def test_log_objective_gradient_matches_fd(self, seed):
        batch = make_batch(seed, n=100)
        theta = RngStream(seed, 12).generator.standard_normal(3) * 0.5
        grad = log_objective_gradient(theta, batch)
        fd = central_difference_gradient(lambda t: log_objective(t, batch), theta)
        assert np.linalg.norm(grad - fd) <= 1e-6 * max(np.linalg.norm(fd), 1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_log_objective_hessian_matches_fd_and_is_convex(self, seed):
        batch = make_batch(seed, n=100)
        theta = RngStream(seed, 13).generator.standard_normal(3) * 0.5
        hess = log_objective_hessian(theta, batch)
        direction = RngStream(seed, 14).generator.standard_normal(3)
        fd = central_difference_gradient(
            lambda t: log_objective_gradient(t, batch) @ direction, theta)
        assert np.linalg.norm(hess @ direction - fd) <= 1e-6 * np.linalg.norm(fd)
        assert np.linalg.eigvalsh(hess).min() >= 1.0 - 1e-9

    def test_single_survivor_gradient_vanishes_at_the_point(self):
        points = np.array([[0.4, -0.2], [3.0, 1.0]])
        batch = WeightedBatch(points, np.array([False, True]), np.zeros(2))
        grad = variance_criterion_gradient(points[1], batch)
        np.testing.assert_allclose(grad, 0.0, atol=1e-15)


class TestSolver:
    @pytest.mark.parametrize("k, d", [(30, 5), (5, 30)])
    def test_newton_step_solves_the_hessian_system(self, k, d):
        # both branches: the d x d system (d <= k) and the Woodbury form
        gen = RngStream(k, d).generator
        a = gen.standard_normal((k, d))
        grad = gen.standard_normal(d)
        delta = _newton_step(a, grad)
        np.testing.assert_allclose((np.eye(d) + a.T @ a) @ delta, -grad,
                                   rtol=0, atol=1e-10)

    def test_single_point_batch(self):
        target = np.array([1.3, -0.7, 0.2])
        points = np.tile(target, (5, 1))
        batch = WeightedBatch(points, np.ones(5, bool), np.zeros(5))
        sol = solve_optimal_shift(batch)
        np.testing.assert_allclose(sol.theta, target, atol=1e-10)

    def test_identity_model_against_golden_section(self):
        # full-sample survivor batch at gamma = 1.5; the solved shift must
        # sit near the closed-form minimizer of e^(t^2) Phi(-(1.5 + t))
        noise = RngStream(6, 5).generator.standard_normal((1_000_000, 1))
        batch = WeightedBatch.from_threshold(noise, noise[:, 0], 1.5,
                                             np.zeros(len(noise)))
        sol = solve_optimal_shift(batch)
        argmin = oracles.optimal_shift_1d(1.5)
        assert argmin == pytest.approx(1.78, abs=0.02)
        assert abs(sol.theta[0] - argmin) <= 0.05

    @pytest.mark.parametrize("base", [0.0, 4.0, 5.5])
    def test_solved_shift_does_not_depend_on_the_draw_shift(self, base):
        # the survivors of a batch drawn under N(base, 1) at gamma = 4.753,
        # drawn exactly from N(base, 1) conditioned on x >= gamma (the
        # non-survivors never enter the solve); whatever the base, the
        # shift must land on the minimizer 4.855 of e^(t^2) Phi(-(gamma + t))
        gamma, n = 4.753, 20_000
        u = RngStream(7, int(10 * base)).generator.random(n)
        points = base + stats.norm.isf(u * stats.norm.sf(gamma - base))
        batch = WeightedBatch(points[:, None], np.ones(n, bool),
                              -base * points + 0.5 * base * base)
        argmin = oracles.optimal_shift_1d(gamma)
        assert argmin == pytest.approx(4.855, abs=1e-3)
        assert abs(solve_optimal_shift(batch).theta[0] - argmin) <= 0.05

    def test_all_survivors_shift_stays_near_zero(self):
        batch = make_batch(8, n=100_000, d=2, gamma=-np.inf)
        sol = solve_optimal_shift(batch, tol=1e-2)
        assert np.linalg.norm(sol.theta) <= 0.1

    def test_matches_direct_criterion_minimizer(self):
        # independent route: root-find the raw criterion's gradient, for
        # batches drawn under no shift, under one shift, and pooled from the
        # rows of two shifts, each row with its own log weight
        for seed in range(3):
            shifted = make_batch(seed, n=50, d=2, gamma=0.8, shift=[0.6, -0.4])
            other = make_batch(seed + 3, n=50, d=2, gamma=0.8, shift=[1.1, 0.2])
            for batch in (make_batch(seed, n=50, d=2, gamma=0.8), shifted,
                          pooled(shifted, other)):
                sol = solve_optimal_shift(batch, tol=1e-12)
                direct = optimize.root(
                    lambda t: variance_criterion_gradient(t, batch),
                    x0=np.zeros(2),
                    jac=lambda t: variance_criterion_hessian(t, batch),
                    method="hybr", tol=1e-13)
                assert direct.success
                assert np.linalg.norm(sol.theta - direct.x) <= 1e-8

    def test_newton_iteration_count_and_gradient(self):
        batch = make_batch(9, n=500, gamma=1.2)
        sol = solve_optimal_shift(batch)
        assert sol.newton_iterations <= 50
        assert sol.grad_norm <= 1e-8

    def test_not_converged_raises(self):
        batch = make_batch(10, n=500, gamma=1.2)
        with pytest.raises(NotConverged, match="within 1 Newton iteration"):
            solve_optimal_shift(batch, max_iter=1, tol=1e-14)

    def test_no_survivors(self):
        batch = make_batch(11, gamma=50.0)
        with pytest.raises(NoSurvivors):
            solve_optimal_shift(batch)

    @pytest.mark.parametrize("field", ["points", "responses", "log_weights"])
    def test_non_finite_input_rejected(self, field):
        rows = dict(points=np.zeros((3, 2)), responses=np.zeros(3),
                    log_weights=np.zeros(3))
        rows[field].flat[1] = np.nan
        with pytest.raises(DomainError, match="non-finite"):
            WeightedBatch.from_threshold(rows["points"], rows["responses"],
                                         0.0, rows["log_weights"])


def recorded_ladder_batches(monkeypatch):
    """Every batch the ladder solves a shift on: identity at d=1 and the
    linear family at d=10 and d=110, seeds 0-2."""
    from tailshift import multilevel, run_ladder
    cases = [(ModelSpec.identity(1), oracles.tail_quantile("1e-6")),
             (ModelSpec.linear_family(10),
              math.sqrt(10) * oracles.tail_quantile("1e-10")),
             (ModelSpec.linear_family(110),
              math.sqrt(10.01) * oracles.tail_quantile("3e-5"))]
    batches = []

    def record(batch, *args, **kwargs):
        batches.append(batch)
        return solve_optimal_shift(batch, *args, **kwargs)
    monkeypatch.setattr(multilevel, "solve_optimal_shift", record)
    for model, gamma in cases:
        for seed in range(3):
            run_ladder(model, RngStream(seed), gamma=gamma)
    return batches


def test_solver_matches_the_plain_newton_loop_bit_for_bit(monkeypatch):
    # the solver reuses the accepted step's exponents and adds the identity
    # in place; neither may change a bit of theta or the iteration count
    batches = recorded_ladder_batches(monkeypatch)
    monkeypatch.undo()
    assert {b.dimension for b in batches} == {1, 10, 110}
    for batch in batches:
        sol = solve_optimal_shift(batch)
        theta, iterations = oracles.newton_shift(batch)
        assert sol.theta.tobytes() == theta.tobytes()
        assert sol.newton_iterations == iterations


class TestUnbiasednessTransport:
    def test_is_estimate_matches_plain_mc(self):
        # fixed shift, moderate threshold: weighted mean of survivors drawn
        # under the shift agrees with plain Monte Carlo within 3 joint SE
        model = ModelSpec.linear([0.6, 0.8])
        gamma = 1.5
        theta = np.array([0.72, 0.96])  # 1.2 * unit direction
        m = 200_000
        noise = RngStream(21, 1).generator.standard_normal((m, 2))
        from tailshift import response_values
        is_vals = response_values(model, noise + theta)
        is_terms = (is_vals >= gamma) * np.exp(-(noise @ theta) - 0.5 * theta @ theta)
        mc_vals = response_values(
            model, RngStream(21, 2).generator.standard_normal((m, 2)))
        mc_terms = (mc_vals >= gamma).astype(float)
        se = np.sqrt(is_terms.var() / m + mc_terms.var() / m)
        assert abs(is_terms.mean() - mc_terms.mean()) <= 3.0 * se

