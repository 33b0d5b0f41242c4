import numpy as np
import pytest
from scipy import optimize

from oracles import (variance_criterion, variance_criterion_gradient,
                     variance_criterion_hessian)
from tailshift import (DomainError, LadderConfig, ModelSpec, NoSurvivors,
                       RngStream, WeightedBatch, estimate_to_precision,
                       response_values, run_ladder, select_important,
                       solve_optimal_shift, solve_shift_in_subspace)
from tailshift.multilevel import next_level


def pilot_batch(model, seed, n=1000, rho=0.10):
    """First ladder level: nominal batch thresholded at its top-rho level."""
    noise = RngStream(seed, 1001).generator.standard_normal((n, model.dimension))
    responses = response_values(model, noise)
    level = next_level(responses, rho, np.inf)
    return WeightedBatch.from_threshold(noise, responses, level, np.zeros(n))


class TestSelectImportant:
    def test_dominant_block_recovered(self):
        model = ModelSpec.linear_family(1010)
        hits = 0
        for seed in range(20):
            batch = pilot_batch(model, seed)
            selection = select_important(batch, max_dim=200, energy=0.99)
            hits += set(range(10)) <= set(selection.indices.tolist())
            assert selection.size <= 200
        assert hits >= 19

    def test_deterministic_for_a_batch(self):
        model = ModelSpec.linear_family(300)
        batch = pilot_batch(model, 3)
        a = select_important(batch, 50, 0.99)
        b = select_important(batch, 50, 0.99)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_tie_break_prefers_low_indices(self):
        # one survivor with identical coordinates: every statistic ties
        points = np.ones((1, 8))
        batch = WeightedBatch(points, np.array([True]), np.zeros(1))
        selection = select_important(batch, max_dim=5, energy=1.0)
        np.testing.assert_array_equal(selection.indices, [0, 1, 2, 3, 4])

    def test_full_selection_at_threshold_one(self):
        points = RngStream(4, 7).generator.standard_normal((1, 6))
        batch = WeightedBatch(points, np.array([True]), np.zeros(1))
        selection = select_important(batch, max_dim=10, energy=1.0)
        assert selection.size == 6

    def test_no_survivors(self):
        model = ModelSpec.linear_family(20)
        noise = RngStream(5, 1001).generator.standard_normal((100, 20))
        batch = WeightedBatch.from_threshold(
            noise, response_values(model, noise), 1e9, np.zeros(100))
        with pytest.raises(NoSurvivors):
            select_important(batch)


class TestSubspaceSolve:
    def test_full_selection_matches_full_solver(self):
        model = ModelSpec.linear_family(12)
        batch = pilot_batch(model, 6, n=500)
        selection = select_important(batch, max_dim=12, energy=1.0,
                                     sig_level=0.0)
        assert selection.size == 12
        full = solve_optimal_shift(batch)
        sub = solve_shift_in_subspace(batch, selection)
        np.testing.assert_allclose(sub.theta, full.theta, atol=1e-7)

    def test_single_coordinate_matches_one_dimensional_solve(self):
        # response depends on x1 only; restricting to {0} reproduces the
        # 1-D solver's shift in that coordinate
        model = ModelSpec.identity(3)
        batch = pilot_batch(model, 7, n=2000)
        selection = select_important(batch, max_dim=1, energy=0.99)
        np.testing.assert_array_equal(selection.indices, [0])
        sub = solve_shift_in_subspace(batch, selection)
        batch_1d = WeightedBatch(batch.points[:, :1], batch.survivors,
                                 batch.log_weights)
        full_1d = solve_optimal_shift(batch_1d)
        assert sub.theta[0] == pytest.approx(full_1d.theta[0], abs=1e-8)

    def test_off_subset_coordinates_exactly_zero(self):
        model = ModelSpec.linear_family(40)
        batch = pilot_batch(model, 8, n=500)
        selection = select_important(batch, max_dim=10, energy=0.99)
        sub = solve_shift_in_subspace(batch, selection)
        off = np.setdiff1d(np.arange(40), selection.indices)
        assert np.all(sub.theta[off] == 0.0)

    def test_restricted_never_beats_full(self):
        for seed in range(5):
            model = ModelSpec.linear_family(15)
            batch = pilot_batch(model, seed + 20, n=400)
            selection = select_important(batch, max_dim=5, energy=0.99)
            full = solve_optimal_shift(batch)
            sub = solve_shift_in_subspace(batch, selection)
            assert (variance_criterion(sub.theta, batch)
                    >= variance_criterion(full.theta, batch) * (1 - 1e-8))

    def test_draw_shift_off_subset_solves_the_restricted_criterion(self):
        # rows drawn under a shift that is non-zero off the selection: their
        # log weights carry it, and the subspace solve is the root of the
        # criterion's gradient restricted to the selected coordinates
        model = ModelSpec.linear_family(20)
        selection = select_important(pilot_batch(model, 9, n=500),
                                     max_dim=5, energy=0.99)
        idx = selection.indices
        off = np.setdiff1d(np.arange(20), idx)
        shift = np.zeros(20)
        shift[idx] = 0.4
        shift[off[:3]] = 0.5
        noise = RngStream(9, 1002).generator.standard_normal((500, 20))
        points = noise + shift
        responses = response_values(model, points)
        batch = WeightedBatch.from_threshold(
            points, responses, next_level(responses, 0.10, np.inf),
            -(noise @ shift) - 0.5 * (shift @ shift))
        sub = solve_shift_in_subspace(batch, selection)
        direct = optimize.root(
            lambda t: variance_criterion_gradient(
                selection.embed(t), batch)[idx],
            x0=np.zeros(idx.size),
            jac=lambda t: variance_criterion_hessian(
                selection.embed(t), batch)[np.ix_(idx, idx)],
            method="hybr", tol=1e-13)
        assert direct.success
        assert np.linalg.norm(sub.theta[idx] - direct.x) <= 1e-8
        assert np.all(sub.theta[off] == 0.0)


class TestDimredModes:
    @pytest.mark.parametrize("dimred, selects", [
        ("off", False), ("auto", True), ("on", True)])
    def test_mode_decides_selection_above_threshold(self, dimred, selects):
        model = ModelSpec.linear_family(510)
        config = LadderConfig(dimred=dimred)
        _, trace = run_ladder(model, config, RngStream(0), gamma=2.0)
        assert (trace.selection is not None) == selects

    @pytest.mark.parametrize("dimred", [True, False, "yes", None])
    def test_unknown_mode_rejected(self, dimred):
        config = LadderConfig(dimred=dimred)
        with pytest.raises(DomainError, match="dimred"):
            run_ladder(ModelSpec.identity(1), config, RngStream(0), gamma=2.0)


class TestDimensionRobustness:
    def test_noise_dimension_grows_mildly(self):
        # fixed-regime runs at |B| = 100 and |B| = 5000 over seeds 1-5: the
        # median run count may grow with dimension but only by a small factor
        import oracles
        runs = {}
        for nb in (100, 5000):
            model = ModelSpec.linear_family(10 + nb)
            gamma = float(np.linalg.norm(model.coefficient_stack())
                          * oracles.tail_quantile("2.8e-5"))
            config = LadderConfig(dimred="on")
            counts = []
            for seed in range(1, 6):
                report, _, _ = estimate_to_precision(
                    model, gamma, config, 0.10, RngStream(seed),
                    budget=60_000)
                assert report.converged
                counts.append(report.runs_total)
            runs[nb] = float(np.median(counts))
        assert runs[5000] <= 4 * runs[100]
