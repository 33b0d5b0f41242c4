import math

import numpy as np
import pytest

import oracles
from tailshift import (BudgetExhausted, DegenerateBatch, DomainError,
                       LadderConfig, ModelSpec, RngStream,
                       analytic_tail_prob, draw_tail_sample,
                       estimate_probability, estimate_to_precision,
                       mc_equivalent_runs, next_level, report_from_sample,
                       run_ladder)


class TestNextLevel:
    def test_order_statistic_convention(self):
        responses = np.arange(1.0, 101.0)
        assert next_level(responses, 0.10, 1e6) == 91.0

    def test_matches_sorted_oracle(self):
        responses = RngStream(0).generator.standard_normal(137)
        rho = 0.25
        idx = min(136, math.ceil((1 - rho) * 137 - 1e-9))
        assert next_level(responses, rho, 1e6) == sorted(responses)[idx]

    def test_capped_at_gamma(self):
        responses = np.arange(1.0, 101.0)
        assert next_level(responses, 0.10, 50.0) == 50.0

    def test_median_when_below_gamma(self):
        responses = np.arange(1.0, 102.0)
        level = next_level(responses, 0.5, 1e6)
        assert level == 52.0
        assert level < 1e6

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatch):
            next_level(np.full(100, 3.3), 0.1, 10.0)

    def test_bad_rho(self):
        with pytest.raises(DomainError):
            next_level(np.arange(10.0), 1.5, 1.0)


class TestRunLadder:
    def test_single_level_when_gamma_easy(self):
        # gamma below the first batch's level: one level, solved once
        model = ModelSpec.identity(1)
        theta, trace = run_ladder(model, LadderConfig(gamma=0.0),
                                  RngStream(0))
        assert len(trace.levels) == 1
        assert trace.levels[0].gamma == 0.0

    def test_identity_gamma_four_across_seeds(self):
        # closed-form minimizer at gamma = 4 sits near 4.2
        argmin = oracles.optimal_shift_1d(4.0)
        assert argmin == pytest.approx(4.2, abs=0.1)
        model = ModelSpec.identity(1)
        config = LadderConfig(gamma=4.0)
        for seed in range(50):
            theta, trace = run_ladder(model, config, RngStream(seed))
            assert 2 <= len(trace.levels) <= 5
            assert 3.5 <= theta[0] <= 4.6

    def test_levels_strictly_increase_to_gamma(self):
        model = ModelSpec.identity(1)
        for seed in range(10):
            _, trace = run_ladder(model, LadderConfig(gamma=4.5),
                                  RngStream(seed))
            gammas = [lvl.gamma for lvl in trace.levels]
            assert all(a < b for a, b in zip(gammas, gammas[1:]))
            assert gammas[-1] == 4.5

    def test_survivor_floor(self):
        model = ModelSpec.identity(1)
        config = LadderConfig(gamma=4.0, rho=0.10)
        for seed in range(10):
            _, trace = run_ladder(model, config, RngStream(seed))
            floor = math.ceil(config.rho * config.n_per_level) - 1
            assert all(lvl.survivor_count >= floor for lvl in trace.levels)

    def test_trace_estimates_decay_by_orders_of_magnitude(self):
        # exploration-phase shape: estimates drop by one decade or more per
        # level and the last one lands near the true tail probability
        model = ModelSpec.identity(1)
        _, trace = run_ladder(model, LadderConfig(gamma=5.0), RngStream(3))
        estimates = [lvl.estimate for lvl in trace.levels]
        ratios = [b / a for a, b in zip(estimates, estimates[1:])]
        assert all(1e-4 <= r <= 0.6 for r in ratios)
        assert estimates[-1] == pytest.approx(oracles.normal_tail(5.0), rel=1.0)

    def test_left_tail(self):
        model = ModelSpec.identity(1, tail="left")
        theta, trace = run_ladder(model, LadderConfig(gamma=-4.0),
                                  RngStream(1))
        assert theta[0] <= -3.5
        gammas = [lvl.gamma for lvl in trace.levels]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))


class TestEstimateProbability:
    def test_plain_mc_certain_event(self):
        model = ModelSpec.identity(1)
        report = estimate_probability(model, -1e6, np.zeros(1), 500,
                                      RngStream(0, 9))
        assert report.estimate == 1.0

    def test_identity_matches_oracle_with_variance_gain(self):
        model = ModelSpec.identity(1)
        p = oracles.normal_tail(1.5)
        theta = np.array([1.78])
        m = 100_000
        sample = draw_tail_sample(model, 1.5, theta, m, RngStream(4, 50))
        report = report_from_sample(sample)
        terms = oracles.hit_terms(sample)
        se_is = terms.std() / np.sqrt(m)
        se_mc = np.sqrt(p * (1 - p) / m)
        assert abs(report.estimate - p) <= 3 * se_is
        # variance formula: v(theta) - p^2 against the closed form
        v = oracles.shift_second_moment(1.78, 1.5)
        assert terms.var() == pytest.approx(v - p * p, rel=0.05)
        assert se_is <= se_mc / 2.5

    def test_linear_model_after_ladder(self):
        model = ModelSpec.linear([1.0])
        theta, _ = run_ladder(model, LadderConfig(gamma=4.0), RngStream(7))
        report = estimate_probability(model, 4.0, theta, 10_000,
                                      RngStream(7, 99))
        p = oracles.normal_tail(4.0)
        half = report.rel_half_width * report.estimate
        assert abs(report.estimate - p) <= 1.6 * half  # 3 SE

    def test_zero_hits_flagged(self):
        model = ModelSpec.identity(1)
        report = estimate_probability(model, 10.0, np.zeros(1), 100,
                                      RngStream(0, 1))
        assert report.zero_hits
        assert report.estimate == 0.0
        assert math.isinf(report.rel_half_width)
        assert not report.converged


class TestSpeedup:
    def test_formula(self):
        assert mc_equivalent_runs(0.5, 0.1) == pytest.approx(
            1.96 ** 2 * 0.5 / (0.5 * 0.01), rel=1e-4)

    def test_reference_regime(self):
        # 9.1893e-6 at 9.99% in 8000 runs gives a speedup near 5.2e3
        speedup = mc_equivalent_runs(9.1893e-6, 0.0999) / 8000
        assert speedup == pytest.approx(5.2e3, rel=0.02)

    def test_speedup_below_one_for_common_events(self):
        model = ModelSpec.identity(1)
        config = LadderConfig(gamma=0.0)
        report, _, _ = estimate_to_precision(model, 0.0, config, 0.10, 1000,
                                             RngStream(2))
        assert report.speedup < 1.0


class TestEstimateToPrecision:
    def test_target_met_in_first_batch(self):
        model = ModelSpec.identity(1)
        config = LadderConfig(gamma=0.0)
        report, trace, sample = estimate_to_precision(
            model, 0.0, config, 0.10, 1000, RngStream(1))
        assert report.runs_final == 1000
        assert report.converged
        assert report.rel_half_width <= 0.10

    def test_runs_are_multiples_of_batch(self):
        model = ModelSpec.identity(1)
        config = LadderConfig(gamma=3.0)
        report, trace, _ = estimate_to_precision(
            model, 3.0, config, 0.10, 1000, RngStream(5))
        assert report.runs_final % 1000 == 0
        assert report.runs_exploration == 1000 * len(trace.levels)

    def test_budget_exhausted_carries_partial(self):
        model = ModelSpec.identity(1)
        config = LadderConfig(gamma=4.0)
        with pytest.raises(BudgetExhausted) as err:
            estimate_to_precision(model, 4.0, config, 0.001, 1000,
                                  RngStream(0), budget=6000)
        assert err.value.report is not None
        assert not err.value.report.converged
        assert err.value.report.runs_total <= 6000

    def test_deterministic_given_seed(self):
        model = ModelSpec.linear_family(20)
        config = LadderConfig(gamma=10.0)
        a = estimate_to_precision(model, 10.0, config, 0.10, 1000, RngStream(3))
        b = estimate_to_precision(model, 10.0, config, 0.10, 1000, RngStream(3))
        assert a[0].estimate == b[0].estimate
        assert a[0].rel_half_width == b[0].rel_half_width


class TestUnbiasednessAndCoverage:
    def test_mean_within_pooled_se(self):
        # 50-run version of the unbiasedness check (the acceptance suite
        # runs the full 200)
        model = ModelSpec.identity(1)
        p = oracles.normal_tail(2.5)
        config = LadderConfig(gamma=2.5)
        estimates, variances = [], []
        m = 1000
        for seed in range(50):
            rng = RngStream(seed)
            theta, _ = run_ladder(model, config, rng)
            sample = draw_tail_sample(model, 2.5, theta, m,
                                      RngStream(rng.seed, 2_000_000))
            terms = oracles.hit_terms(sample)
            estimates.append(terms.mean())
            variances.append(terms.var() / m)
        pooled_se = np.sqrt(np.sum(variances)) / len(estimates)
        assert abs(np.mean(estimates) - p) <= 3 * pooled_se

    def test_interval_coverage_rare_linear(self):
        # CI covers the oracle in >= 90% of seeded runs at p ~ 3.2e-5
        model = ModelSpec.linear_family(110)
        gamma = 4.0 * np.linalg.norm(model.coefficient_stack())
        p = analytic_tail_prob(model, gamma)
        config = LadderConfig(gamma=gamma)
        covered = 0
        runs = 100
        for seed in range(runs):
            report, _, _ = estimate_to_precision(
                model, gamma, config, 0.10, 1000, RngStream(seed),
                budget=30_000)
            covered += (abs(report.estimate - p)
                        <= report.rel_half_width * report.estimate)
        assert covered >= 0.90 * runs


class TestTailSample:
    def test_merge_requires_same_target(self):
        model = ModelSpec.identity(1)
        a = draw_tail_sample(model, 1.0, np.ones(1), 10, RngStream(0, 1))
        b = draw_tail_sample(model, 2.0, np.ones(1), 10, RngStream(0, 2))
        with pytest.raises(DomainError):
            a.merge(b)

    def test_merge_concatenates(self):
        model = ModelSpec.identity(1)
        a = draw_tail_sample(model, 1.0, np.ones(1), 10, RngStream(0, 1))
        b = draw_tail_sample(model, 1.0, np.ones(1), 15, RngStream(0, 2))
        assert a.merge(b).size == 25

    @pytest.mark.parametrize("count", [1, 2, 4])
    def test_multiway_merge_equals_chained_merges(self, count):
        model = ModelSpec.identity(2)
        theta = np.array([1.0, 0.5])
        first, *rest = [draw_tail_sample(model, 1.0, theta, 5 + i,
                                         RngStream(0, i)) for i in range(count)]
        chained = first
        for other in rest:
            chained = chained.merge(other)
        merged = first.merge(*rest)
        np.testing.assert_array_equal(merged.responses, chained.responses)
        np.testing.assert_array_equal(merged.log_weights, chained.log_weights)
        assert merged.gamma == chained.gamma
        np.testing.assert_array_equal(merged.theta, chained.theta)
        assert merged.size == sum(5 + i for i in range(count))

    @pytest.mark.parametrize("bad", ["gamma", "theta"])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_multiway_merge_rejects_any_mismatch(self, bad, position):
        model = ModelSpec.identity(2)
        theta = np.array([1.0, 0.5])
        others = []
        for i in range(3):
            gamma, shift = 1.0, theta
            if i == position:
                gamma, shift = ((2.0, theta) if bad == "gamma"
                                else (1.0, np.array([1.0, 0.25])))
            others.append(draw_tail_sample(model, gamma, shift, 5,
                                           RngStream(0, i + 1)))
        first = draw_tail_sample(model, 1.0, theta, 5, RngStream(0, 0))
        with pytest.raises(DomainError):
            first.merge(*others)


class TestMaxLevelsExceeded:
    def test_level_cap_carries_trace(self):
        from tailshift import MaxLevelsExceeded
        model = ModelSpec.identity(1)
        config = LadderConfig(gamma=20.0, max_levels=2)
        with pytest.raises(MaxLevelsExceeded) as err:
            run_ladder(model, config, RngStream(0))
        assert len(err.value.trace.levels) == 2
