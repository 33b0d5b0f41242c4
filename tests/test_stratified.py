import numpy as np
import pytest
from scipy import stats

import oracles
from tailshift import (DegenerateStratum, DomainError,
                       LadderConfig, ModelSpec, RngStream, StrataSpec,
                       analytic_tail_prob, optimal_allocation,
                       run_ladder, strata_from_shift, stratified_estimate)
from tailshift.stratified import _conditional_rows


class TestConditionalSampler:
    def test_whole_space_is_unconditional(self):
        u = np.array([1.0, 0.0])
        draws = _conditional_rows(u, -np.inf, np.inf, 50_000, RngStream(1, 9))
        assert abs(draws[:, 0].mean()) <= 4.0 / np.sqrt(50_000)
        assert abs(draws[:, 0].var() - 1.0) <= 0.05

    def test_projection_always_inside(self):
        theta = np.array([3.0, 4.0])
        u = theta / 5.0
        draws = _conditional_rows(u, 0.5, 1.25, 10_000, RngStream(2, 9))
        proj = draws @ u
        assert proj.min() >= 0.5 - 1e-9
        assert proj.max() <= 1.25 + 1e-9

    def test_projection_exact_in_one_dimension(self):
        draws = _conditional_rows(np.array([1.0]), 1.0, 2.0, 5000,
                                  RngStream(3, 9))
        assert draws.min() >= 1.0
        assert draws.max() <= 2.0

    def test_truncated_mean(self):
        # E[X | 1 <= X <= 2] = (phi(1) - phi(2)) / (Phi(2) - Phi(1))
        mean_true = oracles.truncated_mean(1.0, 2.0)
        assert mean_true == pytest.approx(1.38317, abs=1e-5)
        draws = _conditional_rows(np.array([1.0]), 1.0, 2.0, 100_000,
                                  RngStream(4, 9))
        se = np.sqrt(oracles.truncated_var(1.0, 2.0) / 100_000)
        assert abs(draws[:, 0].mean() - mean_true) <= 3 * se

    def test_distribution_ks(self):
        draws = _conditional_rows(np.array([1.0]), 0.5, 1.7, 100_000,
                                  RngStream(5, 9))
        result = stats.kstest(draws[:, 0],
                              lambda x: np.array([oracles.truncated_cdf(v, 0.5, 1.7)
                                                  for v in np.atleast_1d(x)]))
        assert result.pvalue >= 0.01

    def test_degenerate_stratum(self):
        with pytest.raises(DegenerateStratum):
            _conditional_rows(np.array([1.0]), 39.0, 40.0, 10, RngStream(0))


class TestOptimalAllocation:
    def test_textbook_case(self):
        counts = optimal_allocation([0.5, 0.5], [1.0, 3.0], 100)
        np.testing.assert_array_equal(counts, [25, 75])

    def test_equal_deviations_give_proportional(self):
        counts = optimal_allocation([0.2, 0.3, 0.5], [2.0, 2.0, 2.0], 1000)
        np.testing.assert_array_equal(counts, [200, 300, 500])

    def test_zero_deviation_stratum_keeps_one(self):
        counts = optimal_allocation([0.9, 0.1], [0.0, 5.0], 10)
        np.testing.assert_array_equal(counts, [1, 9])

    def test_counts_sum_to_total(self):
        rng = RngStream(7, 9).generator
        for _ in range(20):
            raw = rng.random(6) + 0.01
            probs = raw / raw.sum()
            variances = rng.random(6)
            counts = optimal_allocation(probs, variances, 137)
            assert counts.sum() == 137
            assert np.all(counts >= 1)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            optimal_allocation([0.5, 0.6], [1.0, 1.0], 10)
        with pytest.raises(DomainError):
            optimal_allocation([0.5, 0.5], [0.0, 0.0], 10)
        with pytest.raises(DomainError):
            optimal_allocation([0.5, 0.5], [1.0, 1.0], 1)


class TestStrataFromShift:
    def test_two_strata(self):
        spec = strata_from_shift(np.array([3.0, 4.0]), 2)
        np.testing.assert_allclose(spec.direction, [0.6, 0.8], rtol=1e-14)
        np.testing.assert_array_equal(spec.levels, [-np.inf, 0.0, np.inf])
        np.testing.assert_allclose(spec.probs, [0.5, 0.5], rtol=1e-12)

    def test_equiprobable_deciles(self):
        spec = strata_from_shift(np.array([1.0]), 10)
        np.testing.assert_allclose(spec.probs, 0.1, rtol=1e-10)
        assert spec.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_shift_rejected(self):
        with pytest.raises(DomainError):
            strata_from_shift(np.zeros(3), 4)

    def test_probs_are_derived_not_passed(self):
        with pytest.raises(TypeError):
            StrataSpec(direction=np.array([1.0]),
                       levels=np.array([-np.inf, np.inf]), probs=np.array([0.5]))


class TestStratifiedEstimate:
    def test_single_stratum_is_plain_mc(self):
        spec = StrataSpec(direction=np.array([1.0]),
                          levels=np.array([-np.inf, np.inf]))
        model = ModelSpec.identity(1)
        report, rows = stratified_estimate(model, 1.0, spec, 0.2, 2000,
                                           RngStream(9))
        p = oracles.normal_tail(1.0)
        se = np.sqrt(p * (1 - p) / 2000)
        assert len(rows) == 1
        assert abs(report.estimate - p) <= 4 * se

    def test_identity_deciles_beats_plain_mc(self):
        model = ModelSpec.identity(1)
        spec = strata_from_shift(np.array([1.0]), 10)
        total = 10_000
        report, rows = stratified_estimate(model, 1.5, spec, 0.2, total,
                                           RngStream(10))
        p = oracles.normal_tail(1.5)
        half = report.rel_half_width * report.estimate
        assert abs(report.estimate - p) <= 3 * half / 1.96
        se_mc = np.sqrt(p * (1 - p) / total)
        assert half / 1.96 < se_mc
        assert sum(r["count"] for r in rows) == total

    def test_unbiased_across_seeds(self):
        model = ModelSpec.identity(1)
        spec = strata_from_shift(np.array([1.0]), 5)
        p = oracles.normal_tail(1.0)
        estimates, variances = [], []
        for seed in range(200):
            report, _ = stratified_estimate(model, 1.0, spec, 0.2, 400,
                                            RngStream(seed))
            estimates.append(report.estimate)
            variances.append((report.rel_half_width * report.estimate / 1.96) ** 2)
        pooled_se = np.sqrt(np.sum(variances)) / len(estimates)
        assert abs(np.mean(estimates) - p) <= 3 * pooled_se

    def test_two_step_with_ladder_direction(self):
        # direction from a ladder run, then stratify; pooled over seeds the
        # estimate stays on the oracle (per-seed intervals are heavy-tailed
        # when a near-empty stratum hides real mass, so aggregate)
        model = ModelSpec.linear_family(12)
        gamma = 1.5 * np.linalg.norm(model.coefficient_stack())
        p = analytic_tail_prob(model, gamma)
        estimates, variances = [], []
        for seed in range(10):
            theta, trace = run_ladder(model, LadderConfig(), RngStream(seed),
                                      gamma=gamma)
            spec = strata_from_shift(theta, 20)
            report, _ = stratified_estimate(
                model, gamma, spec, 0.2, 20_000, RngStream(seed),
                runs_exploration=trace.exploration_runs)
            assert report.runs_exploration == trace.exploration_runs
            estimates.append(report.estimate)
            variances.append((report.rel_half_width * report.estimate / 1.96) ** 2)
        pooled_se = np.sqrt(np.sum(variances)) / len(estimates)
        assert abs(np.mean(estimates) - p) <= 3 * pooled_se

    def test_budget_too_small(self):
        spec = strata_from_shift(np.array([1.0]), 10)
        with pytest.raises(DomainError):
            stratified_estimate(ModelSpec.identity(1), 1.0, spec, 0.2, 15,
                                RngStream(0))
