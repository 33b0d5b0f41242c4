import numpy as np
import pytest
from scipy import stats

import oracles
from tailshift import (DomainError, ModelSpec, RngStream, analytic_tail_prob,
                       response_values, run_ladder, stratified_estimate)
from tailshift.multilevel import STRATA_STREAM
from tailshift.core import slab_levels
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


class TestStrataFromShift:
    def test_two_strata(self):
        np.testing.assert_array_equal(slab_levels(2), [-np.inf, 0.0, np.inf])
        _, rows = stratified_estimate(ModelSpec.identity(2), 1.0,
                                      np.array([3.0, 4.0]), 2, 10,
                                      RngStream(0))
        np.testing.assert_allclose([r["prob"] for r in rows], [0.5, 0.5],
                                   rtol=1e-12)

    def test_equiprobable_deciles(self):
        _, rows = stratified_estimate(ModelSpec.identity(1), 1.0,
                                      np.array([1.0]), 10, 20, RngStream(0))
        probs = np.array([r["prob"] for r in rows])
        np.testing.assert_allclose(probs, 0.1, rtol=1e-10)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_zero_shift_rejected(self):
        with pytest.raises(DomainError, match="zero shift"):
            stratified_estimate(ModelSpec.identity(3), 1.0, np.zeros(3), 4,
                                100, RngStream(0))

    def test_no_stratum_rejected(self):
        with pytest.raises(DomainError, match="at least one stratum"):
            stratified_estimate(ModelSpec.identity(1), 1.0, np.array([1.0]),
                                0, 100, RngStream(0))


class TestStratifiedEstimate:
    def test_single_stratum_is_plain_mc(self):
        # one slab under the shift is plain importance sampling
        np.testing.assert_array_equal(slab_levels(1), [-np.inf, np.inf])
        model = ModelSpec.identity(1)
        report, rows = stratified_estimate(model, 1.0, np.array([1.0]), 1,
                                           2000, RngStream(9))
        p = oracles.normal_tail(1.0)
        se = np.sqrt(p * (1 - p) / 2000)
        assert len(rows) == 1
        assert abs(report.estimate - p) <= 4 * se

    def test_identity_deciles_beats_plain_mc(self):
        model = ModelSpec.identity(1)
        total = 10_000
        report, rows = stratified_estimate(model, 1.5, np.array([1.0]), 10,
                                           total, RngStream(10))
        p = oracles.normal_tail(1.5)
        half = report.rel_half_width * report.estimate
        assert abs(report.estimate - p) <= 3 * half / 1.96
        se_mc = np.sqrt(p * (1 - p) / total)
        assert half / 1.96 < se_mc
        assert sum(r["count"] for r in rows) == total

    def test_unbiased_across_seeds(self):
        model = ModelSpec.identity(1)
        p = oracles.normal_tail(1.0)
        estimates, variances = [], []
        for seed in range(200):
            report, _ = stratified_estimate(model, 1.0, np.array([1.0]), 5,
                                            400, RngStream(seed))
            estimates.append(report.estimate)
            variances.append((report.rel_half_width * report.estimate / 1.96) ** 2)
        pooled_se = np.sqrt(np.sum(variances)) / len(estimates)
        assert abs(np.mean(estimates) - p) <= 3 * pooled_se

    def test_two_step_with_ladder_direction(self):
        # shift from a ladder run, then stratify under it; pooled over
        # seeds the estimate stays on the oracle
        model = ModelSpec.linear_family(12)
        gamma = 1.5 * np.linalg.norm(model.coeffs)
        p = analytic_tail_prob(model, gamma)
        estimates, variances = [], []
        for seed in range(10):
            theta, trace = run_ladder(model, RngStream(seed), gamma=gamma)
            report, _ = stratified_estimate(
                model, gamma, theta, 20, 20_000, RngStream(seed),
                runs_exploration=trace.exploration_runs)
            assert report.runs_exploration == trace.exploration_runs
            estimates.append(report.estimate)
            variances.append((report.rel_half_width * report.estimate / 1.96) ** 2)
        pooled_se = np.sqrt(np.sum(variances)) / len(estimates)
        assert abs(np.mean(estimates) - p) <= 3 * pooled_se

    def test_slab_mean_weights_each_row_by_the_likelihood_ratio(self):
        # slab i's mean, recomputed from its own stream with the explicit
        # weight exp(-theta . x - |theta|^2 / 2) of each raw row x
        model = ModelSpec.linear_family(3)
        theta = np.array([1.2, 0.9, 0.6])
        direction, levels = theta / np.linalg.norm(theta), slab_levels(4)
        rng = RngStream(12)
        _, rows = stratified_estimate(model, 2.0, theta, 4, 1003, rng)
        for i, row in enumerate(rows):
            raw = _conditional_rows(direction, levels[i], levels[i + 1],
                                    row["count"],
                                    rng.child(STRATA_STREAM + i))
            weights = np.exp(-(raw @ theta) - 0.5 * (theta @ theta))
            hits = response_values(model, raw + theta) >= 2.0
            assert row["mean"] == float(np.where(hits, weights, 0.0).mean())
        assert [row["count"] for row in rows] == [251, 251, 251, 250]

    def test_underflow_fails_loudly(self):
        # p = 4.9e-198 at gamma 30: squared weights leave double range
        with pytest.raises(DomainError, match=r"p\^2 underflows"):
            stratified_estimate(ModelSpec.identity(1), 30.0, np.array([30.0]),
                                10, 1000, RngStream(0))

    def test_budget_too_small(self):
        with pytest.raises(DomainError):
            stratified_estimate(ModelSpec.identity(1), 1.0, np.array([1.0]),
                                10, 15, RngStream(0))
