import numpy as np
import pytest

import oracles
from tailshift import (BudgetExhausted, DomainError, LadderConfig, ModelSpec,
                       RngStream, estimate_probability, estimate_quantile)


class TestQuantileEstimate:
    def test_identity_one_in_ten_thousand(self):
        model = ModelSpec.identity(1)
        report, trace = estimate_quantile(model, 1e-4, LadderConfig(),
                                          RngStream(2))
        truth = oracles.tail_quantile("1e-4")
        half = report.rel_half_width * abs(report.quantile)
        assert report.converged
        assert abs(report.quantile - truth) <= half
        # interval widths in the sub-percent regime
        assert report.rel_half_width <= 0.01
        assert report.runs_exploration % 1000 == 0

    def test_scaled_linear_model(self):
        # doubling every coefficient doubles the quantile
        model = ModelSpec.linear([2.0])
        report, _ = estimate_quantile(model, 1e-4, LadderConfig(),
                                      RngStream(3))
        truth = 2.0 * oracles.tail_quantile("1e-4")
        assert truth == pytest.approx(7.438033, abs=1e-6)
        half = report.rel_half_width * abs(report.quantile)
        assert abs(report.quantile - truth) <= half

    def test_round_trip_through_probability(self):
        model = ModelSpec.identity(1)
        rng = RngStream(4)
        report, _ = estimate_quantile(model, 1e-4, LadderConfig(), rng)
        check = estimate_probability(model, report.quantile, report.theta,
                                     1000, RngStream(rng.seed, 9_000_000))
        half = check.rel_half_width * check.estimate
        assert abs(check.estimate - 1e-4) <= half

    def test_monotone_in_p_on_same_seed(self):
        model = ModelSpec.identity(1)
        q_rare, _ = estimate_quantile(model, 1e-4, LadderConfig(), RngStream(5))
        q_common, _ = estimate_quantile(model, 1e-3, LadderConfig(), RngStream(5))
        assert q_rare.quantile >= q_common.quantile

    def test_left_tail(self):
        model = ModelSpec.identity(1, tail="left")
        report, _ = estimate_quantile(model, 1e-4, LadderConfig(), RngStream(6))
        truth = -oracles.tail_quantile("1e-4")
        half = report.rel_half_width * abs(report.quantile)
        assert abs(report.quantile - truth) <= half

    def test_moderate_p_skips_the_ladder_climb(self):
        model = ModelSpec.identity(1)
        report, trace = estimate_quantile(model, 0.2, LadderConfig(),
                                          RngStream(7))
        assert len(trace.levels) == 1
        truth = oracles.normal_quantile(0.8)
        half = report.rel_half_width * abs(report.quantile)
        assert abs(report.quantile - truth) <= 3 * half

    def test_domain(self):
        with pytest.raises(DomainError):
            estimate_quantile(ModelSpec.identity(1), 1.5, LadderConfig(),
                              RngStream(0))

    def test_budget_exhausted_carries_partial(self):
        model = ModelSpec.identity(1)
        with pytest.raises(BudgetExhausted) as err:
            estimate_quantile(model, 1e-4, LadderConfig(), RngStream(8),
                              budget=5000)
        assert err.value.report is not None
        assert not err.value.report.converged


class TestSurvivalInverse:
    def test_inverts_weighted_curve(self):
        from tailshift.quantile import _survival_inverse
        responses = np.array([1.0, 2.0, 3.0, 4.0])
        weights = np.ones(4)
        # G(3.0) = 2/4 = 0.5
        assert _survival_inverse(responses, weights, 4, 0.5) == 3.0

    def test_none_when_mass_insufficient(self):
        from tailshift.quantile import _survival_inverse
        responses = np.array([1.0, 2.0])
        weights = np.array([1e-8, 1e-8])
        assert _survival_inverse(responses, weights, 2, 0.5) is None
