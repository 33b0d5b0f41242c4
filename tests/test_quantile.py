import math
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from tailshift import (BudgetExhausted, DomainError, LadderConfig, ModelSpec,
                       NonMonotoneBracket, RngStream, draw_tail_sample,
                       estimate_quantile, report_from_sample)
from tailshift import quantile as quantile_module
from tailshift.multilevel import SLABS


class TestQuantileEstimate:
    def test_identity_one_in_ten_thousand(self):
        model = ModelSpec.identity(1)
        report, trace = estimate_quantile(model, 1e-4, LadderConfig(),
                                          RngStream(2))
        assert report.converged
        # coverage of the truth is counted over 200 seeds in test_coverage.py
        # interval widths in the sub-percent regime
        assert report.rel_half_width <= 0.01
        assert report.runs_exploration % 300 == 0

    def test_scaled_linear_model(self):
        # doubling every coefficient doubles the quantile, draw for draw:
        # same seed, same shifts, twice the responses
        unit, _ = estimate_quantile(ModelSpec.identity(1), 1e-4,
                                    LadderConfig(), RngStream(3))
        report, _ = estimate_quantile(ModelSpec.linear([2.0]), 1e-4,
                                      LadderConfig(), RngStream(3))
        assert report.quantile == 2.0 * unit.quantile
        assert report.rel_half_width == unit.rel_half_width
        assert report.runs_final == unit.runs_final

    def test_round_trip_through_probability(self):
        model = ModelSpec.identity(1)
        rng = RngStream(4)
        report, _ = estimate_quantile(model, 1e-4, LadderConfig(), rng)
        check = report_from_sample(
            draw_tail_sample(model, report.quantile, report.theta, 1000,
                             RngStream(rng.seed, 9_000_000)))
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

    @pytest.mark.parametrize("precision", [-0.1, 0.0, 1.0])
    def test_precision_outside_unit_interval(self, precision):
        # rejected before the ladder, as estimate_to_precision rejects its
        # target; a target of zero or less would refine until the budget
        with pytest.raises(DomainError, match="relative half-width"):
            estimate_quantile(ModelSpec.identity(1), 1e-3, LadderConfig(),
                              RngStream(0), precision=precision,
                              budget=30000)

    def test_budget_exhausted_carries_partial(self):
        model = ModelSpec.identity(1)
        with pytest.raises(BudgetExhausted) as err:
            estimate_quantile(model, 1e-4, LadderConfig(), RngStream(8),
                              budget=1900)
        assert err.value.report is not None
        assert not err.value.report.converged
        # the ladder's 900 runs and one refinement batch, before the stop
        assert err.value.report.runs_final == 1000


class TestBracketRule:
    def test_batch_too_light_to_reach_p(self):
        # the tentative level's exceedance is below p, yet the whole
        # batch's weight is too: no level of it has exceedance p
        from tailshift.quantile import _bracket_rule
        rule = _bracket_rule(0.5)
        with pytest.raises(NonMonotoneBracket):
            rule(np.arange(100.0), np.full(100, 1e-9))


class TestRefinementWidening:
    """The refinement widens while the pooled curve cannot reach p.

    ``_survival_inverse`` is wrapped so the ladder's bracket (its first
    call) works and every refinement inversion reports the quantile beyond
    the sampled range.
    """

    @pytest.fixture
    def never_brackets(self, monkeypatch):
        original = quantile_module._survival_inverse
        calls = []

        def inverse(*args):
            calls.append(args)
            return original(*args) if len(calls) == 1 else None
        monkeypatch.setattr(quantile_module, "_survival_inverse", inverse)

    def test_widen_limit_raises(self, never_brackets):
        with pytest.raises(NonMonotoneBracket):
            estimate_quantile(ModelSpec.identity(1), 1e-4, LadderConfig(),
                              RngStream(2))

    def test_budget_hit_while_widening_reports_pivot(self, never_brackets):
        with pytest.raises(BudgetExhausted) as err:
            estimate_quantile(ModelSpec.identity(1), 1e-4, LadderConfig(),
                              RngStream(2), budget=6000)
        report, trace = err.value.report, err.value.trace
        assert report.quantile == trace.levels[-1].gamma
        # 900 ladder runs, then 1000-run batches up to the budget
        assert report.runs_exploration == 900
        assert report.runs_final == 5000
        assert not report.converged


class TestSurvivalInverse:
    def test_inverts_weighted_curve(self):
        from tailshift.quantile import _survival_inverse
        # the pool comes sorted by descending response
        responses = np.array([4.0, 3.0, 2.0, 1.0])
        cum = np.cumsum(np.ones(4))
        # G(3.0) = 2/4 = 0.5
        assert _survival_inverse(responses, cum, 4 * 0.5) == 3.0

    def test_none_when_mass_insufficient(self):
        from tailshift.quantile import _survival_inverse
        responses = np.array([2.0, 1.0])
        cum = np.cumsum([1e-8, 1e-8])
        assert _survival_inverse(responses, cum, 2 * 0.5) is None


class TestSortedPool:
    """The refinement's sorted pool matches a full re-sort of the pool."""

    def test_merge_matches_stable_sort_with_ties_across_batches(self):
        from tailshift.quantile import _merge_batch
        gen = np.random.default_rng(0)
        desc = (np.empty(0), np.empty(0), np.empty(0, dtype=np.intp))
        batches = []
        for size in (50, 1, 200, 0, 73, 1000, 40):
            # a coarse grid puts equal responses in different batches
            batch = SimpleNamespace(
                responses=np.round(gen.standard_normal(size) * 2.0) / 2.0,
                weights=gen.random(size), labels=gen.integers(0, 10, size))
            desc = _merge_batch(desc, batch)
            batches.append((batch.responses, batch.weights, batch.labels))
            pooled = [np.concatenate(column) for column in zip(*batches)]
            order = np.argsort(-pooled[0], kind="stable")
            for got, column in zip(desc, pooled):
                np.testing.assert_array_equal(got, column[order])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_level_after_every_batch_matches_full_resort(self, monkeypatch,
                                                         seed):
        # the loop computes a level on every batch; each one must equal a
        # full re-sort of the pool as of its batch
        p = 1e-4
        original_pooled = quantile_module.pooled_batches
        original_inverse = quantile_module._survival_inverse
        samples, levels = [], []

        def pooled(*args, **kwargs):
            # record the pooled sample as of each fresh batch
            for batch in original_pooled(*args, **kwargs):
                samples.append(samples[-1].merge(batch) if samples else batch)
                yield batch

        def inverse(*args):
            level = original_inverse(*args)
            if samples:  # the ladder's bracket calls come first
                levels.append((len(samples), level))
            return level
        monkeypatch.setattr(quantile_module, "pooled_batches", pooled)
        monkeypatch.setattr(quantile_module, "_survival_inverse", inverse)
        report, _ = estimate_quantile(ModelSpec.identity(1), p,
                                      LadderConfig(), RngStream(seed))
        assert report.converged
        assert len(samples) > 1
        assert [count for count, _ in levels] == list(
            range(1, len(samples) + 1))
        for batch_count, level in levels:
            s = samples[batch_count - 1]
            # rows weigh N / (I n_i) on the post-stratified curve
            counts = np.bincount(s.labels, minlength=SLABS)
            weights = (np.exp(s.log_weights)
                       * (s.size / (SLABS * counts))[s.labels])
            order = np.argsort(-s.responses, kind="stable")
            assert level == original_inverse(
                s.responses[order], np.cumsum(weights[order]), p * s.size)


class TestSlope:
    def test_matches_gaussian_density_in_the_tail(self):
        # unit weights on the N(0, 1) quantile grid (i + 1/2) / n; only the
        # top 600 points matter, the rest sit far below the difference
        from tailshift.multilevel import weighted_exceedance
        from tailshift.quantile import _slope_at
        n, top = 100_000, 600
        responses = np.zeros(n)
        responses[n - top:] = [oracles.normal_quantile((i + 0.5) / n)
                               for i in range(n - top, n)]
        q = oracles.tail_quantile("1e-3")
        g_at, _ = weighted_exceedance(responses, np.ones(n), q)
        slope = _slope_at(responses, np.ones(n), q, g_at)
        assert abs(slope / oracles.normal_pdf(q) - 1.0) < 0.02

    def test_one_sided_when_nothing_lies_beyond_the_step(self):
        # survivors tied at the level: S(level + step) = 0 must not reach log
        from tailshift.quantile import _slope_at
        slope = _slope_at(np.array([0.0, 1.0, 2.0, 2.0]), np.ones(4), 2.0,
                          0.5)
        assert np.isfinite(slope) and slope > 0.0


class TestRoundTripWidth:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_the_closed_form_at_a_fixed_shift(self, seed):
        # 200,000 identity runs at the shift 4.5 around the 1e-6 quantile:
        # the estimate's spread is about 0.4% of the closed form
        from tailshift.multilevel import FINAL_BATCH, z_value
        from tailshift.quantile import _round_trip_width
        level = oracles.tail_quantile("1e-6")
        theta = np.array([4.5])
        points, log_weights = RngStream(seed).shifted_normals(200_000, theta)
        terms = np.where(points[:, 0] >= level, np.exp(log_weights), 0.0)
        z = z_value(0.95)
        width = _round_trip_width(terms.sum(), (terms * terms).sum(),
                                  terms.size, z)
        closed = z * math.sqrt(oracles.linear_relative_variance(
            theta, [1.0], level) / FINAL_BATCH)
        assert abs(width / closed - 1.0) < 0.02
