import dataclasses
import json
import math
import re
import sys

import numpy as np
import pytest

import oracles
from tailshift import (BudgetExhausted, DegenerateBatch, DomainError,
                       ModelSpec, RngStream, analytic_tail_prob,
                       draw_tail_sample, estimate_quantile,
                       estimate_to_precision, mc_equivalent_runs, next_level,
                       report_from_sample, run_ladder)
from tailshift.cli import _report_dict, emit_report
from tailshift.multilevel import (LEVEL_CAP, RHO, check_underflow,
                                  estimate_report, level_size, levels_capped,
                                  slab_labels)

# an exec: simulator whose response is min(x1, 3)
CAPPED_AT_3 = """\
import sys
while True:
    header = sys.stdin.readline()
    if not header:
        break
    n, d = map(int, header.split()[1:])
    for _ in range(n):
        x1 = float(sys.stdin.readline().split()[0])
        print("%.17g" % min(x1, 3.0))
    sys.stdout.flush()
"""


def labelled(sample):
    """``sample`` carrying its rows' slab labels along its own shift, as a
    final-phase batch does."""
    return dataclasses.replace(
        sample, labels=slab_labels(sample.log_weights, sample.theta))


class TestNextLevel:
    def test_order_statistic_convention(self):
        responses = np.arange(1.0, 101.0)
        assert next_level(responses, 1e6) == 91.0

    def test_matches_sorted_oracle(self):
        responses = RngStream(0).generator.standard_normal(137)
        idx = min(136, math.ceil((1 - RHO) * 137 - 1e-9))
        assert idx == 124
        assert next_level(responses, 1e6) == sorted(responses)[idx]

    def test_capped_at_gamma(self):
        responses = np.arange(1.0, 101.0)
        assert next_level(responses, 50.0) == 50.0

    def test_top_decile_when_below_gamma(self):
        # 0.9 * 101 = 90.9 rounds up to index 91
        responses = np.arange(1.0, 102.0)
        level = next_level(responses, 1e6)
        assert level == 92.0
        assert level < 1e6

    def test_degenerate_batch(self):
        with pytest.raises(DegenerateBatch):
            next_level(np.full(100, 3.3), 10.0)


LEVEL_SIZES = [(1, 100), (10, 280), (15, 380), (16, 400), (20, 480),
               (30, 680), (45, 980), (46, 1000), (49, 1000), (50, 1000),
               (110, 1000), (1010, 1000)]


class TestLevelSize:
    # each id names the kept fraction RHO the table's sizes follow from
    @pytest.mark.parametrize("d, n", LEVEL_SIZES,
                             ids=[f"{d}-{RHO}-{n}" for d, n in LEVEL_SIZES])
    def test_table(self, d, n):
        assert level_size(d) == n

    def test_capped_from_d46_resolved_past_k50(self):
        # every d the builtin-linear and exec-linear workloads run draws
        # LEVEL_CAP runs, and the final-phase re-solve still switches on
        # only past 50 solved coordinates
        assert level_size(45) < LEVEL_CAP
        assert all(level_size(d) == LEVEL_CAP for d in range(46, 1011))
        assert not levels_capped(50)
        assert levels_capped(51)

    def test_ladder_draws_the_rule_size(self):
        model = ModelSpec.linear_family(20)
        _, trace = run_ladder(model, RngStream(0), gamma=10.0)
        assert [lvl.runs for lvl in trace.levels] == (
            [level_size(20)] * len(trace.levels))


class TestRunLadder:
    def test_single_level_when_gamma_easy(self):
        # gamma below the first batch's level: one level, solved once
        model = ModelSpec.identity(1)
        theta, trace = run_ladder(model, RngStream(0), gamma=0.0)
        assert len(trace.levels) == 1
        assert trace.levels[0].gamma == 0.0

    def test_identity_gamma_four_across_seeds(self):
        # closed-form minimizer at gamma = 4 sits near 4.2
        argmin = oracles.optimal_shift_1d(4.0)
        assert argmin == pytest.approx(4.2, abs=0.1)
        model = ModelSpec.identity(1)
        for seed in range(50):
            theta, trace = run_ladder(model, RngStream(seed), gamma=4.0)
            assert 2 <= len(trace.levels) <= 5
            assert 3.5 <= theta[0] <= 4.6

    def test_levels_strictly_increase_to_gamma(self):
        model = ModelSpec.identity(1)
        for seed in range(10):
            _, trace = run_ladder(model, RngStream(seed), gamma=4.5)
            gammas = [lvl.gamma for lvl in trace.levels]
            assert all(a < b for a, b in zip(gammas, gammas[1:]))
            assert gammas[-1] == 4.5

    def test_survivor_floor(self):
        model = ModelSpec.identity(1)
        for seed in range(10):
            _, trace = run_ladder(model, RngStream(seed), gamma=4.0)
            floor = math.ceil(RHO * level_size(1)) - 1
            assert floor == 9
            assert all(lvl.survivor_count >= floor for lvl in trace.levels)

    def test_trace_estimates_decay_by_orders_of_magnitude(self):
        # exploration-phase shape: estimates drop by one decade or more per
        # level and the last one lands near the true tail probability
        model = ModelSpec.identity(1)
        _, trace = run_ladder(model, RngStream(3), gamma=5.0)
        estimates = [lvl.estimate for lvl in trace.levels]
        ratios = [b / a for a, b in zip(estimates, estimates[1:])]
        assert all(1e-4 <= r <= 0.6 for r in ratios)
        assert estimates[-1] == pytest.approx(oracles.normal_tail(5.0), rel=1.0)

    def test_left_tail(self):
        model = ModelSpec.identity(1, tail="left")
        theta, trace = run_ladder(model, RngStream(1), gamma=-4.0)
        assert theta[0] <= -3.5
        gammas = [lvl.gamma for lvl in trace.levels]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))


class TestEstimateProbability:
    def test_plain_mc_certain_event(self):
        model = ModelSpec.identity(1)
        report = report_from_sample(draw_tail_sample(
            model, -1e6, np.zeros(1), 500, RngStream(0, 9)))
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
        theta, _ = run_ladder(model, RngStream(7), gamma=4.0)
        report = report_from_sample(draw_tail_sample(
            model, 4.0, theta, 10_000, RngStream(7, 99)))
        p = oracles.normal_tail(4.0)
        half = report.rel_half_width * report.estimate
        assert abs(report.estimate - p) <= 1.6 * half  # 3 SE

    def test_zero_hits_flagged(self):
        model = ModelSpec.identity(1)
        report = report_from_sample(draw_tail_sample(
            model, 10.0, np.zeros(1), 100, RngStream(0, 1)))
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
        # the speedup charges the ladder's runs; at p = 0.84 and d = 110 its
        # 1000-run level outweighs what the shift and the slabs save
        model = ModelSpec.linear_family(110)
        report, _, _ = estimate_to_precision(
            model, -math.sqrt(10.01), 0.10, RngStream(2))
        assert report.speedup == mc_equivalent_runs(
            report.estimate, report.rel_half_width) / report.runs_total
        assert report.speedup < 1.0
        # ten slabs along the only coordinate of a d=1 model resolve the
        # same event well enough to beat plain MC after its ladder level
        report, _, _ = estimate_to_precision(
            ModelSpec.identity(1), -1.0, 0.10, RngStream(2))
        assert report.speedup > 1.0

    def test_zero_width_interval(self):
        # a zero standard error must not divide by zero in the speedup
        report = estimate_report(0.5, 0.0, 100)
        assert report.rel_half_width == 0.0
        assert report.speedup == math.inf
        emitted = json.loads(emit_report({"report": _report_dict(report)},
                                         "json"))
        assert emitted["report"]["speedup"] is None


class TestEstimateToPrecision:
    def test_target_met_in_first_batch(self):
        model = ModelSpec.identity(1)
        report, trace, sample = estimate_to_precision(
            model, 0.0, 0.10, RngStream(1))
        assert report.runs_final == 1000
        assert report.converged
        assert report.rel_half_width <= 0.10

    def test_runs_are_multiples_of_batch(self):
        model = ModelSpec.identity(1)
        report, trace, _ = estimate_to_precision(
            model, 3.0, 0.10, RngStream(5))
        assert report.runs_final % 1000 == 0
        assert report.runs_exploration == level_size(1) * len(trace.levels)

    def test_budget_exhausted_carries_partial(self):
        model = ModelSpec.identity(1)
        with pytest.raises(BudgetExhausted) as err:
            estimate_to_precision(model, 4.0, 0.001, RngStream(0), budget=6000)
        assert err.value.report is not None
        assert not err.value.report.converged
        assert err.value.report.runs_total <= 6000

    def test_deterministic_given_seed(self):
        model = ModelSpec.linear_family(20)
        a = estimate_to_precision(model, 10.0, 0.10, RngStream(3))
        b = estimate_to_precision(model, 10.0, 0.10, RngStream(3))
        assert a[0].estimate == b[0].estimate
        assert a[0].rel_half_width == b[0].rel_half_width


class TestUnbiasednessAndCoverage:
    def test_mean_within_pooled_se(self):
        # 50-run version of the unbiasedness check (the acceptance suite
        # runs the full 200)
        model = ModelSpec.identity(1)
        p = oracles.normal_tail(2.5)
        estimates, variances = [], []
        m = 1000
        for seed in range(50):
            rng = RngStream(seed)
            theta, _ = run_ladder(model, rng, gamma=2.5)
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
        gamma = 4.0 * np.linalg.norm(model.coeffs)
        p = analytic_tail_prob(model, gamma)
        covered = 0
        runs = 100
        for seed in range(runs):
            report, _, _ = estimate_to_precision(
                model, gamma, 0.10, RngStream(seed), budget=30_000)
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

    def test_weights_are_exponentiated_once(self):
        sample = draw_tail_sample(ModelSpec.identity(2), 1.0,
                                  np.array([1.0, 0.5]), 13, RngStream(0, 1))
        weights = sample.weights
        assert weights.tobytes() == np.exp(sample.log_weights).tobytes()
        assert sample.weights is weights

    def test_merged_weights_are_the_parts_weights(self):
        # the quantile refinement pools per-batch weights where a reference
        # exponentiates the merged sample
        model = ModelSpec.identity(2)
        theta = np.array([1.0, 0.5])
        a = draw_tail_sample(model, 1.0, theta, 13, RngStream(0, 1))
        b = draw_tail_sample(model, 1.0, theta, 29, RngStream(0, 2))
        assert a.merge(b).weights.tobytes() == np.concatenate(
            [a.weights, b.weights]).tobytes()

    def test_merged_labels_are_the_parts_labels(self):
        # the final phase's stop check reads the pool's labels from the
        # batches' own; a pool of unlabelled parts has none
        model = ModelSpec.identity(2)
        theta = np.array([1.0, 0.5])
        parts = [draw_tail_sample(model, 1.0, theta, 1000, RngStream(0, i))
                 for i in range(3)]
        assert parts[0].merge(*parts[1:]).labels is None
        parts = [labelled(part) for part in parts]
        merged = parts[0].merge(*parts[1:])
        own = np.concatenate([part.labels for part in parts])
        assert merged.labels.tobytes() == own.tobytes()
        assert merged.labels.tobytes() == slab_labels(
            merged.log_weights, merged.theta).tobytes()

    def test_merge_of_labelled_parts_of_different_shifts(self):
        # each part's labels are read along its own shift; the pool carries
        # them and reports the last part's shift
        model = ModelSpec.identity(2)
        shifts = [np.array([1.0, 0.5]), np.array([1.2, 0.25]),
                  np.array([1.2, 0.25])]
        parts = [labelled(draw_tail_sample(model, 1.0, shift, 40,
                                           RngStream(0, i)))
                 for i, shift in enumerate(shifts)]
        own = [part.labels for part in parts]
        merged = parts[0].merge(*parts[1:])
        assert merged.labels.tobytes() == np.concatenate(own).tobytes()
        assert merged.theta is parts[-1].theta

    @pytest.mark.parametrize("unlabelled", [0, 1, 2])
    def test_merge_of_different_shifts_needs_every_label(self, unlabelled):
        model = ModelSpec.identity(2)
        shifts = [np.array([1.0, 0.5]), np.array([1.2, 0.25]),
                  np.array([1.0, 0.5])]
        parts = [draw_tail_sample(model, 1.0, shift, 40, RngStream(0, i))
                 for i, shift in enumerate(shifts)]
        parts = [part if i == unlabelled else labelled(part)
                 for i, part in enumerate(parts)]
        with pytest.raises(DomainError):
            parts[0].merge(*parts[1:])

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

    @pytest.mark.parametrize("bad", ["gamma", "theta", "tail"])
    @pytest.mark.parametrize("position", [0, 1, 2])
    def test_multiway_merge_rejects_any_mismatch(self, bad, position):
        model = ModelSpec.identity(2)
        theta = np.array([1.0, 0.5])
        mismatch = {"gamma": (model, 2.0, theta),
                    "theta": (model, 1.0, np.array([1.0, 0.25])),
                    # the same oriented threshold, for the other tail
                    "tail": (ModelSpec.identity(2, tail="left"), -1.0, theta)}
        others = []
        for i in range(3):
            drawn, gamma, shift = (mismatch[bad] if i == position
                                   else (model, 1.0, theta))
            others.append(draw_tail_sample(drawn, gamma, shift, 5,
                                           RngStream(0, i + 1)))
        first = draw_tail_sample(model, 1.0, theta, 5, RngStream(0, 0))
        with pytest.raises(DomainError):
            first.merge(*others)


class TestMaxLevelsExceeded:
    def test_level_cap_carries_trace(self):
        from tailshift import MaxLevelsExceeded
        model = ModelSpec.identity(1)
        with pytest.raises(MaxLevelsExceeded) as err:
            run_ladder(model, RngStream(0), gamma=20.0, max_levels=2)
        assert len(err.value.trace.levels) == 2

    def test_stall_below_gamma_carries_trace(self, tmp_path):
        # the response never exceeds 3, so the levels stop at 3 below gamma 4
        from tailshift import MaxLevelsExceeded, SimulatorPool
        sim = tmp_path / "capped.py"
        sim.write_text(CAPPED_AT_3)
        with SimulatorPool(f"python3 {sim}") as pool:
            with pytest.raises(MaxLevelsExceeded) as err:
                run_ladder(ModelSpec.external(pool, 2), RngStream(0),
                           gamma=4.0)
        assert str(err.value) == "ladder stalled below gamma after 6 levels"
        levels = [lvl.gamma for lvl in err.value.trace.levels]
        assert levels == pytest.approx([1.15, 2.61, 3.0, 3.0, 3.0, 3.0],
                                       abs=0.005)
        assert [lvl.runs for lvl in err.value.trace.levels] == (
            [level_size(2)] * len(levels))


# a model no call can evaluate: response_values has no such kind
UNEVALUABLE = ModelSpec(kind="unevaluable", dimension=1)
LADDER_CALLS = {
    "run_ladder": lambda **ladder: run_ladder(
        UNEVALUABLE, RngStream(0), gamma=2.0, **ladder),
    "estimate_to_precision": lambda **ladder: estimate_to_precision(
        UNEVALUABLE, 2.0, 0.10, RngStream(0), **ladder),
    "estimate_quantile": lambda **ladder: estimate_quantile(
        UNEVALUABLE, 1e-4, RngStream(0), **ladder),
}


class TestLadderSettings:
    @pytest.mark.parametrize("call", LADDER_CALLS)
    def test_the_model_cannot_be_evaluated(self, call):
        with pytest.raises(KeyError, match="unevaluable"):
            LADDER_CALLS[call]()

    @pytest.mark.parametrize("call", LADDER_CALLS)
    @pytest.mark.parametrize("setting, message", [
        ({"max_levels": 0}, "max_levels must be at least 1"),
        ({"dimred": "sometimes"}, "dimred must be one of ('auto', 'on', "
                                  "'off'), got 'sometimes'")],
        ids=["max_levels", "dimred"])
    def test_bad_setting_raises_before_any_run(self, call, setting, message):
        with pytest.raises(DomainError, match=re.escape(message)):
            LADDER_CALLS[call](**setting)


class TestUnderflow:
    def test_the_power_of_p_must_be_normal(self):
        tiny = sys.float_info.min
        check_underflow(0.0)            # zero hits are reported, not refused
        check_underflow(2.0 * math.sqrt(tiny))
        with pytest.raises(DomainError, match=r"p\^2 underflows"):
            check_underflow(0.5 * math.sqrt(tiny))

    @pytest.mark.parametrize("gamma, refused", [(26.0, False), (30.0, True)])
    def test_report_from_sample(self, gamma, refused):
        # iid rows at theta = gamma: p = 2.5e-149 at 26, 4.9e-198 at 30
        sample = draw_tail_sample(ModelSpec.identity(1), gamma,
                                  np.array([gamma]), 2000, RngStream(1, 500))
        if refused:
            with pytest.raises(DomainError, match=r"p\^2 underflows"):
                report_from_sample(sample)
            return
        report = report_from_sample(sample)
        half = report.rel_half_width * report.estimate
        assert 0.0 < half
        assert abs(report.estimate - oracles.normal_tail(gamma)) <= 3 * half

    def test_ladder_level(self):
        # p is about 3.7e-350 at gamma 40: the first level whose estimate is
        # below 1.5e-154 is refused, before its weights, which the ladder
        # climbs further, underflow to zero and read as zero hits
        with pytest.raises(DomainError, match=r"p\^2 underflows"):
            run_ladder(ModelSpec.identity(1), RngStream(0), gamma=40.0,
                       max_levels=80)
