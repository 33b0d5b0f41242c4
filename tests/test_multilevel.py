import json
import math

import numpy as np
import pytest

import oracles
from tailshift import (BudgetExhausted, DegenerateBatch, DomainError,
                       LadderConfig, ModelSpec, RngStream,
                       analytic_tail_prob, draw_tail_sample,
                       estimate_to_precision, mc_equivalent_runs, next_level,
                       report_from_sample, run_ladder)
from tailshift.cli import _report_dict, emit_report
from tailshift.multilevel import estimate_report, level_size

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


class TestLevelSize:
    @pytest.mark.parametrize("d, rho, n", [
        (1, 0.1, 300), (15, 0.1, 300), (16, 0.1, 320), (20, 0.1, 400),
        (30, 0.1, 600), (49, 0.1, 980), (50, 0.1, 1000), (110, 0.1, 1000),
        (1010, 0.1, 1000), (30, 0.2, 300), (40, 0.2, 400), (100, 0.2, 1000),
        (101, 0.2, 1000), (80, 0.5, 320), (250, 0.5, 1000),
        # 2 * 84 / 0.35 is 480.00000000000006 in floating point
        (84, 0.35, 480)])
    def test_table(self, d, rho, n):
        assert level_size(d, rho) == n

    def test_ladder_draws_the_rule_size(self):
        model = ModelSpec.linear_family(20)
        _, trace = run_ladder(model, LadderConfig(), RngStream(0), gamma=10.0)
        assert [lvl.runs for lvl in trace.levels] == [400] * len(trace.levels)


class TestRunLadder:
    def test_single_level_when_gamma_easy(self):
        # gamma below the first batch's level: one level, solved once
        model = ModelSpec.identity(1)
        theta, trace = run_ladder(model, LadderConfig(), RngStream(0),
                                  gamma=0.0)
        assert len(trace.levels) == 1
        assert trace.levels[0].gamma == 0.0

    def test_identity_gamma_four_across_seeds(self):
        # closed-form minimizer at gamma = 4 sits near 4.2
        argmin = oracles.optimal_shift_1d(4.0)
        assert argmin == pytest.approx(4.2, abs=0.1)
        model = ModelSpec.identity(1)
        config = LadderConfig()
        for seed in range(50):
            theta, trace = run_ladder(model, config, RngStream(seed),
                                      gamma=4.0)
            assert 2 <= len(trace.levels) <= 5
            assert 3.5 <= theta[0] <= 4.6

    def test_levels_strictly_increase_to_gamma(self):
        model = ModelSpec.identity(1)
        for seed in range(10):
            _, trace = run_ladder(model, LadderConfig(), RngStream(seed),
                                  gamma=4.5)
            gammas = [lvl.gamma for lvl in trace.levels]
            assert all(a < b for a, b in zip(gammas, gammas[1:]))
            assert gammas[-1] == 4.5

    def test_survivor_floor(self):
        model = ModelSpec.identity(1)
        config = LadderConfig(rho=0.10)
        for seed in range(10):
            _, trace = run_ladder(model, config, RngStream(seed), gamma=4.0)
            floor = math.ceil(config.rho * level_size(1, config.rho)) - 1
            assert floor == 29
            assert all(lvl.survivor_count >= floor for lvl in trace.levels)

    def test_trace_estimates_decay_by_orders_of_magnitude(self):
        # exploration-phase shape: estimates drop by one decade or more per
        # level and the last one lands near the true tail probability
        model = ModelSpec.identity(1)
        _, trace = run_ladder(model, LadderConfig(), RngStream(3), gamma=5.0)
        estimates = [lvl.estimate for lvl in trace.levels]
        ratios = [b / a for a, b in zip(estimates, estimates[1:])]
        assert all(1e-4 <= r <= 0.6 for r in ratios)
        assert estimates[-1] == pytest.approx(oracles.normal_tail(5.0), rel=1.0)

    def test_left_tail(self):
        model = ModelSpec.identity(1, tail="left")
        theta, trace = run_ladder(model, LadderConfig(), RngStream(1),
                                  gamma=-4.0)
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
        theta, _ = run_ladder(model, LadderConfig(), RngStream(7), gamma=4.0)
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
        config = LadderConfig()
        report, _, _ = estimate_to_precision(
            model, -math.sqrt(10.01), config, 0.10, RngStream(2))
        assert report.speedup == mc_equivalent_runs(
            report.estimate, report.rel_half_width) / report.runs_total
        assert report.speedup < 1.0
        # ten slabs along the only coordinate of a d=1 model resolve the
        # same event well enough to beat plain MC after its 300-run level
        report, _, _ = estimate_to_precision(
            ModelSpec.identity(1), -1.0, config, 0.10, RngStream(2))
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
        config = LadderConfig()
        report, trace, sample = estimate_to_precision(
            model, 0.0, config, 0.10, RngStream(1))
        assert report.runs_final == 1000
        assert report.converged
        assert report.rel_half_width <= 0.10

    def test_runs_are_multiples_of_batch(self):
        model = ModelSpec.identity(1)
        config = LadderConfig()
        report, trace, _ = estimate_to_precision(
            model, 3.0, config, 0.10, RngStream(5))
        assert report.runs_final % 1000 == 0
        assert report.runs_exploration == 300 * len(trace.levels)

    def test_budget_exhausted_carries_partial(self):
        model = ModelSpec.identity(1)
        config = LadderConfig()
        with pytest.raises(BudgetExhausted) as err:
            estimate_to_precision(model, 4.0, config, 0.001, RngStream(0),
                                  budget=6000)
        assert err.value.report is not None
        assert not err.value.report.converged
        assert err.value.report.runs_total <= 6000

    def test_deterministic_given_seed(self):
        model = ModelSpec.linear_family(20)
        config = LadderConfig()
        a = estimate_to_precision(model, 10.0, config, 0.10, RngStream(3))
        b = estimate_to_precision(model, 10.0, config, 0.10, RngStream(3))
        assert a[0].estimate == b[0].estimate
        assert a[0].rel_half_width == b[0].rel_half_width


class TestUnbiasednessAndCoverage:
    def test_mean_within_pooled_se(self):
        # 50-run version of the unbiasedness check (the acceptance suite
        # runs the full 200)
        model = ModelSpec.identity(1)
        p = oracles.normal_tail(2.5)
        config = LadderConfig()
        estimates, variances = [], []
        m = 1000
        for seed in range(50):
            rng = RngStream(seed)
            theta, _ = run_ladder(model, config, rng, gamma=2.5)
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
        config = LadderConfig()
        covered = 0
        runs = 100
        for seed in range(runs):
            report, _, _ = estimate_to_precision(
                model, gamma, config, 0.10, RngStream(seed), budget=30_000)
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
        # batches' cached ones; a pool of uncached parts computes its own
        model = ModelSpec.identity(2)
        theta = np.array([1.0, 0.5])
        parts = [draw_tail_sample(model, 1.0, theta, 1000, RngStream(0, i))
                 for i in range(3)]
        fresh = parts[0].merge(*parts[1:])
        assert "labels" not in vars(fresh)
        cached = np.concatenate([part.labels for part in parts])
        carried = parts[0].merge(*parts[1:])
        assert "labels" in vars(carried)
        assert carried.labels.tobytes() == cached.tobytes()
        assert fresh.labels.tobytes() == cached.tobytes()

    def test_merge_of_labelled_parts_of_different_shifts(self):
        # each part's labels are read along its own shift; the pool carries
        # them and reports the last part's shift
        model = ModelSpec.identity(2)
        shifts = [np.array([1.0, 0.5]), np.array([1.2, 0.25]),
                  np.array([1.2, 0.25])]
        parts = [draw_tail_sample(model, 1.0, shift, 40, RngStream(0, i))
                 for i, shift in enumerate(shifts)]
        own = [part.labels for part in parts]
        merged = parts[0].merge(*parts[1:])
        assert "labels" in vars(merged)
        assert merged.labels.tobytes() == np.concatenate(own).tobytes()
        assert merged.theta is parts[-1].theta

    @pytest.mark.parametrize("unlabelled", [0, 1, 2])
    def test_merge_of_different_shifts_needs_every_label(self, unlabelled):
        model = ModelSpec.identity(2)
        shifts = [np.array([1.0, 0.5]), np.array([1.2, 0.25]),
                  np.array([1.0, 0.5])]
        parts = [draw_tail_sample(model, 1.0, shift, 40, RngStream(0, i))
                 for i, shift in enumerate(shifts)]
        for i, part in enumerate(parts):
            if i != unlabelled:
                part.labels     # cached
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
        config = LadderConfig(max_levels=2)
        with pytest.raises(MaxLevelsExceeded) as err:
            run_ladder(model, config, RngStream(0), gamma=20.0)
        assert len(err.value.trace.levels) == 2

    def test_stall_below_gamma_carries_trace(self, tmp_path):
        # the response never exceeds 3, so the levels stop at 3 below gamma 4
        from tailshift import MaxLevelsExceeded, SimulatorPool
        sim = tmp_path / "capped.py"
        sim.write_text(CAPPED_AT_3)
        model = ModelSpec.external(f"python3 {sim}", 2)
        with SimulatorPool(model.command) as pool:
            with pytest.raises(MaxLevelsExceeded) as err:
                run_ladder(model, LadderConfig(), RngStream(0), pool,
                           gamma=4.0)
        assert str(err.value) == "ladder stalled below gamma after 6 levels"
        levels = [lvl.gamma for lvl in err.value.trace.levels]
        assert levels == pytest.approx([1.27, 2.68, 3.0, 3.0, 3.0, 3.0],
                                       abs=0.005)
