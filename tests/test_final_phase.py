"""The streaming final phase stops where a full re-reduction stops.

``estimate_to_precision`` and ``estimate_quantile`` test each batch from
running state and reduce the pooled sample only when that state allows a
stop; the quantile refinement also skips its sorted-pool pass on batches
whose running bracket sums rule a stop out.  The reference loops here
re-reduce the whole pooled sample after every batch instead; both must stop
on the same batch with the same report.
"""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from tailshift import (BudgetExhausted, LadderConfig, ModelSpec, RngStream,
                       estimate_quantile, estimate_to_precision)
from tailshift.model import oriented_response
from tailshift.multilevel import (FINAL_STREAM, QUANTILE_STREAM,
                                  estimate_report, pooled_batches,
                                  report_from_sample, run_ladder,
                                  weighted_exceedance, z_value)
from tailshift import quantile as quantile_module
from tailshift.quantile import (_WIDEN_LIMIT, REFINE_FACTOR, QuantileReport,
                                _bracket, _bracket_rule, _bracket_sums,
                                _rules_out_stop, _slope_at, _survival_inverse)

SEEDS = range(4)


def reference_prob(model, gamma, target, rng, budget=1_000_000, m0=1000):
    """(report, pooled sample, converged), reducing the pool every batch."""
    theta, trace = run_ladder(model, LadderConfig(), rng, budget=budget,
                              gamma=gamma)
    exploration = trace.exploration_runs
    report = estimate_report(0.0, 0.0, 0, 0.95, exploration, gamma, theta)
    sample = None
    for batch in pooled_batches(model, gamma, theta, m0, rng, FINAL_STREAM,
                                budget - exploration):
        sample = batch if sample is None else sample.merge(batch)
        report = report_from_sample(sample, 0.95, exploration, gamma)
        if report.zero_hits or report.rel_half_width <= target:
            return report, sample, True
    return dataclasses.replace(report, converged=False), sample, False


def reference_quantile(model, p, rng, precision=0.10, m0=1000,
                       budget=1_000_000):
    """(quantile report, converged), re-sorting and reducing the pool every
    batch."""
    config = LadderConfig()
    z = z_value(0.95)
    theta, trace = run_ladder(model, config, rng,
                              level_rule=_bracket_rule(p, config.rho))
    exploration = trace.exploration_runs
    pivot_gamma = trace.levels[-1].gamma
    widen = 0
    level = oriented_response(model, pivot_gamma)
    sample = None
    for batch in pooled_batches(model, pivot_gamma, theta, m0, rng,
                                QUANTILE_STREAM, budget - exploration):
        sample = batch if sample is None else sample.merge(batch)
        responses, weights = sample.responses, np.exp(sample.log_weights)
        order = np.argsort(-responses, kind="stable")
        level = _survival_inverse(responses[order],
                                  np.cumsum(weights[order]), p * sample.size)
        if level is None or level == responses.max():
            widen += 1
            level = oriented_response(model, pivot_gamma)
            assert widen <= _WIDEN_LIMIT
            continue
        widen = 0
        estimate, se_p = weighted_exceedance(responses, weights, level)
        if z * se_p / estimate > REFINE_FACTOR * precision:
            continue
        slope = _slope_at(responses, weights, level, estimate)
        half = z * se_p / slope
        quantile = float(oriented_response(model, level))
        n_mc = estimate * (1.0 - estimate) * (z / (slope * half)) ** 2
        return QuantileReport(
            quantile=quantile, rel_half_width=half / max(abs(quantile), 1e-300),
            p=p, runs_exploration=exploration, runs_final=sample.size,
            speedup=n_mc / (exploration + sample.size), theta=theta), True
    return QuantileReport(
        quantile=float(oriented_response(model, level)),
        rel_half_width=math.inf, p=p, runs_exploration=exploration,
        runs_final=sample.size, speedup=0.0, theta=theta,
        converged=False), False


def assert_same_report(got, want):
    np.testing.assert_equal(dataclasses.asdict(got), dataclasses.asdict(want))


PROB_CASES = {
    "identity-1e-6": (ModelSpec.identity(1), oracles.tail_quantile("1e-6")),
    "linear-d10-1e-10": (ModelSpec.linear_family(10),
                         math.sqrt(10) * oracles.tail_quantile("1e-10")),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(PROB_CASES))
def test_prob_stops_on_the_same_batch(case, seed):
    model, gamma = PROB_CASES[case]
    want, want_sample, _ = reference_prob(model, gamma, 0.10, RngStream(seed))
    got, _, sample = estimate_to_precision(model, gamma, LadderConfig(), 0.10,
                                           1000, RngStream(seed))
    assert got.runs_final == want.runs_final
    assert_same_report(got, want)
    np.testing.assert_array_equal(sample.responses, want_sample.responses)
    np.testing.assert_array_equal(sample.log_weights, want_sample.log_weights)


@pytest.mark.parametrize("seed", SEEDS)
def test_prob_budget_partial_matches(seed):
    model, gamma = PROB_CASES["identity-1e-6"]
    want, _, converged = reference_prob(model, gamma, 0.01, RngStream(seed),
                                        budget=12_000)
    assert not converged
    with pytest.raises(BudgetExhausted) as err:
        estimate_to_precision(model, gamma, LadderConfig(), 0.01, 1000,
                              RngStream(seed), budget=12_000)
    got = err.value.report
    assert got.runs_final == want.runs_final > 0
    assert_same_report(got, want)


QUANTILE_CASES = {
    "identity-1e-4": (ModelSpec.identity(1), 1e-4),
    "skewed-1e-5": (ModelSpec.skewed(), 1e-5),
    # the two quantile kinds of the benchmark's low-dimensional mix
    "identity-1e-6": (ModelSpec.identity(1), 1e-6),
    "skewed-1e-6": (ModelSpec.skewed(), 1e-6),
    "left-skewed-1e-6": (ModelSpec.skewed(tail="left"), 1e-6),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(QUANTILE_CASES))
def test_quantile_stops_on_the_same_batch(case, seed):
    model, p = QUANTILE_CASES[case]
    want, converged = reference_quantile(model, p, RngStream(seed))
    assert converged
    got, _ = estimate_quantile(model, p, LadderConfig(), RngStream(seed))
    assert got.runs_final == want.runs_final
    assert_same_report(got, want)


def record_passes(monkeypatch):
    """Batch counts at which the refinement runs a full sorted-pool pass."""
    batches, passes = [], []
    original_pooled = quantile_module.pooled_batches
    original_merge = quantile_module._merge_batches

    def pooled(*args, **kwargs):
        batches.clear()
        for batch in original_pooled(*args, **kwargs):
            batches.append(batch)
            yield batch

    def merge(*args):
        passes.append(len(batches))
        return original_merge(*args)
    monkeypatch.setattr(quantile_module, "pooled_batches", pooled)
    monkeypatch.setattr(quantile_module, "_merge_batches", merge)
    return passes


@pytest.mark.parametrize("seed", SEEDS)
def test_quantile_budget_partial_on_a_skipped_batch(monkeypatch, seed):
    model, p = QUANTILE_CASES["identity-1e-6"]
    passes = record_passes(monkeypatch)
    full, _ = estimate_quantile(model, p, LadderConfig(), RngStream(seed))
    # end the budget on the last batch the bracket skipped
    last_skipped = max(set(range(1, passes[-1])) - set(passes))
    budget = full.runs_exploration + 1000 * last_skipped
    passes.clear()
    want, converged = reference_quantile(model, p, RngStream(seed),
                                         budget=budget)
    assert not converged
    with pytest.raises(BudgetExhausted) as err:
        estimate_quantile(model, p, LadderConfig(), RngStream(seed),
                          budget=budget)
    got = err.value.report
    assert passes[-1] == last_skipped and passes[-2] < last_skipped
    assert got.runs_final == want.runs_final == 1000 * last_skipped
    assert_same_report(got, want)


def test_identity_quantile_takes_few_full_passes(monkeypatch):
    # about 27 refinement batches per problem; the bracket skips most
    model, p = QUANTILE_CASES["identity-1e-6"]
    passes = record_passes(monkeypatch)
    for seed in SEEDS:
        passes.clear()
        report, _ = estimate_quantile(model, p, LadderConfig(),
                                      RngStream(seed))
        assert report.runs_final >= 20_000
        assert len(passes) <= 12


def iterate(pool_r, pool_w, p):
    """The refinement's iterate over a pool in draw order."""
    order = np.argsort(-pool_r, kind="stable")
    return _survival_inverse(pool_r[order], np.cumsum(pool_w[order]),
                             p * pool_r.size)


class TestSkipRule:
    """A skipped batch is one whose full pass could neither stop nor widen."""

    P, Z = 0.05, z_value(0.95)
    # binary fractions keep every cumulative weight exact; P * 20 = 1
    TIED_R = np.array([3.0, 2.0, 1.0, 1.0] + [0.0] * 16)
    TIED_W = np.array([0.375, 0.5, 0.125, 0.125] + [2.0 ** -10] * 16)

    def bracket(self, desc_r, desc_w, delta):
        return _bracket(desc_r, desc_w, np.cumsum(desc_w),
                        self.P * desc_r.size, delta)

    def test_bracket_sums_match_the_pool(self):
        gen = np.random.default_rng(0)
        desc_r = np.sort(np.round(gen.standard_normal(400), 1))[::-1]
        desc_w = gen.random(400)
        lo, hi, sums = self.bracket(desc_r, desc_w, 0.2)
        assert lo < iterate(desc_r, desc_w, self.P) < hi
        # ties: every pool element equal to lo or hi counts
        assert np.sum(desc_r == lo) > 1 and np.sum(desc_r == hi) > 1
        np.testing.assert_allclose(
            sums, _bracket_sums(desc_r, desc_w, lo, hi), rtol=1e-12)

    def test_tie_at_hi_forces_a_full_pass(self):
        # the cumulative weight reaches P * m (1 - delta) inside a block of
        # equal responses and P * m = 1 one element later: the iterate is hi
        desc_r = np.array([3.0, 2.0, 2.0, 2.0, 2.0, 1.0] + [0.0] * 14)
        desc_w = np.array([0.125] + [0.375] * 4 + [0.125] + [2.0 ** -10] * 14)
        lo, hi, sums = self.bracket(desc_r, desc_w, 0.125)
        assert iterate(desc_r, desc_w, self.P) == hi == 2.0
        # s_hi holds the whole tied block, not the prefix up to its crossing
        assert sums[1] == 1.625
        assert not _rules_out_stop(sums, 20, self.P, self.Z, 1e-9)

    def test_tie_at_lo_keeps_the_iterate_in_the_bracket(self):
        lo, hi, sums = self.bracket(self.TIED_R, self.TIED_W, 0.125)
        assert (lo, hi) == (1.0, 2.0)
        # both pool elements tied at lo count toward s_lo
        assert sums[0] == 1.125
        # a batch tied at lo carries the crossing there: a skip, and the
        # full pass agrees that the iterate lies in [lo, hi)
        batch_r, batch_w = np.array([1.0, 0.0]), np.array([0.0625, 0.0])
        sums += _bracket_sums(batch_r, batch_w, lo, hi)
        assert _rules_out_stop(sums, 22, self.P, self.Z, 1e-9)
        assert iterate(np.concatenate([self.TIED_R, batch_r]),
                       np.concatenate([self.TIED_W, batch_w]), self.P) == lo

    def test_iterate_below_lo_forces_a_full_pass(self):
        lo, hi, sums = self.bracket(self.TIED_R, self.TIED_W, 0.125)
        # mass below lo only: P * m outgrows s_lo
        batch_r, batch_w = np.full(4, -1.0), np.full(4, 0.25)
        sums += _bracket_sums(batch_r, batch_w, lo, hi)
        assert iterate(np.concatenate([self.TIED_R, batch_r]),
                       np.concatenate([self.TIED_W, batch_w]), self.P) < lo
        assert not _rules_out_stop(sums, 24, self.P, self.Z, 1e-9)

    def test_mass_above_hi_forces_a_full_pass(self):
        gen = np.random.default_rng(1)
        desc_r = np.sort(gen.standard_normal(400))[::-1]
        desc_w = np.ones(400)
        lo, hi, sums = self.bracket(desc_r, desc_w, 0.2)
        # a heavy batch beyond hi moves the crossing above it
        batch_r, batch_w = np.full(10, hi + 1.0), np.full(10, 3.0)
        sums += _bracket_sums(batch_r, batch_w, lo, hi)
        assert iterate(np.concatenate([desc_r, batch_r]),
                       np.concatenate([desc_w, batch_w]), self.P) >= hi
        assert not _rules_out_stop(sums, 410, self.P, self.Z, 1e-9)

    def test_a_skip_is_never_a_stop(self):
        # coarse grids tie responses across the pool and the batches
        skips = 0
        for seed in range(40):
            gen = np.random.default_rng(seed)
            target = gen.uniform(0.05, 0.5)
            desc_r = np.sort(np.round(gen.standard_normal(200), 1))[::-1]
            desc_w = gen.exponential(size=200)
            lo, hi, sums = self.bracket(desc_r, desc_w, gen.uniform(0.0, 0.3))
            pool_r, pool_w = desc_r, desc_w
            for _ in range(8):
                batch_r = np.round(gen.standard_normal(50) + gen.normal(), 1)
                batch_w = gen.exponential(size=50)
                sums += _bracket_sums(batch_r, batch_w, lo, hi)
                pool_r = np.concatenate([pool_r, batch_r])
                pool_w = np.concatenate([pool_w, batch_w])
                if not _rules_out_stop(sums, pool_r.size, self.P, self.Z,
                                       target):
                    continue
                skips += 1
                level = iterate(pool_r, pool_w, self.P)
                assert lo <= level < hi <= pool_r.max()
                estimate, se = weighted_exceedance(pool_r, pool_w, level)
                assert self.Z * se / estimate > target
        assert skips > 20
