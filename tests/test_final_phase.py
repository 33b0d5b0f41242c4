"""The streaming final phase stops where a full re-reduction stops.

``estimate_to_precision`` and ``estimate_quantile`` test each batch from
running state and reduce the pooled sample only when that state allows a
stop; the quantile refinement also skips its sorted-pool pass on batches
whose running bracket sums rule a stop out.  The reference loops here
re-reduce the whole pooled sample after every batch instead, with the
explicit post-stratified estimator of ``oracles.post_stratified`` over slabs
read from the redrawn points; both must stop on the same batch with the same
report.
"""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from tailshift import (BudgetExhausted, LadderConfig, ModelSpec, RngStream,
                       estimate_quantile, estimate_to_precision)
from tailshift.model import oriented_response
from tailshift.multilevel import (FINAL_BATCH, FINAL_STREAM, QUANTILE_STREAM,
                                  SLABS, estimate_report, pooled_batches,
                                  report_from_sample, row_scale, run_ladder,
                                  slab_labels, z_value)
from tailshift import quantile as quantile_module
from tailshift.quantile import (_WIDEN_LIMIT, REFINE_FACTOR, QuantileReport,
                                _Bracket, _bracket_rule, _slope_at,
                                _survival_inverse)

SEEDS = range(4)


def redrawn_points(rng, stream, theta, batches):
    """The points of a final phase's first ``batches`` batches, redrawn from
    their streams."""
    return np.concatenate([
        rng.child(stream + i).shifted_normals(FINAL_BATCH, theta)[0]
        for i in range(batches)])


def reference_estimate(sample, points, level):
    """Post-stratified exceedance estimate and standard error at ``level``
    of a pooled sample, with slabs read from its points."""
    labels = oracles.slab_labels_of_points(points, sample.theta, SLABS)
    terms = np.where(sample.responses >= level,
                     np.exp(sample.log_weights), 0.0)
    return oracles.post_stratified(labels, terms, SLABS)


def reference_prob(model, gamma, target, rng, budget=1_000_000):
    """(report, pooled sample, converged), reducing the pool every batch."""
    theta, trace = run_ladder(model, LadderConfig(), rng, budget=budget,
                              gamma=gamma)
    exploration = trace.exploration_runs
    report = estimate_report(0.0, 0.0, 0, 0.95, exploration, gamma, theta)
    sample = None
    for batch in pooled_batches(model, gamma, theta, FINAL_BATCH, rng,
                                FINAL_STREAM, budget - exploration):
        sample = batch if sample is None else sample.merge(batch)
        points = redrawn_points(rng, FINAL_STREAM, theta,
                                sample.size // FINAL_BATCH)
        estimate, se = reference_estimate(sample, points, sample.gamma)
        report = estimate_report(estimate, se, sample.size, 0.95,
                                 exploration, gamma, theta)
        if report.zero_hits or report.rel_half_width <= target:
            return report, sample, True
    return dataclasses.replace(report, converged=False), sample, False


def reference_quantile(model, p, rng, precision=0.10, budget=1_000_000):
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
    for batch in pooled_batches(model, pivot_gamma, theta, FINAL_BATCH, rng,
                                QUANTILE_STREAM, budget - exploration):
        sample = batch if sample is None else sample.merge(batch)
        points = redrawn_points(rng, QUANTILE_STREAM, theta,
                                sample.size // FINAL_BATCH)
        labels = oracles.slab_labels_of_points(points, theta, SLABS)
        # row weights N / (I n_i) turn the pooled survival curve into the
        # post-stratified one
        counts = np.bincount(labels, minlength=SLABS)
        responses = sample.responses
        weights = (np.exp(sample.log_weights)
                   * (sample.size / (SLABS * counts))[labels])
        order = np.argsort(-responses, kind="stable")
        level = _survival_inverse(responses[order],
                                  np.cumsum(weights[order]), p * sample.size)
        if level is None or level == responses.max():
            widen += 1
            level = oriented_response(model, pivot_gamma)
            assert widen <= _WIDEN_LIMIT
            continue
        widen = 0
        estimate, se_p = reference_estimate(sample, points, level)
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
                                           RngStream(seed))
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
        estimate_to_precision(model, gamma, LadderConfig(), 0.01,
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
    # about 11 refinement batches per problem; the bracket skips all but
    # the first, the stopping one and at most one between
    model, p = QUANTILE_CASES["identity-1e-6"]
    passes = record_passes(monkeypatch)
    for seed in SEEDS:
        passes.clear()
        report, _ = estimate_quantile(model, p, LadderConfig(),
                                      RngStream(seed))
        assert report.runs_final >= 10_000
        assert len(passes) <= 3


@pytest.mark.parametrize("d", [1, 10, 110, 1010])
def test_labels_from_log_weights_match_the_points(d):
    gen = np.random.default_rng(d)
    theta = gen.standard_normal(d) * 4.0 / math.sqrt(d)
    points, log_weights = RngStream(d).shifted_normals(4000, theta)
    labels = slab_labels(log_weights, theta)
    np.testing.assert_array_equal(
        labels, oracles.slab_labels_of_points(points, theta, SLABS))
    # equiprobable slabs: about 400 rows each
    counts = np.bincount(labels, minlength=SLABS)
    assert counts.size == SLABS and counts.min() > 300 and counts.max() < 500


REPORT_CASES = {
    "identity-d1": (ModelSpec.identity(1), oracles.tail_quantile("1e-6")),
    "linear-d10": (ModelSpec.linear_family(10),
                   math.sqrt(10) * oracles.tail_quantile("1e-10")),
    "linear-d110": (ModelSpec.linear_family(110),
                    math.sqrt(10.01) * oracles.tail_quantile("3e-5")),
    # dimred="auto" selects variables at d=1010
    "linear-d1010": (ModelSpec.linear_family(1010),
                     math.sqrt(10.1) * oracles.tail_quantile("1e-6")),
}


@pytest.mark.parametrize("case", list(REPORT_CASES))
def test_final_phase_report_matches_the_reference(case):
    model, gamma = REPORT_CASES[case]
    rng = RngStream(5)
    report, trace, sample = estimate_to_precision(model, gamma,
                                                  LadderConfig(), 0.10, rng)
    assert sample.post_stratified and report.converged
    assert (trace.selection is not None) == (model.dimension > 500)
    points = redrawn_points(rng, FINAL_STREAM, report.theta,
                            sample.size // FINAL_BATCH)
    estimate, se = reference_estimate(sample, points, sample.gamma)
    assert_same_report(report, estimate_report(
        estimate, se, sample.size, 0.95, trace.exploration_runs, gamma,
        report.theta))
    # the same rows reduced as iid give a wider interval here
    iid = report_from_sample(dataclasses.replace(sample,
                                                 post_stratified=False))
    assert report.rel_half_width < iid.rel_half_width


def pool_of(responses, weights, labels):
    """The refinement's sorted pool, slab counts and scaled cumulative
    weights for rows in draw order."""
    order = np.argsort(-responses, kind="stable")
    desc = responses[order], weights[order], labels[order]
    counts = np.bincount(labels, minlength=SLABS).astype(float)
    cum = np.cumsum(desc[1] * row_scale(counts)[desc[2]])
    return desc, counts, cum


def iterate(pool_r, pool_w, pool_l, p):
    """The refinement's iterate over a pool in draw order."""
    desc, _, cum = pool_of(pool_r, pool_w, pool_l)
    return _survival_inverse(desc[0], cum, p * pool_r.size)


def one_per_slab(size):
    """Labels that give every slab the same count for size a multiple of
    SLABS, so each row weighs N / (I n_i) = 1."""
    return np.arange(size) % SLABS


class TestSkipRule:
    """A skipped batch is one whose full pass could neither stop nor widen."""

    P, Z = 0.05, z_value(0.95)
    # binary fractions keep every cumulative weight exact; P * 20 = 1, and
    # two rows per slab scale every weight by 1
    TIED_R = np.array([3.0, 2.0, 1.0, 1.0] + [0.0] * 16)
    TIED_W = np.array([0.375, 0.5, 0.125, 0.125] + [2.0 ** -10] * 16)
    TIED_L = one_per_slab(20)

    def bracket(self, responses, weights, labels, delta):
        desc, counts, cum = pool_of(responses, weights, labels)
        return _Bracket(desc, cum, self.P * responses.size, delta), counts

    @staticmethod
    def add(bracket, counts, responses, weights, labels):
        bracket.add(responses, weights, labels)
        counts += np.bincount(labels, minlength=SLABS)

    def test_bracket_sums_match_the_pool(self):
        gen = np.random.default_rng(0)
        r = np.round(gen.standard_normal(400), 1)
        w, labels = gen.random(400), gen.integers(0, SLABS, 400)
        bracket, _ = self.bracket(r, w, labels, 0.2)
        lo, hi = bracket.lo, bracket.hi
        assert lo < iterate(r, w, labels, self.P) < hi
        # ties: every pool element equal to lo or hi counts
        assert np.sum(r == lo) > 1 and np.sum(r == hi) > 1
        top = r >= hi
        np.testing.assert_allclose(
            bracket.s_hi, np.bincount(labels[top], w[top], SLABS), rtol=1e-12)
        np.testing.assert_allclose(
            bracket.q_hi, np.bincount(labels[top], w[top] ** 2, SLABS),
            rtol=1e-12)
        # the middle is the pool's [lo, hi) in pool order
        desc, _, _ = pool_of(r, w, labels)
        middle = (desc[0] >= lo) & (desc[0] < hi)
        for got, column in zip(bracket.middle, desc):
            np.testing.assert_array_equal(got, column[middle])

    def test_tie_at_hi_forces_a_full_pass(self):
        # the cumulative weight reaches P * m (1 - delta) inside a block of
        # equal responses and P * m = 1 one element later: the iterate is hi
        r = np.array([3.0, 2.0, 2.0, 2.0, 2.0, 1.0] + [0.0] * 14)
        w = np.array([0.125] + [0.375] * 4 + [0.125] + [2.0 ** -10] * 14)
        labels = one_per_slab(20)
        bracket, counts = self.bracket(r, w, labels, 0.125)
        assert iterate(r, w, labels, self.P) == bracket.hi == 2.0
        # s_hi holds the whole tied block, not the prefix up to its crossing
        assert bracket.s_hi.sum() == 1.625
        assert not bracket.rules_out_stop(counts, self.P, self.Z, 1e-9)

    def test_tie_at_lo_keeps_the_iterate_in_the_bracket(self):
        bracket, counts = self.bracket(self.TIED_R, self.TIED_W, self.TIED_L,
                                       0.125)
        assert (bracket.lo, bracket.hi) == (1.0, 2.0)
        # both pool elements tied at lo are in the middle
        np.testing.assert_array_equal(bracket.middle[0], [1.0, 1.0])
        # a batch tied at lo carries the crossing there: a skip, and the
        # full pass agrees that the iterate lies in [lo, hi)
        batch = (np.array([1.0] + [0.0] * 9), np.array([0.5] + [0.0] * 9),
                 one_per_slab(10))
        self.add(bracket, counts, *batch)
        assert bracket.rules_out_stop(counts, self.P, self.Z, 1e-9)
        pool = [np.concatenate(pair) for pair in zip(
            (self.TIED_R, self.TIED_W, self.TIED_L), batch)]
        assert iterate(*pool, self.P) == 1.0

    def test_iterate_below_lo_forces_a_full_pass(self):
        bracket, counts = self.bracket(self.TIED_R, self.TIED_W, self.TIED_L,
                                       0.125)
        # mass below lo only: P * m outgrows the mass down to lo
        batch = np.full(10, -1.0), np.full(10, 0.25), one_per_slab(10)
        self.add(bracket, counts, *batch)
        pool = [np.concatenate(pair) for pair in zip(
            (self.TIED_R, self.TIED_W, self.TIED_L), batch)]
        assert iterate(*pool, self.P) < bracket.lo
        assert not bracket.rules_out_stop(counts, self.P, self.Z, 1e-9)

    def test_mass_above_hi_forces_a_full_pass(self):
        gen = np.random.default_rng(1)
        r, w = gen.standard_normal(400), np.ones(400)
        labels = one_per_slab(400)
        bracket, counts = self.bracket(r, w, labels, 0.2)
        # a heavy batch beyond hi moves the crossing above it
        batch = np.full(10, bracket.hi + 1.0), np.full(10, 3.0), \
            one_per_slab(10)
        self.add(bracket, counts, *batch)
        pool = [np.concatenate(pair) for pair in zip((r, w, labels), batch)]
        assert iterate(*pool, self.P) >= bracket.hi
        assert not bracket.rules_out_stop(counts, self.P, self.Z, 1e-9)

    def test_an_empty_slab_reduces_the_pool_as_iid_rows(self):
        # slab 4 emptied into slab 5, and every row in slab 0: both pools
        # weigh every row 1 and reduce as iid rows
        emptied = self.TIED_L.copy()
        emptied[emptied == 4] = 5
        for target in (1e-9, 0.5, 1.0, 10.0):
            decisions = set()
            for labels in (emptied, np.zeros(20, dtype=np.intp)):
                bracket, counts = self.bracket(self.TIED_R, self.TIED_W,
                                               labels, 0.125)
                np.testing.assert_array_equal(row_scale(counts),
                                              np.ones(SLABS))
                decisions.add(bracket.rules_out_stop(counts, self.P, self.Z,
                                                     target))
            assert len(decisions) == 1

    def test_a_skip_is_never_a_stop(self):
        # coarse grids tie responses across the pool and the batches, and
        # random slabs give each slab its own row weight
        skips = 0
        for seed in range(40):
            gen = np.random.default_rng(seed)
            target = gen.uniform(0.05, 0.5)
            pool = (np.round(gen.standard_normal(200), 1),
                    gen.exponential(size=200), gen.integers(0, SLABS, 200))
            bracket, counts = self.bracket(*pool, gen.uniform(0.0, 0.3))
            for _ in range(8):
                batch = (np.round(gen.standard_normal(50) + gen.normal(), 1),
                         gen.exponential(size=50),
                         gen.integers(0, SLABS, 50))
                self.add(bracket, counts, *batch)
                pool = [np.concatenate(pair) for pair in zip(pool, batch)]
                if not bracket.rules_out_stop(counts, self.P, self.Z,
                                              target):
                    continue
                skips += 1
                level = iterate(*pool, self.P)
                assert bracket.lo <= level < bracket.hi <= pool[0].max()
                estimate, se = oracles.post_stratified(
                    pool[2], np.where(pool[0] >= level, pool[1], 0.0), SLABS)
                assert self.Z * se / estimate > target
        assert skips > 20
