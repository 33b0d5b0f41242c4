"""The streaming final phase stops where a full re-reduction stops.

``estimate_to_precision`` reduces each batch into per-slab sums carried
from the earlier batches, and ``estimate_quantile`` reduces the hits of
its pool kept sorted by descending response; each reduces once per batch.
The reference loops here re-reduce the whole pooled sample after every
batch instead, with the explicit post-stratified estimator of
``oracles.post_stratified`` over slabs read from the redrawn points, each
batch redrawn under its own shift.  The probability's pool is summed in
draw order and the quantile's in its stable descending-response order;
both must stop on the same batch with the same report.
"""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from tailshift import (BudgetExhausted, ModelSpec, RngStream,
                       estimate_quantile, estimate_to_precision, multilevel)
from tailshift.dimred import SubspaceSelection
from tailshift.model import oriented_response
from tailshift.multilevel import (FINAL_BATCH, FINAL_STREAM, QUANTILE_STREAM,
                                  SLABS, estimate_report, exceedance_terms,
                                  levels_capped, pooled_batches,
                                  report_from_sample, row_scale, run_ladder,
                                  slab_labels, slab_sums,
                                  stratified_exceedance, weighted_exceedance,
                                  z_value)
from tailshift.quantile import (_WIDEN_LIMIT, ROUND_TRIP_SHARE, QuantileReport,
                                _bracket_rule, _slope_at, _survival_inverse)

SEEDS = range(4)


def redrawn_labels(rng, stream, i, theta):
    """Slabs of the rows of a final phase's batch i, redrawn from its stream
    under its own shift ``theta`` and read along it."""
    points, _ = rng.child(stream + i).shifted_normals(FINAL_BATCH, theta)
    return oracles.slab_labels_of_points(points, theta, SLABS)


def reference_estimate(sample, labels, level):
    """Post-stratified exceedance estimate and standard error at ``level``
    of a pooled sample, with slabs ``labels`` read from its points."""
    terms = np.where(sample.responses >= level,
                     np.exp(sample.log_weights), 0.0)
    return oracles.post_stratified(labels, terms, SLABS)


def reference_prob(model, gamma, target, rng, budget=1_000_000):
    """(report, pooled sample, converged), reducing the pool every batch."""
    theta, trace = run_ladder(model, rng, budget=budget, gamma=gamma)
    exploration = trace.exploration_runs
    report = estimate_report(0.0, 0.0, 0, 0.95, exploration, gamma, theta)
    sample = None
    labels = np.empty(0, dtype=np.intp)
    for i, batch in enumerate(pooled_batches(
            model, gamma, trace, rng, FINAL_STREAM, budget - exploration)):
        sample = batch if sample is None else sample.merge(batch)
        labels = np.concatenate([
            labels, redrawn_labels(rng, FINAL_STREAM, i, batch.theta)])
        estimate, se = reference_estimate(sample, labels, sample.gamma)
        report = estimate_report(estimate, se, sample.size, 0.95,
                                 exploration, gamma, batch.theta)
        if report.zero_hits or report.rel_half_width <= target:
            return report, sample, True
    return dataclasses.replace(report, converged=False), sample, False


def reference_quantile(model, p, rng, precision=0.10, budget=1_000_000):
    """(quantile report, stop), re-sorting and reducing the pool every batch.

    ``stop`` is None for a budget partial, else the probability's relative
    half-width at the stop and the relative half-width ``round_trip`` of a
    FINAL_BATCH-run iid estimate there.
    """
    z = z_value(0.95)
    theta, trace = run_ladder(model, rng, level_rule=_bracket_rule(p))
    exploration = trace.exploration_runs
    pivot_gamma = trace.levels[-1].gamma
    widen = 0
    level = oriented_response(model, pivot_gamma)
    runs = 0
    sample = None
    labels = np.empty(0, dtype=np.intp)
    for i, batch in enumerate(pooled_batches(
            model, pivot_gamma, trace, rng, QUANTILE_STREAM,
            budget - exploration)):
        sample = batch if sample is None else sample.merge(batch)
        runs = sample.size
        theta = batch.theta
        labels = np.concatenate([
            labels, redrawn_labels(rng, QUANTILE_STREAM, i, theta)])
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
        # the pool's rows in its stable descending-response order: the hits
        # first
        terms = np.where(responses >= level, np.exp(sample.log_weights), 0.0)
        estimate, se_p = oracles.post_stratified(labels[order], terms[order],
                                                 SLABS)
        # the pool's iid per-run relative variance of the hits, in draw
        # order, sets the half-width of a FINAL_BATCH-run round trip
        p_iid = terms.sum() / runs
        v = (terms * terms).sum() / runs / p_iid ** 2 - 1.0
        round_trip = z * math.sqrt(v / FINAL_BATCH)
        rel_p = z * se_p / estimate
        if rel_p > min(precision, ROUND_TRIP_SHARE * round_trip):
            continue
        slope = _slope_at(responses[order], weights[order], level, estimate)
        half = z * se_p / slope
        quantile = float(oriented_response(model, level))
        # plain MC's runs for the same probability interval
        n_mc = z * z * max(1.0 - estimate, 0.0) / (estimate * rel_p * rel_p)
        report = QuantileReport(
            quantile=quantile, rel_half_width=half / max(abs(quantile), 1e-300),
            p=p, runs_exploration=exploration, runs_final=runs,
            speedup=n_mc / (exploration + runs), theta=theta)
        return report, (rel_p, round_trip)
    return QuantileReport(
        quantile=float(oriented_response(model, level)),
        rel_half_width=math.inf, p=p, runs_exploration=exploration,
        runs_final=runs, speedup=0.0, theta=theta,
        converged=False), None


def assert_same_report(got, want):
    np.testing.assert_equal(dataclasses.asdict(got), dataclasses.asdict(want))


PROB_CASES = {
    "identity-1e-6": (ModelSpec.identity(1), oracles.tail_quantile("1e-6")),
    "linear-d10-1e-10": (ModelSpec.linear_family(10),
                         math.sqrt(10) * oracles.tail_quantile("1e-10")),
    # capped ladder levels: the first batch re-solves the shift
    "linear-d110-3e-5": (ModelSpec.linear_family(110),
                         math.sqrt(10.01) * oracles.tail_quantile("3e-5")),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(PROB_CASES))
def test_prob_stops_on_the_same_batch(case, seed):
    model, gamma = PROB_CASES[case]
    want, want_sample, _ = reference_prob(model, gamma, 0.10, RngStream(seed))
    got, _, sample = estimate_to_precision(model, gamma, 0.10, RngStream(seed))
    assert got.runs_final == want.runs_final
    assert_same_report(got, want)
    assert_same_report(got, report_from_sample(sample, 0.95,
                                               got.runs_exploration, gamma))
    np.testing.assert_array_equal(sample.responses, want_sample.responses)
    np.testing.assert_array_equal(sample.log_weights, want_sample.log_weights)


@pytest.mark.parametrize("seed", SEEDS)
def test_prob_budget_partial_matches(seed):
    model, gamma = PROB_CASES["identity-1e-6"]
    want, want_sample, converged = reference_prob(
        model, gamma, 0.01, RngStream(seed), budget=12_000)
    assert not converged
    with pytest.raises(BudgetExhausted) as err:
        estimate_to_precision(model, gamma, 0.01, RngStream(seed),
                              budget=12_000)
    got = err.value.report
    assert got.runs_final == want.runs_final > 0
    assert_same_report(got, want)
    assert_same_report(got, dataclasses.replace(report_from_sample(
        want_sample, 0.95, got.runs_exploration, gamma), converged=False))


QUANTILE_CASES = {
    "identity-1e-4": (ModelSpec.identity(1), 1e-4),
    "skewed-1e-5": (ModelSpec.skewed(), 1e-5),
    # the two quantile kinds of the benchmark's low-dimensional mix
    "identity-1e-6": (ModelSpec.identity(1), 1e-6),
    "skewed-1e-6": (ModelSpec.skewed(), 1e-6),
    "left-skewed-1e-6": (ModelSpec.skewed(tail="left"), 1e-6),
    "linear-d110-1e-5": (ModelSpec.linear_family(110), 1e-5),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(QUANTILE_CASES))
def test_quantile_stops_on_the_same_batch(case, seed):
    model, p = QUANTILE_CASES[case]
    want, stop = reference_quantile(model, p, RngStream(seed))
    assert stop is not None
    got, _ = estimate_quantile(model, p, RngStream(seed))
    assert got.runs_final == want.runs_final
    assert_same_report(got, want)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("precision", [0.10, 0.05])
def test_quantile_stop_is_the_tighter_of_precision_and_round_trip(precision,
                                                                  seed):
    # a round trip at p=1e-6 reads about 14%: half of it is below the
    # default precision, which the round trip then sets, and above 5%,
    # where the precision is the ceiling that sets the stop
    model, p = QUANTILE_CASES["identity-1e-6"]
    want, (rel_p, round_trip) = reference_quantile(model, p, RngStream(seed),
                                                   precision=precision)
    got, _ = estimate_quantile(model, p, RngStream(seed), precision=precision)
    assert_same_report(got, want)
    limit = ROUND_TRIP_SHARE * round_trip
    assert rel_p <= min(precision, limit)
    assert (limit < precision) == (precision == 0.10)


@pytest.mark.parametrize("seed", SEEDS)
def test_quantile_budget_partial_matches(seed):
    model, p = QUANTILE_CASES["identity-1e-6"]
    full, _ = estimate_quantile(model, p, RngStream(seed))
    stop = full.runs_final // FINAL_BATCH
    # end the budget 1 batch before the stop, and with the ladder alone
    for batches in (stop - 1, 0):
        budget = full.runs_exploration + FINAL_BATCH * batches
        want, stop_widths = reference_quantile(model, p, RngStream(seed),
                                               budget=budget)
        assert stop_widths is None
        with pytest.raises(BudgetExhausted) as err:
            estimate_quantile(model, p, RngStream(seed), budget=budget)
        got = err.value.report
        assert got.runs_final == want.runs_final == 1000 * batches
        assert_same_report(got, want)


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
    report, trace, sample = estimate_to_precision(model, gamma, 0.10, rng)
    assert sample.labels is not None and report.converged
    assert (trace.selection is not None) == (model.dimension > 500)
    # one re-solve at most: every batch after the first shares the last
    # batch's shift
    thetas = [trace.levels[-1].theta] + [report.theta] * (
        sample.size // FINAL_BATCH - 1)
    labels = np.concatenate([redrawn_labels(rng, FINAL_STREAM, i, theta)
                             for i, theta in enumerate(thetas)])
    estimate, se = reference_estimate(sample, labels, sample.gamma)
    assert_same_report(report, estimate_report(
        estimate, se, sample.size, 0.95, trace.exploration_runs, gamma,
        report.theta))
    # the same rows reduced as iid give a wider interval here
    iid = report_from_sample(dataclasses.replace(sample, labels=None))
    assert report.rel_half_width < iid.rel_half_width


def test_an_empty_slab_reduces_the_pool_as_iid_rows():
    # slab 4 emptied into slab 5, and every row in slab 0: both pools weigh
    # every row 1 and reduce as iid rows; binary fractions keep every sum
    # exact
    responses = np.array([3.0, 2.0, 1.0, 1.0] + [0.0] * 16)
    weights = np.array([0.375, 0.5, 0.125, 0.125] + [2.0 ** -10] * 16)
    emptied = np.arange(20) % SLABS
    emptied[emptied == 4] = 5
    for level in (1.0, 0.0):
        estimate, se = weighted_exceedance(responses, weights, level)
        terms = exceedance_terms(responses, weights, level)
        for labels in (emptied, np.zeros(20, dtype=np.intp)):
            counts, s1, q = slab_sums(labels, terms)
            np.testing.assert_array_equal(row_scale(counts), np.ones(SLABS))
            assert stratified_exceedance(counts, s1, q) == (estimate, se)


@pytest.mark.parametrize("parts", range(1, 6))
def test_carried_slab_sums_equal_one_pass_over_the_pool(parts):
    gen = np.random.default_rng(parts)
    sizes = gen.integers(50, 400, parts)
    labels = [gen.integers(0, SLABS, n) for n in sizes]
    # slab 3 is empty in the first part, and in the pool of one part
    labels[0][labels[0] == 3] = 4
    # weights over many magnitudes, about a third of them hits
    terms = [np.exp(gen.normal(-20.0, 5.0, n)) * (gen.random(n) < 0.3)
             for n in sizes]
    for kind in ("weights", "zeros"):
        if kind == "zeros":
            terms = [np.zeros(n) for n in sizes]
        carried = None
        for part_labels, part_terms in zip(labels, terms):
            carried = slab_sums(part_labels, part_terms, carried)
        np.testing.assert_array_equal(
            carried, slab_sums(np.concatenate(labels), np.concatenate(terms)))


def test_levels_are_capped_only_past_the_level_cap():
    # 2 k / RHO > 1000 at RHO = 0.1: d=110 yes; d=10, d=50 and a d=1010
    # selection of at most 50 coordinates no
    assert levels_capped(110)
    assert not levels_capped(10)
    assert not levels_capped(50)
    for size in (12, 18, 50):
        selection = SubspaceSelection(np.arange(size), 1010)
        assert not levels_capped(1010, selection)
    assert levels_capped(1010, SubspaceSelection(np.arange(51), 1010))


@pytest.mark.parametrize("d", [10, 110, 1010])
def test_the_shift_is_resolved_once_where_levels_are_capped(d):
    model = ModelSpec.linear_family(d)
    gamma = (np.linalg.norm(model.coeffs)
             * oracles.tail_quantile("3e-5"))
    report, trace, sample = estimate_to_precision(
        model, gamma, 0.05, RngStream(2))
    assert (trace.selection is not None) == (d == 1010)
    assert sample.size > FINAL_BATCH
    assert np.array_equal(report.theta, sample.theta)
    ladder_theta = trace.levels[-1].theta
    assert np.array_equal(report.theta, ladder_theta) == (d != 110)


def ladder_and_batches(model, gamma, seed, room):
    """The ladder's shift and trace, and the final batches that fit
    ``room``."""
    rng = RngStream(seed)
    theta, trace = run_ladder(model, rng, gamma=gamma)
    return theta, trace, list(pooled_batches(model, gamma, trace, rng,
                                             FINAL_STREAM, room))


def test_each_batch_keeps_its_own_shift_and_labels():
    model = ModelSpec.linear_family(110)
    gamma = math.sqrt(10.01) * oracles.tail_quantile("3e-5")
    rng = RngStream(3)
    theta, trace, batches = ladder_and_batches(model, gamma, 3,
                                               3 * FINAL_BATCH + 999)
    assert len(batches) == 3
    # the first batch is drawn under the ladder's shift, every later one
    # under the one re-solved on the first batch's hits
    assert np.array_equal(batches[0].theta, theta)
    assert not np.array_equal(batches[1].theta, theta)
    assert np.array_equal(batches[2].theta, batches[1].theta)
    for i, batch in enumerate(batches):
        assert batch.labels is not None and batch.points is None
        np.testing.assert_array_equal(
            batch.labels, redrawn_labels(rng, FINAL_STREAM, i, batch.theta))
    pooled = batches[0].merge(*batches[1:])
    np.testing.assert_array_equal(
        pooled.labels, np.concatenate([b.labels for b in batches]))
    np.testing.assert_array_equal(pooled.theta, batches[-1].theta)


def test_no_resolve_when_the_room_holds_one_batch(monkeypatch):
    model = ModelSpec.linear_family(110)
    gamma = math.sqrt(10.01) * oracles.tail_quantile("3e-5")
    solves = []
    resolved_shift = multilevel._resolved_shift

    def counted(*args):
        solves.append(args)
        return resolved_shift(*args)
    monkeypatch.setattr(multilevel, "_resolved_shift", counted)
    for room, batches_drawn in ((2 * FINAL_BATCH - 1, 1),
                                (2 * FINAL_BATCH, 2)):
        solves.clear()
        theta, _, batches = ladder_and_batches(model, gamma, 3, room)
        assert len(batches) == batches_drawn
        assert len(solves) == batches_drawn - 1
        assert np.array_equal(batches[0].theta, theta)


@pytest.mark.parametrize("model", [ModelSpec.linear(np.ones(110)),
                                   ModelSpec.linear_family(110)],
                         ids=["dense", "linear-family"])
def test_resolved_shift_lowers_the_exact_variance(model):
    # the closed-form per-run relative variance at p = 3e-5: the re-solved
    # shift reads below the ladder's on every seed
    c = model.coeffs.ravel()
    gamma = float(np.linalg.norm(c)) * oracles.tail_quantile("3e-5")
    for seed in range(10):
        theta, _, batches = ladder_and_batches(model, gamma, seed,
                                               2 * FINAL_BATCH)
        assert (oracles.linear_relative_variance(batches[1].theta, c, gamma)
                < oracles.linear_relative_variance(theta, c, gamma))
