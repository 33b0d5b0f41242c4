"""Inverse problem: the threshold whose exceedance probability is p.

The shared ladder runs with a bracket level rule instead of a fixed target
level: it climbs until the weighted exceedance estimate of the tentative
next level drops below p, at which point the target quantile lies inside the
current batch's range.  The shift solved there then drives a refinement
phase that pools fresh batches and inverts the pooled survival curve at p;
where the ladder's levels were capped, the first batch re-solves the shift
for the rest (``multilevel.pooled_batches``).
That curve is post-stratified over the final phase's slabs along theta
(``multilevel.stratified_exceedance``): a row of slab i weighs
w N / (I n_i), so the curve is sum_i (1/I) mean_i(w 1{r >= t}).  The pool
is kept sorted by descending response, with each row's slab.  Each batch is
merged into it and one cumulative sum of the scaled weights is inverted at
p; the hits at that iterate are a prefix of the pool, so the stop test and
the report read the per-slab probability sums and second moments from
there, summed in the pool's order.  The quantile interval comes from
pushing the probability interval through the local slope of that curve (a
centered difference of its logarithm, no density estimate), read from the
same sorted pool.  The refinement stops once the probability interval at
the iterate is at most ``ROUND_TRIP_SHARE`` of the interval that a
``FINAL_BATCH``-run round trip through ``prob`` would report there, and at
most the precision.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, DomainError, NonMonotoneBracket
from .model import oriented_response
from .multilevel import (FINAL_BATCH, QUANTILE_STREAM, SLABS, check_underflow,
                         next_level, pooled_batches, row_scale, run_ladder,
                         slab_sums, stratified_exceedance, weighted_exceedance,
                         z_value)

# the refinement stops once its probability interval at the iterate is at
# most this share of the interval a FINAL_BATCH-run round trip through
# ``prob`` would report there; 0.7 let criterion 05's round trips fall below
# 45 of 50
ROUND_TRIP_SHARE = 0.5

_WIDEN_LIMIT = 5


@dataclass
class QuantileReport:
    quantile: float             # model units
    rel_half_width: float
    p: float
    runs_exploration: int
    runs_final: int
    speedup: float
    theta: np.ndarray | None = None
    converged: bool = True
    confidence: float = 0.95

    @property
    def runs_total(self):
        return self.runs_exploration + self.runs_final


def _survival_inverse(desc_r, cum, mass):
    """Largest t with sum_{y_i >= t} w_i >= mass, or None.

    ``desc_r`` holds the responses sorted by descending value and ``cum``
    the cumulative sum of their weights in that order.
    """
    k = int(np.searchsorted(cum, mass, side="left"))
    if k >= desc_r.size:
        return None
    return float(desc_r[k])


def _count_at_least(desc_r, value):
    """Number of elements of descending ``desc_r`` at least ``value``."""
    # the reversed view is ascending, and searching it copies nothing
    return desc_r.size - np.searchsorted(desc_r[::-1], value, side="left")


def _merge_batch(desc, batch):
    """Merge ``batch`` into the pool (responses, weights, slabs) ``desc``
    sorted by descending response.

    One stable sort of the concatenation: pool elements come before batch
    elements with an equal response, so the pool stays the stable
    descending sort of its batches in draw order.  The stable sort
    (timsort) takes the sorted pool as one run, so it sorts only the new
    rows and merges them into it in linear time.
    """
    pooled = [np.concatenate(pair) for pair in zip(
        desc, (batch.responses, batch.weights, batch.labels))]
    order = np.argsort(-pooled[0], kind="stable")
    return tuple(column[order] for column in pooled)


def _bracket_rule(p):
    """Ladder level rule that brackets the quantile of probability p.

    Levels follow the uncapped top-RHO statistic until its weighted
    exceedance falls to p; that batch's level is where the weighted survival
    curve crosses p, and it ends the ladder.
    """
    def rule(responses, weights):
        tentative = next_level(responses, math.inf)
        exceed, _ = weighted_exceedance(responses, weights, tentative)
        if exceed > p:
            return tentative, False
        order = np.argsort(-responses, kind="stable")
        level = _survival_inverse(responses[order],
                                  np.cumsum(weights[order]),
                                  p * responses.size)
        if level is None:
            raise NonMonotoneBracket(
                "batch weighted mass cannot reach the target probability")
        return level, True
    return rule


def _round_trip_width(hit_sum, hit_square_sum, m, z):
    """Relative half-width of a FINAL_BATCH-run iid estimate of the hit
    probability, from the hits' weight sum and sum of squared weights among
    m runs drawn under the same shift.

    The per-run relative variance v = (sum w^2 / m) / p^2 - 1, with
    p = sum w / m, gives z sqrt(v / FINAL_BATCH).
    """
    p = hit_sum / m
    v = hit_square_sum / m / (p * p) - 1.0
    return z * math.sqrt(max(v, 0.0) / FINAL_BATCH)


def _slope_at(responses, weights, level, g_at):
    """Slope -dS/dt of the weighted survival curve S at ``level``.

    S times a centered difference of log S, exact where log S is quadratic
    as in a Gaussian tail; a difference of S itself overstates the slope of
    the convex tail.  ``g_at`` is S(level), the ``weighted_exceedance``
    estimate there.  The half-step is one weighted standard deviation of
    the survivor responses; with no weight beyond level + step the
    difference is one-sided.
    """
    hits = responses >= level
    w, r = weights[hits], responses[hits]
    wsum = float(w.sum())
    mean = float((w * r).sum() / wsum)
    var = float((w * r ** 2).sum() / wsum - mean * mean)
    step = math.sqrt(max(var, 1e-30))
    g_hi, _ = weighted_exceedance(responses, weights, level + step)
    g_lo, _ = weighted_exceedance(responses, weights, level - step)
    if g_hi > 0.0:
        dlog = (math.log(g_lo) - math.log(g_hi)) / (2.0 * step)
    else:
        dlog = (math.log(g_lo) - math.log(g_at)) / step
    return max(g_at * dlog, 1e-300)


def estimate_quantile(model, p, rng, precision=0.10, budget=1_000_000,
                      confidence=0.95, **ladder):
    """Estimate the level whose exceedance probability is p, with a CI.

    Returns (QuantileReport, LadderTrace).  Refinement batches hold
    FINAL_BATCH runs each.  After every batch the iterate inverts the
    pool's post-stratified survival curve at p.  The hits at that iterate
    are a prefix of the pool sorted by descending response, and their
    per-slab sums are reduced once per batch.  The refinement stops once
    the post-stratified probability estimate there reaches a relative
    half-width of min(precision, ROUND_TRIP_SHARE * rt), where rt is the
    relative half-width that a FINAL_BATCH-run ``prob`` round trip at the
    iterate would report: z sqrt(v / FINAL_BATCH), with v the pool's iid
    per-run relative variance of the hits (``_round_trip_width``).  So
    ``precision`` stays a ceiling on the probability interval.  The
    quantile interval is that probability interval divided by the local
    survival slope of the same sorted pool.
    A budget partial reports the last batch's iterate, or the pivot while
    the refinement widens.  ``ladder`` holds ``run_ladder``'s keyword
    settings, passed on unchanged.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("target probability must lie in (0, 1)")
    check_underflow(p)
    if not 0.0 < precision < 1.0:
        raise DomainError("target relative half-width must lie in (0, 1)")
    z = z_value(confidence)
    theta, trace = run_ladder(model, rng, level_rule=_bracket_rule(p),
                              budget=budget, **ladder)
    exploration = trace.exploration_runs
    # the last ladder level brackets p; refinement batches are drawn there
    pivot_gamma = trace.levels[-1].gamma
    pivot = oriented_response(model, pivot_gamma)

    widen = 0
    level = pivot
    m = 0
    # the sorted pool: responses, weights, slabs
    desc = (np.empty(0), np.empty(0), np.empty(0, dtype=np.intp))
    counts = np.zeros(SLABS)
    for batch in pooled_batches(model, pivot_gamma, trace, rng,
                                QUANTILE_STREAM, budget - exploration):
        theta = batch.theta     # the report's shift is the latest batch's
        m += batch.size
        counts += np.bincount(batch.labels, minlength=SLABS)
        desc = _merge_batch(desc, batch)
        desc_r, desc_w, desc_l = desc
        # rows weighted m / (I n_i): the post-stratified survival curve
        scaled = desc_w * row_scale(counts)[desc_l]
        level = _survival_inverse(desc_r, np.cumsum(scaled), p * m)
        if level is None or level == desc_r[0]:
            # quantile sits beyond the sampled range; widen with more batches
            widen += 1
            level = pivot
            if widen > _WIDEN_LIMIT:
                raise NonMonotoneBracket(
                    "quantile refinement cannot bracket the target probability")
            continue
        widen = 0
        # the hits at level are a prefix of the sorted pool
        hits = _count_at_least(desc_r, level)
        _, s1, q = slab_sums(desc_l[:hits], desc_w[:hits])
        estimate, se_p = stratified_exceedance(counts, s1, q)
        round_trip = _round_trip_width(float(s1.sum()), float(q.sum()), m, z)
        if z * se_p / estimate > min(precision, ROUND_TRIP_SHARE * round_trip):
            continue
        slope = _slope_at(desc_r, scaled, level, estimate)
        half = z * se_p / slope
        quantile = float(oriented_response(model, level))
        rel = half / max(abs(quantile), 1e-300)
        # plain MC would need this many runs for the same quantile interval
        n_mc = estimate * max(1.0 - estimate, 0.0) * (z / (slope * half)) ** 2
        report = QuantileReport(
            quantile=quantile,
            rel_half_width=rel,
            p=p,
            runs_exploration=exploration,
            runs_final=m,
            speedup=n_mc / (exploration + m),
            theta=theta,
            converged=True,
            confidence=confidence)
        return report, trace
    report = QuantileReport(
        quantile=float(oriented_response(model, level)),
        rel_half_width=math.inf, p=p, runs_exploration=exploration,
        runs_final=m, speedup=0.0, theta=theta,
        converged=False, confidence=confidence)
    raise BudgetExhausted(
        f"budget of {budget} runs hit during quantile refinement",
        report=report, trace=trace)
