"""Inverse problem: the threshold whose exceedance probability is p.

The shared ladder runs with a bracket level rule instead of a fixed target
level: it climbs until the weighted exceedance estimate of the tentative
next level drops below p, at which point the target quantile lies inside the
current batch's range.  The shift solved there then drives a refinement
phase that pools fresh batches and inverts the pooled survival curve at p.
That curve is post-stratified over the final phase's slabs along theta
(``multilevel.stratified_exceedance``): a row of slab i weighs
w N / (I n_i), so the curve is sum_i (1/I) mean_i(w 1{r >= t}).  The pool
is kept sorted by descending response, with each row's slab, so the hits
at the inverted level are a prefix of it and the stop test reads the
per-slab probability sums and second moments from there.  Each such full
pass also brackets the iterate between two pool levels.  A later batch adds
its rows above the bracket to per-slab running sums and keeps its rows
inside it, so the crossing can be located among the bracket's rows alone;
the sorted pool is touched again (all pending batches merged at once) only
when that cannot rule out a stop.  Only when the stop test allows a stop is
the pool reduced in draw order, once, for the report.  The quantile interval
comes from pushing the probability interval through the local slope of
that curve (a centered difference of its logarithm, no density estimate).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, DomainError, NonMonotoneBracket
from .model import oriented_response
from .multilevel import (FINAL_BATCH, QUANTILE_STREAM, SLABS,
                         exceedance_terms, next_level, pooled_batches,
                         row_scale, run_ladder, slab_sums,
                         stratified_exceedance, summation_slack,
                         weighted_exceedance, width_exceeds, z_value)

# refinement is driven this much tighter than the configured probability
# precision so that round trips through the probability estimator stay
# inside their own interval
REFINE_FACTOR = 0.3

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


def _count_at_least(desc_r, values):
    """Number of elements of descending ``desc_r`` at least each value."""
    # the reversed view is ascending, and searching it copies nothing
    return desc_r.size - np.searchsorted(desc_r[::-1], values, side="left")


def _merge_runs(desc, runs):
    """Merge ``runs`` of (responses, weights, slabs), in draw order, into the
    columns ``desc`` sorted by descending response.

    One stable sort of the concatenation: elements of ``desc`` come before
    run elements with an equal response, and earlier runs before later
    ones, so the result is the stable descending sort of ``desc`` followed
    by the runs in draw order, whether they are merged at once or one at a
    time.  The stable sort (timsort) takes the sorted ``desc`` as one run,
    so it sorts only the new rows and merges them into it in linear time.
    """
    pooled = [np.concatenate(column) for column in zip(desc, *runs)]
    order = np.argsort(-pooled[0], kind="stable")
    return tuple(column[order] for column in pooled)


def _merge_batches(desc, batches):
    """Merge ``batches`` into the pool (responses, weights, slabs) sorted by
    descending response, in one pass."""
    return _merge_runs(desc, [(b.responses, b.weights, b.labels)
                              for b in batches])


class _Bracket:
    """Pool levels lo <= hi around the iterate's crossing, and the rows that
    later batches add around it.

    hi is where the scaled cumulative weight ``cum`` of the sorted pool
    reaches mass * (1 - delta), lo where it reaches mass * (1 + delta)
    (-inf if it never does).  Rows at or above hi enter per-slab sums of w
    and w^2; rows in [lo, hi) are kept, in pool order, so that the crossing
    can be located among them without the rest of the pool.
    """

    def __init__(self, desc, cum, mass, delta):
        desc_r, desc_w, desc_l = desc
        k_hi, k_lo = np.searchsorted(cum, [mass * (1.0 - delta),
                                           mass * (1.0 + delta)], side="left")
        self.hi = float(desc_r[k_hi])
        self.lo = float(desc_r[k_lo]) if k_lo < desc_r.size else -math.inf
        c_lo, c_hi = _count_at_least(desc_r, [self.lo, self.hi])
        top_w, top_l = desc_w[:c_hi], desc_l[:c_hi]
        self.s_hi = np.bincount(top_l, top_w, SLABS)
        self.q_hi = np.bincount(top_l, top_w * top_w, SLABS)
        # the sorted rows in [lo, hi), then each later batch's rows there
        self.middle = tuple(column[c_hi:c_lo] for column in desc)
        self.pending = []

    def add(self, responses, weights, labels):
        """Take a batch's rows into the sums and the middle."""
        top = exceedance_terms(responses, weights, self.hi)
        self.s_hi += np.bincount(labels, top, SLABS)
        self.q_hi += np.bincount(labels, top * top, SLABS)
        mid = (responses >= self.lo) & (responses < self.hi)
        self.pending.append((responses[mid], weights[mid], labels[mid]))

    def rules_out_stop(self, counts, p, z, target):
        """Whether a full pass over a pool with slab ``counts`` could
        neither stop nor widen.

        The full pass inverts the sorted pool's scaled cumulative weights at
        p * m.  The same cumulative weights, from the sums above hi and the
        sorted middle, land within the rounding of any summation order of
        the full pass's, so every index the full pass could invert at lies
        where they reach p * m to within that rounding.  When all such
        indices fall in the middle, the iterate is below the top response,
        and its hits hold the middle rows up to the first such index and
        lie within those down to the last.  Per slab, the sums over the
        larger set bound the hits' weight sums from above and those over the
        smaller set their squared sums from below, so a half-width above
        ``target`` from these is one at the iterate too.  A pool with an
        empty slab is reduced as iid rows here as in the full pass.
        """
        m = float(counts.sum())
        scale = row_scale(counts)
        mass = p * m
        err = summation_slack(int(m))
        above = float(self.s_hi @ scale)
        if above >= mass * (1.0 - err):
            return False
        if self.pending:
            self.middle = _merge_runs(self.middle, self.pending)
            self.pending = []
        mid_r, mid_w, mid_l = self.middle
        cum = above + np.cumsum(mid_w * scale[mid_l])
        first, last = np.searchsorted(cum, [mass * (1.0 - err),
                                            mass * (1.0 + err)], side="left")
        if last >= mid_r.size:
            return False
        within = _count_at_least(mid_r, mid_r[last])
        held_w, held_l = mid_w[:first + 1], mid_l[:first + 1]
        return width_exceeds(
            counts, self.s_hi + np.bincount(mid_l[:within], mid_w[:within],
                                            SLABS),
            self.q_hi + np.bincount(held_l, held_w * held_w, SLABS),
            z, target)


def _bracket_rule(p, rho):
    """Ladder level rule that brackets the quantile of probability p.

    Levels follow the uncapped top-rho statistic until its weighted
    exceedance falls to p; that batch's level is where the weighted survival
    curve crosses p, and it ends the ladder.
    """
    def rule(responses, weights):
        tentative = next_level(responses, rho, math.inf)
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


def estimate_quantile(model, p, config, rng, precision=0.10, budget=1_000_000,
                      confidence=0.95, pool=None):
    """Estimate the level whose exceedance probability is p, with a CI.

    Returns (QuantileReport, LadderTrace).  Refinement batches hold
    FINAL_BATCH runs each.  The iterate inverts the pool's post-stratified
    survival curve at p.  The refinement stops once the post-stratified
    probability estimate at that iterate reaches REFINE_FACTOR * precision
    relative half-width; the quantile interval is that probability interval
    divided by the local survival slope.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("target probability must lie in (0, 1)")
    if not 0.0 < precision < 1.0:
        raise DomainError("target relative half-width must lie in (0, 1)")
    z = z_value(confidence)
    theta, trace = run_ladder(model, config, rng, pool,
                              level_rule=_bracket_rule(p, config.rho),
                              budget=budget)
    exploration = trace.exploration_runs
    # the last ladder level brackets p; refinement batches are drawn there
    pivot_gamma = trace.levels[-1].gamma
    pivot = oriented_response(model, pivot_gamma)

    widen = 0
    level = pivot
    m = 0
    target = REFINE_FACTOR * precision
    batches = []                # draw order
    merged = 0                  # leading batches already in the sorted pool
    # the sorted pool: responses, weights, slabs
    desc = (np.empty(0), np.empty(0), np.empty(0, dtype=np.intp))
    counts = np.zeros(SLABS)
    bracket = None
    for batch in pooled_batches(model, pivot_gamma, theta, FINAL_BATCH, rng,
                                QUANTILE_STREAM, budget - exploration, pool):
        batches.append(batch)
        m += batch.size
        counts += np.bincount(batch.labels, minlength=SLABS)
        if bracket is not None:
            bracket.add(batch.responses, batch.weights, batch.labels)
            if bracket.rules_out_stop(counts, p, z, target):
                # no stop and no widening on this batch: widen stays 0
                continue
        desc = _merge_batches(desc, batches[merged:])
        merged = len(batches)
        desc_r, desc_w, desc_l = desc
        scale = row_scale(counts)
        cum = np.cumsum(desc_w * scale[desc_l])
        level = _survival_inverse(desc_r, cum, p * m)
        if level is None or level == desc_r[0]:
            # quantile sits beyond the sampled range; widen with more batches
            widen += 1
            level = pivot
            bracket = None
            if widen > _WIDEN_LIMIT:
                raise NonMonotoneBracket(
                    "quantile refinement cannot bracket the target probability")
            continue
        widen = 0
        # the hits at level are a prefix of the sorted pool
        hits = _count_at_least(desc_r, level)
        _, s1, q = slab_sums(desc_l[:hits], desc_w[:hits])
        # bracket the iterate's mass by its relative standard error
        estimate, se_p = stratified_exceedance(counts, s1, q)
        bracket = _Bracket(desc, cum, p * m, se_p / estimate)
        if width_exceeds(counts, s1, q, z, target):
            continue
        # the sorted pool allows a stop; the pool in draw order decides it
        responses = np.concatenate([b.responses for b in batches])
        pooled_w = np.concatenate([b.weights for b in batches])
        labels = np.concatenate([b.labels for b in batches])
        estimate, se_p = stratified_exceedance(*slab_sums(
            labels, exceedance_terms(responses, pooled_w, level)))
        if z * se_p / estimate > target:
            continue
        # the slope of the post-stratified curve: rows weighted m / (I n_i)
        slope = _slope_at(responses, pooled_w * scale[labels], level,
                          estimate)
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
    if merged < len(batches):
        # the budget ran out on skipped batches; report their iterate
        desc_r, desc_w, desc_l = _merge_batches(desc, batches[merged:])
        level = _survival_inverse(
            desc_r, np.cumsum(desc_w * row_scale(counts)[desc_l]), p * m)
    report = QuantileReport(
        quantile=float(oriented_response(model, level)),
        rel_half_width=math.inf, p=p, runs_exploration=exploration,
        runs_final=m, speedup=0.0, theta=theta,
        converged=False, confidence=confidence)
    raise BudgetExhausted(
        f"budget of {budget} runs hit during quantile refinement",
        report=report, trace=trace)
