"""Inverse problem: the threshold whose exceedance probability is p.

The shared ladder runs with a bracket level rule instead of a fixed target
level: it climbs until the weighted exceedance estimate of the tentative
next level drops below p, at which point the target quantile lies inside the
current batch's range.  The shift solved there then drives a refinement
phase that pools fresh batches and inverts the pooled weighted survival
curve at p.  The pool is kept sorted by descending response, so the hits
at the inverted level are a prefix of it and the stop test reads the
probability estimate and its second moment from there.  Each such full
pass also brackets the iterate between two pool levels; a later batch only
adds its terms to running sums over that bracket, and the sorted pool is
touched again (all pending batches merged at once) only when those sums
cannot rule out a stop.  Only when the stop test allows a stop is the pool
reduced in draw order, once, for the report.  The quantile interval comes
from pushing the probability interval through the local slope of that
curve (a centered difference of its logarithm, no density estimate).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, DomainError, NonMonotoneBracket
from .model import oriented_response
from .multilevel import (FINAL_BATCH, QUANTILE_STREAM, next_level,
                         pooled_batches, run_ladder, summation_slack,
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


def _merge_sorted(desc_r, desc_w, responses, weights):
    """Merge a batch into a pool sorted by descending response.

    Pool elements come before batch elements with an equal response, so the
    result is the stable descending sort of the pool followed by the batch.
    Merging the concatenation of several batches in draw order therefore
    gives the same pool as merging them one at a time.
    """
    order = np.argsort(-responses, kind="stable")
    responses, weights = responses[order], weights[order]
    slots = _count_at_least(desc_r, responses)
    return (np.insert(desc_r, slots, responses),
            np.insert(desc_w, slots, weights))


def _merge_batches(desc_r, desc_w, batches):
    """Merge ``batches``, with their linear weights, in one pass."""
    return _merge_sorted(desc_r, desc_w,
                         np.concatenate([b.responses for b in batches]),
                         np.concatenate([b.weights for b in batches]))


def _bracket(desc_r, desc_w, cum, mass, delta):
    """Pool levels lo <= hi around the crossing of ``mass``, with their sums.

    hi is where the cumulative weight of the sorted pool reaches
    mass * (1 - delta), lo where it reaches mass * (1 + delta) (-inf if it
    never does).  Returns lo, hi and the ``_bracket_sums`` of the pool.
    """
    k_hi, k_lo = np.searchsorted(cum, [mass * (1.0 - delta),
                                       mass * (1.0 + delta)], side="left")
    hi = float(desc_r[k_hi])
    lo = float(desc_r[k_lo]) if k_lo < desc_r.size else -math.inf
    c_lo, c_hi = _count_at_least(desc_r, [lo, hi])
    top = desc_w[:c_hi]
    return lo, hi, np.array([cum[c_lo - 1], cum[c_hi - 1], top @ top])


def _bracket_sums(responses, weights, lo, hi):
    """Sums of w 1{r >= lo}, w 1{r >= hi} and w^2 1{r >= hi}."""
    top = weights[responses >= hi]
    return np.array([weights[responses >= lo].sum(), top.sum(), top @ top])


def _rules_out_stop(sums, m, p, z, target):
    """Whether bracket sums over a pool of m runs rule out a stop there.

    With s_lo >= p * m and s_hi < p * m, each beyond the rounding of any
    summation order, the sorted pool's cumulative weights cross p * m at a
    level in [lo, hi): below the top response, so the iterate needs no
    widening, and its hits hold {r >= hi} and lie within {r >= lo}.  s_lo
    then bounds the hits' weight sum from above and q_hi their squared sum
    from below, so a half-width above ``target`` from these is one at the
    iterate too.
    """
    s_lo, s_hi, q_hi = sums
    mass = p * m
    err = summation_slack(m)
    return (s_lo * (1.0 - err) >= mass * (1.0 + err)
            and s_hi * (1.0 + err) < mass * (1.0 - err)
            and width_exceeds(s_lo, q_hi, m, z, target))


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
    FINAL_BATCH runs each.  The refinement stops once the pooled probability
    estimate at the current quantile iterate reaches REFINE_FACTOR *
    precision relative half-width; the quantile interval is that probability
    interval divided by the local survival slope.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("target probability must lie in (0, 1)")
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
    desc_r = desc_w = np.empty(0)
    bracket = None
    for batch in pooled_batches(model, pivot_gamma, theta, FINAL_BATCH, rng,
                                QUANTILE_STREAM, budget - exploration, pool):
        batches.append(batch)
        m += batch.size
        if bracket is not None:
            lo, hi, sums = bracket
            sums += _bracket_sums(batch.responses, batch.weights, lo, hi)
            if _rules_out_stop(sums, m, p, z, target):
                # no stop and no widening on this batch: widen stays 0
                continue
        desc_r, desc_w = _merge_batches(desc_r, desc_w, batches[merged:])
        merged = len(batches)
        cum = np.cumsum(desc_w)
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
        s1, s2 = float(cum[hits - 1]), float(desc_w[:hits] @ desc_w[:hits])
        # bracket the iterate's mass by its relative standard error
        delta = math.sqrt(max(m * s2 / (s1 * s1) - 1.0, 0.0) / m)
        bracket = _bracket(desc_r, desc_w, cum, p * m, delta)
        if width_exceeds(s1, s2, m, z, target):
            continue
        # the sorted pool allows a stop; the pool in draw order decides it
        responses = np.concatenate([b.responses for b in batches])
        pooled_w = np.concatenate([b.weights for b in batches])
        estimate, se_p = weighted_exceedance(responses, pooled_w, level)
        if z * se_p / estimate > target:
            continue
        slope = _slope_at(responses, pooled_w, level, estimate)
        half = z * se_p / slope
        quantile = float(oriented_response(model, level))
        rel = half / max(abs(quantile), 1e-300)
        # plain MC would need this many runs for the same quantile interval
        n_mc = estimate * (1.0 - estimate) * (z / (slope * half)) ** 2
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
        desc_r, desc_w = _merge_batches(desc_r, desc_w, batches[merged:])
        level = _survival_inverse(desc_r, np.cumsum(desc_w), p * m)
    report = QuantileReport(
        quantile=float(oriented_response(model, level)),
        rel_half_width=math.inf, p=p, runs_exploration=exploration,
        runs_final=m, speedup=0.0, theta=theta,
        converged=False, confidence=confidence)
    raise BudgetExhausted(
        f"budget of {budget} runs hit during quantile refinement",
        report=report, trace=trace)
