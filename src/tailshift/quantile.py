"""Inverse problem: the threshold whose exceedance probability is p.

The shared ladder runs with a bracket level rule instead of a fixed target
level: it climbs until the weighted exceedance estimate of the tentative
next level drops below p, at which point the target quantile lies inside the
current batch's range.  The shift solved there then drives a refinement
phase that pools fresh batches and inverts the pooled weighted survival
curve at p.  Each batch costs one insert into a pool kept sorted by
descending response and one cumulative sum over it: the hits at the
inverted level are a prefix of that pool, so the stop test reads the
probability estimate and its second moment from there.  Only when that test
allows a stop is the pool reduced in draw order, once, for the report.  The
quantile interval comes from pushing the probability interval through the
local slope of that curve (a centered difference of its logarithm, no
density estimate).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, DomainError, NonMonotoneBracket
from .model import oriented_response
from .multilevel import (QUANTILE_STREAM, next_level, pooled_batches,
                         run_ladder, weighted_exceedance, width_exceeds,
                         z_value)

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


def _survival_inverse(desc_r, desc_w, total, p):
    """Largest t with (1/total) sum_{y_i >= t} w_i >= p, or None.

    ``desc_r`` holds the responses sorted by descending value and
    ``desc_w`` their weights.
    """
    cum = np.cumsum(desc_w)
    k = int(np.searchsorted(cum, p * total, side="left"))
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
    """
    order = np.argsort(-responses, kind="stable")
    responses, weights = responses[order], weights[order]
    slots = _count_at_least(desc_r, responses)
    return (np.insert(desc_r, slots, responses),
            np.insert(desc_w, slots, weights))


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
        level = _survival_inverse(responses[order], weights[order],
                                  responses.size, p)
        if level is None:
            raise NonMonotoneBracket(
                "batch weighted mass cannot reach the target probability")
        return level, True
    return rule


def _slope_at(responses, weights, level):
    """Slope -dS/dt of the weighted survival curve S at ``level``.

    S times a centered difference of log S, exact where log S is quadratic
    as in a Gaussian tail; a difference of S itself overstates the slope of
    the convex tail.  The half-step is one weighted standard deviation of
    the survivor responses; with no weight beyond level + step the
    difference is one-sided.
    """
    hits = responses >= level
    wsum = float(weights[hits].sum())
    mean = float((weights[hits] * responses[hits]).sum() / wsum)
    var = float((weights[hits] * responses[hits] ** 2).sum() / wsum - mean * mean)
    step = math.sqrt(max(var, 1e-30))
    g_at, _ = weighted_exceedance(responses, weights, level)
    g_hi, _ = weighted_exceedance(responses, weights, level + step)
    g_lo, _ = weighted_exceedance(responses, weights, level - step)
    if g_hi > 0.0:
        dlog = (math.log(g_lo) - math.log(g_hi)) / (2.0 * step)
    else:
        dlog = (math.log(g_lo) - math.log(g_at)) / step
    return max(g_at * dlog, 1e-300)


def estimate_quantile(model, p, config, rng, m0=1000, precision=0.10,
                      budget=1_000_000, confidence=0.95, pool=None):
    """Estimate the level whose exceedance probability is p, with a CI.

    Returns (QuantileReport, LadderTrace).  The refinement stops once the
    pooled probability estimate at the current quantile iterate reaches
    REFINE_FACTOR * precision relative half-width; the quantile interval is
    that probability interval divided by the local survival slope.
    """
    if not 0.0 < p < 1.0:
        raise DomainError("target probability must lie in (0, 1)")
    if m0 < 1:
        raise DomainError("batch size must be at least 1")
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
    batches = []
    desc_r = desc_w = np.empty(0)
    for batch in pooled_batches(model, pivot_gamma, theta, m0, rng,
                                QUANTILE_STREAM, budget - exploration, pool):
        batches.append(batch)
        desc_r, desc_w = _merge_sorted(desc_r, desc_w, batch.responses,
                                       np.exp(batch.log_weights))
        m = desc_r.size
        level = _survival_inverse(desc_r, desc_w, m, p)
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
        hits_w = desc_w[:_count_at_least(desc_r, level)]
        if width_exceeds(float(hits_w.sum()), float((hits_w * hits_w).sum()),
                         m, z, target):
            continue
        # the sorted pool allows a stop; the pool in draw order decides it
        sample = batches[0].merge(*batches[1:])
        responses, weights = sample.responses, np.exp(sample.log_weights)
        estimate, se_p = weighted_exceedance(responses, weights, level)
        if z * se_p / estimate > target:
            continue
        slope = _slope_at(responses, weights, level)
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
    report = QuantileReport(
        quantile=float(oriented_response(model, level)),
        rel_half_width=math.inf, p=p, runs_exploration=exploration,
        runs_final=m, speedup=0.0, theta=theta,
        converged=False, confidence=confidence)
    raise BudgetExhausted(
        f"budget of {budget} runs hit during quantile refinement",
        report=report, trace=trace)
