"""Inverse problem: the threshold whose exceedance probability is p.

The shared ladder runs with a bracket level rule instead of a fixed target
level: it climbs until the weighted exceedance estimate of the tentative
next level drops below p, at which point the target quantile lies inside the
current batch's range.  The shift solved there then drives a refinement
phase that pools fresh batches and inverts the pooled weighted survival
curve at p.  The quantile interval comes from pushing the probability
interval through the local slope of that curve (a centered difference, no
density estimate).
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExhausted, DomainError, NonMonotoneBracket
from .model import oriented_response
from .multilevel import (QUANTILE_STREAM, draw_tail_sample, next_level,
                         run_ladder, weighted_exceedance, z_value)

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


def _survival_inverse(responses, weights, total, p):
    """Largest t with (1/total) sum_{y_i >= t} w_i >= p, or None."""
    order = np.argsort(-responses, kind="stable")
    cum = np.cumsum(weights[order])
    k = int(np.searchsorted(cum, p * total, side="left"))
    if k >= responses.size:
        return None
    return float(responses[order[k]])


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
        level = _survival_inverse(responses, weights, responses.size, p)
        if level is None:
            raise NonMonotoneBracket(
                "batch weighted mass cannot reach the target probability")
        return level, True
    return rule


def _slope_at(responses, weights, level):
    """Centered-difference slope of the weighted survival curve at ``level``.

    The half-step is one weighted standard deviation of the survivor
    responses, which keeps the difference on the scale of the local tail.
    """
    hits = responses >= level
    wsum = float(weights[hits].sum())
    mean = float((weights[hits] * responses[hits]).sum() / wsum)
    var = float((weights[hits] * responses[hits] ** 2).sum() / wsum - mean * mean)
    step = math.sqrt(max(var, 1e-30))
    g_hi, _ = weighted_exceedance(responses, weights, level + step)
    g_lo, _ = weighted_exceedance(responses, weights, level - step)
    return max((g_lo - g_hi) / (2.0 * step), 1e-300)


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
    z = z_value(confidence)
    theta, trace = run_ladder(model, config, rng, pool,
                              level_rule=_bracket_rule(p, config.rho))
    exploration = trace.exploration_runs
    # the last ladder level brackets p; refinement batches are drawn there
    pivot_gamma = trace.levels[-1].gamma
    pivot = oriented_response(model, pivot_gamma)

    sample = None
    widen = 0
    batch_index = 0
    level = pivot
    while True:
        m = sample.size if sample is not None else 0
        if exploration + m + m0 > budget:
            report = QuantileReport(
                quantile=float(oriented_response(model, level)),
                rel_half_width=math.inf, p=p, runs_exploration=exploration,
                runs_final=m, speedup=0.0, theta=theta,
                converged=False, confidence=confidence)
            raise BudgetExhausted(
                f"budget of {budget} runs hit during quantile refinement",
                report=report, trace=trace)
        batch = draw_tail_sample(model, pivot_gamma, theta, m0,
                                 rng.child(QUANTILE_STREAM + batch_index),
                                 pool)
        batch_index += 1
        sample = batch if sample is None else sample.merge(batch)
        responses = sample.responses
        weights = np.exp(sample.log_weights)
        m = sample.size
        level = _survival_inverse(responses, weights, m, p)
        if level is None or level == responses.max():
            # quantile sits beyond the sampled range; widen with more batches
            widen += 1
            level = pivot
            if widen > _WIDEN_LIMIT:
                raise NonMonotoneBracket(
                    "quantile refinement cannot bracket the target probability")
            continue
        widen = 0
        estimate, se_p = weighted_exceedance(responses, weights, level)
        rel_p = z * se_p / estimate
        if rel_p > REFINE_FACTOR * precision:
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
