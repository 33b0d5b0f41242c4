"""Stratification along the optimal shift direction.

The solved shift points at the failure region, so the line it spans is the
single most informative direction to stratify.  Strata are slabs between
quantile levels of the projection, sampled exactly by inverse-CDF on the
projected coordinate plus an independent orthogonal Gaussian.  A pilot pass
estimates per-stratum variances; the remaining budget follows the classical
optimal allocation, proportional to (stratum mass) x (stratum deviation).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import std_normal_cdf, std_normal_quantile
from .errors import DegenerateStratum, DomainError
from .model import oriented_response, response_values
from .multilevel import (STRATA_MAIN_STREAM, STRATA_PILOT_STREAM,
                         estimate_report, z_value)

PILOT_SHARE = 0.2           # share of the stratified runs spent on the pilot

_ONE_BELOW_1 = np.nextafter(1.0, 0.0)
_ONE_ABOVE_0 = np.nextafter(0.0, 1.0)


@dataclass
class StrataSpec:
    """Unit direction plus slab boundaries -inf = a_0 < ... < a_I = +inf."""

    direction: np.ndarray
    levels: np.ndarray
    probs: np.ndarray = field(init=False)

    def __post_init__(self):
        self.direction = np.asarray(self.direction, dtype=float)
        self.levels = np.asarray(self.levels, dtype=float)
        if abs(np.linalg.norm(self.direction) - 1.0) > 1e-8:
            raise DomainError("stratification direction must be a unit vector")
        if self.levels.size < 2 or np.any(np.diff(self.levels) <= 0):
            raise DomainError("stratum levels must be strictly increasing")
        if not (math.isinf(self.levels[0]) and math.isinf(self.levels[-1])):
            raise DomainError("stratum levels must start at -inf and end at +inf")
        cdf = std_normal_cdf(self.levels)
        self.probs = np.diff(cdf)
        if np.any(self.probs <= 0.0):
            raise DegenerateStratum("every stratum must carry positive mass")

    @property
    def count(self):
        return self.levels.size - 1


def strata_from_shift(theta, count):
    """Equiprobable strata along the normalized shift direction."""
    theta = np.asarray(theta, dtype=float)
    norm = np.linalg.norm(theta)
    if norm == 0.0:
        raise DomainError("cannot stratify along a zero shift")
    if count < 2:
        raise DomainError("need at least two strata")
    levels = np.empty(count + 1)
    levels[0], levels[-1] = -np.inf, np.inf
    levels[1:-1] = std_normal_quantile(np.arange(1, count) / count)
    return StrataSpec(direction=theta / norm, levels=levels)


def _conditional_rows(u, a, b, n, rng):
    lo, hi = std_normal_cdf(a), std_normal_cdf(b)
    if hi - lo <= 0.0:
        raise DegenerateStratum(
            f"stratum [{a}, {b}] has vanishing Gaussian mass")
    uniforms = rng.generator.random(n)
    args = np.clip(lo + uniforms * (hi - lo), _ONE_ABOVE_0, _ONE_BELOW_1)
    z = std_normal_quantile(args)
    y = rng.generator.standard_normal((n, u.size))
    return z[:, None] * u + (y - np.outer(y @ u, u))


def _largest_remainder(quotas, total):
    raw = quotas * total
    counts = np.floor(raw).astype(int)
    short = total - counts.sum()
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def _apply_floor(counts, floor):
    # move samples from the fullest strata so every stratum stays estimable
    counts = counts.copy()
    while True:
        starved = np.flatnonzero(counts < floor)
        if starved.size == 0:
            return counts
        donor = int(np.argmax(counts))
        if counts[donor] <= floor:
            return counts
        counts[starved[0]] += 1
        counts[donor] -= 1


def optimal_allocation(probs, variances, total):
    """Sample counts proportional to p_i * v_i, largest-remainder rounded.

    Every stratum with positive mass keeps at least one sample.  The
    resulting estimator variance target is (sum_i p_i v_i)^2 / total.
    """
    probs = np.asarray(probs, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if probs.ndim != 1 or probs.size == 0 or np.any(probs <= 0.0) \
            or abs(probs.sum() - 1.0) > 1e-9:
        raise DomainError("stratum probabilities must be positive and sum to 1")
    if np.any(variances < 0.0):
        raise DomainError("stratum deviations must be nonnegative")
    mass = probs * variances
    if mass.sum() <= 0.0:
        raise DomainError("at least one stratum must have positive p_i * v_i")
    if total < probs.size:
        raise DomainError("budget smaller than the stratum count")
    return _apply_floor(_largest_remainder(mass / mass.sum(), int(total)), 1)


def stratified_estimate(model, gamma, strata, total, rng, confidence=0.95,
                        pool=None, runs_exploration=0):
    """Two-pass stratified estimate of the failure probability.

    A proportional pilot pass of ceil(PILOT_SHARE * total) samples
    estimates per-stratum deviations; the remainder follows the optimal
    allocation.  Per-stratum results from both passes are pooled.

    Returns (EstimateReport, per-stratum rows), each row holding
    (prob, count, pilot deviation, mean).
    """
    count = strata.count
    if total < 2 * count:
        raise DomainError("budget must allow two samples per stratum")
    gamma_o = float(oriented_response(model, gamma))
    z_value(confidence)     # reject a bad confidence before any model run

    pilot_total = int(math.ceil(PILOT_SHARE * total))
    pilot_floor = 2 if pilot_total >= 2 * count else 1
    pilot_counts = _apply_floor(_largest_remainder(strata.probs, pilot_total),
                                pilot_floor)

    sums = np.zeros(count)
    n_seen = np.zeros(count, dtype=int)

    def run_stratum(i, n, stream):
        points = _conditional_rows(strata.direction, strata.levels[i],
                                   strata.levels[i + 1], n, stream)
        values = oriented_response(model, response_values(model, points, pool))
        sums[i] += (values >= gamma_o).astype(float).sum()
        n_seen[i] += n

    def bessel_variance():
        # hits are 0/1, so each stratum's second moment equals its mean;
        # a stratum with fewer than two samples gets 0
        out = np.zeros(count)
        ok = n_seen >= 2
        mean = sums[ok] / n_seen[ok]
        out[ok] = np.maximum(mean - mean * mean, 0.0) * n_seen[ok] / (n_seen[ok] - 1)
        return out

    for i in range(count):
        run_stratum(i, pilot_counts[i], rng.child(STRATA_PILOT_STREAM + i))
    pilot_dev = np.sqrt(bessel_variance())

    remaining = int(total) - int(pilot_counts.sum())
    # a pilot that saw no variation anywhere falls back to proportional
    deviations = pilot_dev if pilot_dev.sum() > 0.0 else np.ones(count)
    counts = optimal_allocation(strata.probs, deviations, remaining)
    for i in range(count):
        if counts[i] > 0:
            run_stratum(i, int(counts[i]),
                        rng.child(STRATA_MAIN_STREAM + i))

    means = sums / n_seen
    pooled_var = bessel_variance()

    estimate = float(strata.probs @ means)
    variance = float(np.sum(strata.probs ** 2 * pooled_var / n_seen))
    report = estimate_report(estimate, math.sqrt(variance), int(n_seen.sum()),
                             confidence, runs_exploration, gamma)
    rows = [
        {"prob": float(strata.probs[i]), "count": int(n_seen[i]),
         "pilot_dev": float(pilot_dev[i]), "mean": float(means[i])}
        for i in range(count)
    ]
    return report, rows
