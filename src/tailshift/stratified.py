"""Stratification along the solved shift, drawn under that shift.

The solved shift theta points at the failure region, so the line it spans is
the single most informative direction to stratify.  The strata are
equiprobable slabs of the projection u . (x - theta), u = theta / |theta|,
under the importance law N(theta, I).  A slab is sampled exactly by
inverse-CDF on the projected coordinate plus an independent orthogonal
Gaussian; ``core.shift_rows``, the draw kernel's weight step, weights each row
by f_0 / f_theta and adds theta to it.
Every slab gets an equal share of the runs, which is proportional allocation
since the slabs are equiprobable, and the estimate is
sum_i p_i mean_i(w 1{h >= gamma}) (Glasserman, Heidelberger & Shahabuddin
1999, Math. Finance 9).
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import shift_rows, std_normal_cdf, std_normal_quantile
from .errors import DegenerateStratum, DomainError
from .model import oriented_response, response_values
from .multilevel import STRATA_STREAM, estimate_report, z_value

_ONE_BELOW_1 = np.nextafter(1.0, 0.0)
_ONE_ABOVE_0 = np.nextafter(0.0, 1.0)


@dataclass
class StrataSpec:
    """Shift theta plus slab boundaries -inf = a_0 < ... < a_I = +inf.

    The slabs lie along theta / |theta| and are drawn under N(theta, I).
    """

    theta: np.ndarray
    levels: np.ndarray
    probs: np.ndarray = field(init=False)

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        self.levels = np.asarray(self.levels, dtype=float)
        if np.linalg.norm(self.theta) == 0.0:
            raise DomainError("cannot stratify along a zero shift")
        if self.levels.size < 2 or np.any(np.diff(self.levels) <= 0):
            raise DomainError("stratum levels must be strictly increasing")
        if not (math.isinf(self.levels[0]) and math.isinf(self.levels[-1])):
            raise DomainError("stratum levels must start at -inf and end at +inf")
        cdf = std_normal_cdf(self.levels)
        self.probs = np.diff(cdf)
        if np.any(self.probs <= 0.0):
            raise DegenerateStratum("every stratum must carry positive mass")

    @property
    def direction(self):
        return self.theta / np.linalg.norm(self.theta)

    @property
    def count(self):
        return self.levels.size - 1


def strata_from_shift(theta, count):
    """Equiprobable strata along the shift, drawn under it."""
    if count < 2:
        raise DomainError("need at least two strata")
    levels = np.empty(count + 1)
    levels[0], levels[-1] = -np.inf, np.inf
    levels[1:-1] = std_normal_quantile(np.arange(1, count) / count)
    return StrataSpec(theta=theta, levels=levels)


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


def stratified_estimate(model, gamma, strata, total, rng, confidence=0.95,
                        pool=None, runs_exploration=0):
    """Stratified importance-sampling estimate of the failure probability.

    Each of the I slabs gets total // I runs, and the first total % I slabs
    one more; slab i draws from stream ``STRATA_STREAM + i``.

    Returns (EstimateReport, per-stratum rows), each row holding
    (prob, count, dev, mean): dev is the slab's Bessel standard deviation
    of the weighted terms w 1{h >= gamma}, mean their average.
    """
    count = strata.count
    if total < 2 * count:
        raise DomainError("budget must allow two samples per stratum")
    gamma_o = float(oriented_response(model, gamma))
    z_value(confidence)     # reject a bad confidence before any model run

    theta, direction = strata.theta, strata.direction
    counts = np.full(count, int(total) // count)
    counts[:int(total) % count] += 1
    means, devs = np.zeros(count), np.zeros(count)
    for i in range(count):
        rows = _conditional_rows(direction, strata.levels[i],
                                 strata.levels[i + 1], int(counts[i]),
                                 rng.child(STRATA_STREAM + i))
        log_weights = shift_rows(rows, theta, rows.size)
        values = oriented_response(model, response_values(model, rows, pool))
        terms = np.where(values >= gamma_o, np.exp(log_weights), 0.0)
        means[i], devs[i] = terms.mean(), terms.std(ddof=1)

    estimate = float(strata.probs @ means)
    variance = float(np.sum(strata.probs ** 2 * devs ** 2 / counts))
    report = estimate_report(estimate, math.sqrt(variance), int(total),
                             confidence, runs_exploration, gamma, theta)
    rows = [
        {"prob": float(strata.probs[i]), "count": int(counts[i]),
         "dev": float(devs[i]), "mean": float(means[i])}
        for i in range(count)
    ]
    return report, rows
