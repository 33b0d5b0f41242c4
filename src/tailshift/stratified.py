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

This is the ``strata`` task, with its own slab count and streams.  Every
final phase reduces its pool over the same kind of slabs, with the
boundaries of ``core.slab_levels``, but post-stratified: its rows are the
plain N(theta, I) draws, each labelled by the slab its log weight fixes
(``multilevel.slab_labels``).
"""

import math

import numpy as np

from .core import shift_rows, slab_levels, std_normal_cdf, std_normal_quantile
from .errors import DomainError
from .model import oriented_response, response_values
from .multilevel import STRATA_STREAM, estimate_report, z_value

_ONE_BELOW_1 = np.nextafter(1.0, 0.0)
_ONE_ABOVE_0 = np.nextafter(0.0, 1.0)


def _conditional_rows(u, a, b, n, rng):
    lo, hi = std_normal_cdf(a), std_normal_cdf(b)
    uniforms = rng.generator.random(n)
    args = np.clip(lo + uniforms * (hi - lo), _ONE_ABOVE_0, _ONE_BELOW_1)
    z = std_normal_quantile(args)
    y = rng.generator.standard_normal((n, u.size))
    return z[:, None] * u + (y - np.outer(y @ u, u))


def stratified_estimate(model, gamma, theta, count, total, rng,
                        confidence=0.95, runs_exploration=0):
    """Stratified importance-sampling estimate of the failure probability.

    The ``count`` slabs are equiprobable along theta / |theta| and drawn
    under N(theta, I); one slab is plain importance sampling under theta.
    Each slab gets total // count runs, and the first total % count slabs
    one more; slab i, drawn from stream ``STRATA_STREAM + i``, is one
    ``response_values`` batch, on the pool of an external model.

    Returns (EstimateReport, per-stratum rows), each row holding
    (prob, count, dev, mean): dev is the slab's Bessel standard deviation
    of the weighted terms w 1{h >= gamma}, mean their average.
    """
    theta = np.asarray(theta, dtype=float)
    norm = np.linalg.norm(theta)
    if norm == 0.0:
        raise DomainError("cannot stratify along a zero shift")
    if count < 1:
        raise DomainError("need at least one stratum")
    if total < 2 * count:
        raise DomainError("budget must allow two samples per stratum")
    gamma_o = float(oriented_response(model, gamma))
    z_value(confidence)     # reject a bad confidence before any model run

    levels = slab_levels(count)
    probs = np.diff(std_normal_cdf(levels))
    direction = theta / norm
    counts = np.full(count, int(total) // count)
    counts[:int(total) % count] += 1
    means, devs = np.zeros(count), np.zeros(count)
    for i in range(count):
        rows = _conditional_rows(direction, levels[i], levels[i + 1],
                                 int(counts[i]), rng.child(STRATA_STREAM + i))
        log_weights = shift_rows(rows, theta)
        values = oriented_response(model, response_values(model, rows))
        terms = np.where(values >= gamma_o, np.exp(log_weights), 0.0)
        means[i], devs[i] = terms.mean(), terms.std(ddof=1)

    estimate = float(probs @ means)
    variance = float(np.sum(probs ** 2 * devs ** 2 / counts))
    report = estimate_report(estimate, math.sqrt(variance), int(total),
                             confidence, runs_exploration, gamma, theta)
    rows = [
        {"prob": float(probs[i]), "count": int(counts[i]),
         "dev": float(devs[i]), "mean": float(means[i])}
        for i in range(count)
    ]
    return report, rows
