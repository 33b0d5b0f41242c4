"""Expected shortfall (CVaR) of the failure tail.

The self-normalized estimator is the ratio of the weighted survivor response
sum to the weighted survivor count.  It reuses the exact final-phase sample of
the probability estimator, so both numbers come from the same simulator runs.
Its asymptotic variance is assembled from five empirical moments of the same
sample; the unnormalized comparison estimator divides by a known probability
instead and carries a much larger variance.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ZeroHits
from .multilevel import z_value


@dataclass
class CvarReport:
    cvar: float                 # model units
    rel_half_width: float
    sigma_sq: float             # plug-in asymptotic variance
    runs: int
    gamma: float                # model units
    confidence: float = 0.95


def _tail_moments(sample):
    w = np.exp(sample.log_weights)
    hits = sample.responses >= sample.gamma
    if not hits.any():
        raise ZeroHits("no survivor above the threshold in the sample")
    iw = np.where(hits, w, 0.0)
    yiw = sample.responses * iw
    n = sample.size
    return {
        "n": n,
        "p_hat": float(iw.mean()),
        "e_y1": float(yiw.mean()),                      # E[Y 1{Y > gamma}]
        "e_y1_w2": float((yiw * w).mean()),             # E[Y 1 E^2]
        "e_1_w2": float((iw * w).mean()),               # E[1 E^2]
        "var_yiw": float((yiw * yiw).mean() - yiw.mean() ** 2),
    }


def estimate_cvar(sample, confidence=0.95):
    """Self-normalized conditional tail mean with a CLT interval.

    The tail is the sample's own, so a left-tail CVaR and its gamma are
    negated back into model units.

    The plug-in variance follows the three-term asymptotic formula with every
    population moment replaced by its importance-sampling counterpart from
    the same batch.
    """
    m = _tail_moments(sample)
    p, ey1 = m["p_hat"], m["e_y1"]
    cvar_o = ey1 / p
    sigma_sq = (m["var_yiw"] / p ** 2
                - 2.0 * ey1 / p ** 3 * m["e_y1_w2"]
                + ey1 ** 2 / p ** 3 * (m["e_1_w2"] / p + p))
    sigma_sq = max(sigma_sq, 0.0)
    z = z_value(confidence)
    rel = (z * math.sqrt(sigma_sq / m["n"]) / abs(cvar_o)
           if cvar_o != 0.0 else math.inf)
    sign = -1.0 if sample.tail == "left" else 1.0
    return CvarReport(
        cvar=sign * cvar_o,
        rel_half_width=rel,
        sigma_sq=sigma_sq,
        runs=m["n"],
        gamma=sign * sample.gamma,
        confidence=confidence,
    )


def estimate_cvar_unnormalized(sample, p):
    """Unbiased comparison estimator dividing by a known (or estimated) p.

    Returns (estimate, sigma_bar_sq); the plug-in variance is typically far
    above the self-normalized one, which is the price of unbiasedness.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError("p must lie in (0, 1]")
    m = _tail_moments(sample)
    return m["e_y1"] / p, m["var_yiw"] / (p * p)


def cvar_exact_bias(cvar, p, n):
    """Exact bias of the self-normalized estimator in the unshifted regime.

    bias = -cvar * (1 - p)^n, i.e. the expectation is cvar * (1 - (1-p)^n)
    when replications without any survivor contribute zero.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError("p must lie in (0, 1]")
    if n < 1:
        raise DomainError("n must be at least 1")
    return -cvar * (1.0 - p) ** n
