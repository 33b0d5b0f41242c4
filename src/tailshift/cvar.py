"""Expected shortfall (CVaR) of the failure tail.

The self-normalized estimator is the ratio of the weighted survivor response
sum to the weighted survivor count.  It reuses the exact final-phase sample of
the probability estimator, so both numbers come from the same simulator runs.
Its asymptotic variance is the mean square of the ratio's linearized terms
on the same sample.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoSurvivors
from .multilevel import check_underflow, z_value


@dataclass
class CvarReport:
    cvar: float                 # model units
    rel_half_width: float
    sigma_sq: float             # plug-in asymptotic variance
    runs: int
    gamma: float                # model units
    confidence: float = 0.95


def estimate_cvar(sample, confidence=0.95):
    """Self-normalized conditional tail mean with a CLT interval.

    The tail is the sample's own, so a left-tail CVaR and its gamma are
    negated back into model units.

    The plug-in variance is the mean square of the ratio's linearized terms
    (Y - cvar) w 1{Y >= gamma} / p, p = mean(w 1{Y >= gamma}): the delta
    method's three-term formula with every moment taken from the same
    batch, which never forms a power of p.
    """
    iw = np.where(sample.responses >= sample.gamma, sample.weights, 0.0)
    if not iw.any():
        raise NoSurvivors("no survivor above the threshold in the sample")
    p = float(iw.mean())
    check_underflow(p)
    cvar_o = float((sample.responses * iw).mean()) / p
    terms = (sample.responses - cvar_o) * iw / p
    sigma_sq = float((terms * terms).mean())
    z = z_value(confidence)
    rel = (z * math.sqrt(sigma_sq / sample.size) / abs(cvar_o)
           if cvar_o != 0.0 else math.inf)
    sign = -1.0 if sample.tail == "left" else 1.0
    return CvarReport(
        cvar=sign * cvar_o,
        rel_half_width=rel,
        sigma_sq=sigma_sq,
        runs=sample.size,
        gamma=sign * sample.gamma,
        confidence=confidence,
    )
