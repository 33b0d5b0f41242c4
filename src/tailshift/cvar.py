"""Expected shortfall (CVaR) of the failure tail.

The self-normalized estimator is the ratio of the weighted survivor response
sum to the weighted survivor count.  It reuses the exact final-phase sample of
the probability estimator, so both numbers come from the same simulator runs.
Its asymptotic variance is assembled from five empirical moments of the same
sample.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroHits
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

    The plug-in variance follows the three-term asymptotic formula with every
    population moment replaced by its importance-sampling counterpart from
    the same batch.
    """
    w = sample.weights
    hits = sample.responses >= sample.gamma
    if not hits.any():
        raise ZeroHits("no survivor above the threshold in the sample")
    iw = np.where(hits, w, 0.0)
    yiw = sample.responses * iw
    p = float(iw.mean())
    check_underflow(p, power=3)
    ey1 = float(yiw.mean())                             # E[Y 1{Y > gamma}]
    e_y1_w2 = float((yiw * w).mean())                   # E[Y 1 E^2]
    e_1_w2 = float((iw * w).mean())                     # E[1 E^2]
    var_yiw = float((yiw * yiw).mean() - yiw.mean() ** 2)
    cvar_o = ey1 / p
    sigma_sq = (var_yiw / p ** 2
                - 2.0 * ey1 / p ** 3 * e_y1_w2
                + ey1 ** 2 / p ** 3 * (e_1_w2 / p + p))
    sigma_sq = max(sigma_sq, 0.0)
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
