"""Shared numeric primitives: seeded RNG streams and standard-normal helpers.

The whole engine reduces to the standard normal distribution.  The CDF and
quantile here stay accurate far into the tails, which estimates near 1e-10
require.
"""

import numpy as np
from scipy import special

from .errors import DomainError

_MASK64 = (1 << 64) - 1


class RngStream:
    """Counter-based random stream addressed by (seed, stream id).

    The same (seed, stream) pair always reproduces the same sample sequence,
    and distinct stream ids give statistically independent streams.  Batches
    can therefore be assigned to workers in any order without changing any
    drawn number.
    """

    def __init__(self, seed, stream=0):
        if int(seed) < 0:
            raise DomainError("seed must be a nonnegative integer")
        self.seed = int(seed)
        self.stream = int(stream)
        key = np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)
        self.generator = np.random.Generator(np.random.Philox(key=key))

    def child(self, offset):
        """Derived stream scoped under this one.

        Offsets below 2**23 cannot collide across distinct parents, so
        nested pipelines stay reproducible and mutually independent.
        """
        return RngStream(self.seed, (self.stream << 23) + int(offset))

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def std_normal_cdf(x):
    """Standard normal CDF, evaluated through the complementary error function.

    Accurate to better than 1e-15 absolute over the whole real line and
    relatively accurate deep into the lower tail.
    """
    out = special.ndtr(np.asarray(x, dtype=float))
    return float(out) if out.ndim == 0 else out


def std_normal_quantile(p):
    """Inverse standard normal CDF on (0, 1).

    Rational approximation followed by one Newton polish.  The polish is done
    on whichever tail is better conditioned so that round trips through the
    CDF hold to ~1e-12 relative even for p within 1e-12 of either endpoint.
    """
    p_arr = np.asarray(p, dtype=float)
    if p_arr.size and not np.all((p_arr > 0.0) & (p_arr < 1.0)):
        raise DomainError("quantile argument must lie strictly inside (0, 1)")
    x = special.ndtri(p_arr)
    pdf = np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)
    with np.errstate(divide="ignore", invalid="ignore"):
        lower = p_arr <= 0.5
        step = np.where(
            lower,
            -(special.ndtr(x) - p_arr) / pdf,
            (special.ndtr(-x) - (1.0 - p_arr)) / pdf,
        )
    polished = np.where((pdf > 0.0) & np.isfinite(step), x + step, x)
    return float(polished) if polished.ndim == 0 else polished

