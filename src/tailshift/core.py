"""Shared numeric primitives: seeded RNG streams and standard-normal helpers.

The whole engine reduces to the standard normal distribution.  The CDF and
quantile here stay accurate far into the tails, which estimates near 1e-10
require.
"""

import os
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy import special

from .errors import DomainError

# child offsets lie in [0, 2**CHILD_BITS), so child ids never collide
CHILD_BITS = 23
# a seed is one 32-bit SeedSequence word, so (seed, stream) never aliases
SEED_LIMIT = 1 << 32
# a draw of more values than this fills row blocks on the block pool
BLOCK_VALUES = 1 << 17

_block_pool = None


def _pool():
    """The module's draw threads, one per usable CPU, built on first use.

    A draw of b blocks keeps min(CPUs, b) of them busy.
    """
    global _block_pool
    if _block_pool is None:
        cpus = (len(os.sched_getaffinity(0))
                if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1)
        _block_pool = ThreadPoolExecutor(max_workers=cpus,
                                         thread_name_prefix="tailshift-draw")
    return _block_pool


def block_count(m, d):
    """Row blocks an m x d draw splits into: ceil(m * d / BLOCK_VALUES)."""
    return min(m, -(-m * d // BLOCK_VALUES))


def shift_rows(rows, theta):
    """Log weights log f_0 / f_theta of standard-normal ``rows``, then the
    rows shifted to N(theta, I) in place.

    The weights -theta . x - |theta|^2 / 2 are read from the raw rows.  The
    product is np.einsum at every batch size: it runs in the calling thread,
    so a block draw leaves no OpenBLAS worker spinning on a core the next
    block needs, and a row's weight does not depend on the size of its batch.
    """
    log_weights = -np.einsum("ij,j->i", rows, theta) - 0.5 * (theta @ theta)
    rows += theta
    return log_weights


class RngStream:
    """Random stream addressed by (seed, stream id).

    The generator is SFC64 seeded by ``SeedSequence([seed, stream])``.
    SeedSequence reads each integer as its 32-bit words, so with the seed
    held to one word distinct pairs give distinct entropy.  The same
    (seed, stream) pair always reproduces the same sample sequence, and
    distinct pairs give statistically independent streams.  Batches can
    therefore be assigned to workers in any order without changing any
    drawn number.
    """

    def __init__(self, seed, stream=0):
        if not 0 <= int(seed) < SEED_LIMIT:
            raise DomainError("seed must be an integer in [0, 2**32)")
        if int(stream) < 0:
            raise DomainError("stream id must be a nonnegative integer")
        self.seed = int(seed)
        self.stream = int(stream)
        self.generator = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence([self.seed, self.stream])))

    def child(self, offset):
        """Derived stream scoped under this one: id (stream << 23) + offset.

        Offsets must lie in [0, 2**23), so children of distinct parents never
        share an id and nested pipelines stay reproducible and independent.
        """
        if not 0 <= int(offset) < 1 << CHILD_BITS:
            raise DomainError(f"child offset must lie in [0, 2**{CHILD_BITS})")
        return RngStream(self.seed, (self.stream << CHILD_BITS) + int(offset))

    def shifted_normals(self, m, theta):
        """m rows drawn from N(theta, I) and their log weights log f_0 / f_theta.

        The m x d array is filled in place with standard normals, and
        ``shift_rows`` writes the log weights and adds theta.  A draw of at
        most BLOCK_VALUES values comes from this stream in the calling
        thread.  A larger one splits into ``block_count(m, d)`` near-equal
        row blocks, block j drawn from ``self.child(j)`` on the block pool;
        the split depends on (m, d) alone, so the result is the same at any
        thread count.
        """
        theta = np.asarray(theta, dtype=float)
        d = theta.size
        points = np.empty((m, d))
        log_weights = np.empty(m)

        def fill(generator, lo, hi):
            rows = points[lo:hi]
            generator.standard_normal(out=rows)
            log_weights[lo:hi] = shift_rows(rows, theta)

        blocks = block_count(m, d)
        if blocks <= 1:
            fill(self.generator, 0, m)
        else:
            # the child streams are built here, the fills run on the pool
            generators = [self.child(j).generator for j in range(blocks)]
            bounds = [j * m // blocks for j in range(blocks + 1)]
            list(_pool().map(fill, generators, bounds[:-1], bounds[1:]))
        return points, log_weights

    def __repr__(self):
        return f"RngStream(seed={self.seed}, stream={self.stream})"


def slab_levels(count):
    """Boundaries -inf = a_0 < ... < a_count = +inf of equiprobable slabs."""
    levels = np.empty(count + 1)
    levels[0], levels[-1] = -np.inf, np.inf
    levels[1:-1] = std_normal_quantile(np.arange(1, count) / count)
    return levels


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

