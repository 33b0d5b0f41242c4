"""Black-box response models.

Builtin analytic families cover testing and benchmarking; an external model
runs any executable that speaks the line protocol below on its SimulatorPool,
standing in for a circuit simulator or any other expensive evaluator.

Protocol (request on the child's stdin, reply on its stdout):

    EVAL <n> <d>\n
    <d reals>\n        repeated n times, each as "%.16e" writes it
                       (17 significant digits), one space between them
    ->  <1 real>\n     repeated n times, in request order

The request is streamed while the replies are read, so a simulator may
answer row by row, before it has read the whole request.
"""

import shlex
import subprocess
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import std_normal_cdf
from .errors import ConfigError, DomainError, SimulatorError

# Values per encoded request block: bounds the encoder's temporaries and
# lets the simulator read one block while the next is encoded.
_BLOCK_VALUES = 8192


def _decimal_text(count, width):
    """(count, width) uint8 array: the zero-padded decimal text of 0..count-1."""
    # uint16 keeps the temporaries of the 10000-entry table small
    scale = 10 ** np.arange(width - 1, -1, -1, dtype=np.uint16)
    digits = np.arange(count, dtype=np.uint16)[:, None] // scale % 10
    return (digits + ord("0")).astype(np.uint8)


def _words(*columns):
    """Little-endian uint32 words from four byte columns (arrays or chars)."""
    count = max(len(c) for c in columns if not isinstance(c, str))
    return np.column_stack([
        np.full(count, ord(c), np.uint8) if isinstance(c, str) else c
        for c in columns]).view("<u4").ravel()


def _split(a):
    """Veltkamp split: a = hi + lo, each half fitting 26 bits."""
    c = 134217729.0 * a
    hi = c - (c - a)
    return hi, a - hi


# 10**s is exact in float64 for s <= 22
_POW10 = np.array([float(10 ** s) for s in range(23)])
_POW10_HI, _POW10_LO = _split(_POW10)
# A value's text is six words: "-D.D", "DDDD" three times, "DDDe", "+XX "
# (the exponent's sign and two digits, then the separator).  Positive
# values drop the leading "-".
_TWO = _decimal_text(100, 2)
_LEAD = _words("-", _TWO[:, 0], ".", _TWO[:, 1])
_DIGITS4 = _words(*_decimal_text(10000, 4).T)
_DIGITS3E = _words(*_decimal_text(1000, 3).T, "e")
_EXPONENTS = np.frombuffer(
    "".join("%+03d " % k for k in range(-6, 17)).encode(), dtype="<u4")


def _scaled(a, s):
    """a * 10**s as the exact unevaluated sum p + e (Dekker's two-product)."""
    p = a * _POW10[s]
    ah, al = _split(a)
    bh, bl = _POW10_HI[s], _POW10_LO[s]
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _encode_plain(points):
    """The "%.16e" rows of points whose values all have 1e-6 < |x| < 1e17.

    The double 1e-6 lies just below 10**-6 and 1e17 is exact, so every such
    value has a decimal exponent k in -6..16.  It is written as
    N * 10**(k-16), N the 17-digit integer nearest the exact |x| * 10**(16-k)
    with ties to even.  10**(16-k) is exact, so the product is exact as
    p + e; p is an even integer (its ulp is at least 2 above 2**53), so
    p + rint(e) rounds half to even as %e does.
    """
    x = points.ravel()
    a = np.abs(x)
    # log10 can miss k by one next to a power of ten; the exact product
    # shows it
    k = np.clip(np.floor(np.log10(a)), -6, 16).astype(np.int64)
    p, e = _scaled(a, 16 - k)
    low = (p < 1e16) | ((p == 1e16) & (e < 0))
    high = (p > 1e17) | ((p == 1e17) & (e >= 0))
    fix = np.flatnonzero(low | high)
    if fix.size:
        k[fix] += high[fix].astype(np.int64) - low[fix]
        p[fix], e[fix] = _scaled(a[fix], 16 - k[fix])
    # never 10**17: the largest double below each power of ten sits at
    # least 4.5 units of the 17th digit below it
    digits = p.astype(np.int64) + np.rint(e).astype(np.int64)
    lead, rest = np.divmod(digits, 10 ** 15)
    mid = (rest // 10 ** 7).astype(np.uint32)
    last = (rest % 10 ** 7).astype(np.uint32)
    words = np.empty((x.size, 6), dtype="<u4")
    words[:, 0] = _LEAD[lead]
    words[:, 1] = _DIGITS4[mid // 10000]
    words[:, 2] = _DIGITS4[mid % 10000]
    words[:, 3] = _DIGITS4[last // 1000]
    words[:, 4] = _DIGITS3E[last % 1000]
    words[:, 5] = _EXPONENTS[k + 6]
    text = words.view(np.uint8).reshape(x.size, 24)
    text[points.shape[1] - 1::points.shape[1], 23] = ord("\n")
    keep = np.ones(text.shape, dtype=bool)
    keep[:, 0] = np.signbit(x)
    return text[keep]


def _request(points):
    """The EVAL request for (n, d) points, as bytes-like blocks.

    Rows holding zero, a value with |x| <= 1e-6 or |x| >= 1e17, or a
    non-finite value are formatted by Python's "%.16e" one row at a time;
    every other row is encoded by _encode_plain, byte for byte the same.
    """
    n, d = points.shape
    yield b"EVAL %d %d\n" % (n, d)
    row_fmt = " ".join(["%.16e"] * d) + "\n"
    step = max(1, _BLOCK_VALUES // d)
    for lo in range(0, n, step):
        block = points[lo:lo + step]
        a = np.abs(block)
        # NaN compares false, so it takes the per-row path too
        plain = ((a > 1e-6) & (a < 1e17)).all(axis=1)
        start = 0
        for i in np.flatnonzero(~plain):
            if start < i:
                yield _encode_plain(block[start:i])
            yield (row_fmt % tuple(block[i].tolist())).encode()
            start = i + 1
        if start < len(block):
            yield _encode_plain(block[start:])


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A scalar response h over R^d plus its tail orientation.

    kind is one of "linear", "skewed", "external".  A linear model carries
    its coefficient vector c in ``coeffs`` (None for the other kinds), so
    h(x) = c . x and h(X) ~ N(0, |c|^2).  External models carry a ``pool``.
    """

    kind: str
    dimension: int
    tail: str = "right"
    coeffs: np.ndarray | None = None
    pool: "SimulatorPool | None" = None

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError("model dimension must be at least 1")
        if self.tail not in ("right", "left"):
            raise DomainError("tail must be 'right' or 'left'")

    @classmethod
    def identity(cls, dimension=1, tail="right"):
        """h(x) = x_1: the linear model with c = e_1.  Every other term of
        c . x is an exact zero, so the response is x_1 bit for bit."""
        c = np.zeros(max(int(dimension), 0))
        c[:1] = 1.0
        return cls.linear(c, tail=tail)

    @classmethod
    def linear(cls, coeffs, tail="right"):
        """h(x) = c . x."""
        c = np.asarray(coeffs, dtype=float)
        if c.size == 0 or not np.all(np.isfinite(c)):
            raise DomainError("linear coefficients must be nonempty and finite")
        return cls(kind="linear", dimension=c.size, tail=tail, coeffs=c)

    @classmethod
    def linear_family(cls, dimension, tail="right"):
        """Linear model with a small block of dominant coordinates.

        The leading min(10, dimension) coordinates get coefficient 1.0; the
        remaining ones get 0.01, so they act as noise variables of known
        ground truth.
        """
        c = np.full(int(dimension), 0.01)
        c[:10] = 1.0
        return cls.linear(c, tail=tail)

    @classmethod
    def skewed(cls, dimension=3, tail="right"):
        """Smooth monotone-in-x1 nonlinearity with a visibly skewed output law."""
        return cls(kind="skewed", dimension=dimension, tail=tail)

    @classmethod
    def external(cls, pool, dimension, tail="right"):
        """Response evaluated by ``pool``, a running SimulatorPool."""
        if not isinstance(pool, SimulatorPool):
            raise ConfigError("external model requires a SimulatorPool")
        return cls(kind="external", dimension=dimension, tail=tail, pool=pool)


def oriented_response(model, value):
    """Map responses (or thresholds) so the failure tail is always the right one.

    Right-tail problems pass through; left-tail problems are negated, so every
    downstream survivor test reads ``oriented >= oriented_gamma``.
    """
    if model.tail == "left":
        return -np.asarray(value, dtype=float) if np.ndim(value) else -float(value)
    return np.asarray(value, dtype=float) if np.ndim(value) else float(value)


def analytic_tail_prob(model, gamma):
    """Exact failure probability for models with a Gaussian linear oracle.

    Returns P(h(X) >= gamma) for right tails, P(h(X) <= gamma) for left
    tails, or None when no closed form is available.
    """
    if model.coeffs is None:
        return None
    g = oriented_response(model, gamma)
    return float(std_normal_cdf(-g / np.linalg.norm(model.coeffs)))


def _linear_values(model, points):
    return np.einsum("ij,j->i", points, model.coeffs)


def _skewed_values(model, points):
    # monotone in x1: d/dx (x + 0.25 x^2 + 0.1 x^3) = 1 + 0.5 x + 0.3 x^2 > 0
    x1 = points[:, 0]
    out = x1 + 0.25 * x1 ** 2 + 0.1 * x1 ** 3
    if model.dimension > 1:
        rest = points[:, 1:]
        out = out + 0.05 * np.einsum("ij,ij->i", rest, rest) - 0.05 * (model.dimension - 1)
    return out


_BUILTINS = {
    "linear": _linear_values,
    "skewed": _skewed_values,
}


def response_values(model, points):
    """Vectorized responses for (n, d) points, on an external model's pool."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != model.dimension:
        raise DomainError(
            f"points must be (n, {model.dimension}), got {points.shape}")
    if model.kind == "external":
        return model.pool.evaluate(points)
    return _BUILTINS[model.kind](model, points)


class ExternalSimulator:
    """One child process evaluating batches over the line protocol.

    A simulator handles one batch at a time; run several in a SimulatorPool
    for parallel evaluation.  A writer thread streams each request while the
    calling thread reads the replies, so neither pipe can fill up with both
    processes waiting on each other.
    """

    def __init__(self, argv):
        try:
            self._proc = subprocess.Popen(
                argv,
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
            )
        except OSError as exc:
            raise SimulatorError(
                f"cannot start simulator {shlex.join(argv)!r}: {exc}")

    def evaluate(self, points):
        points = np.asarray(points, dtype=float)
        n = points.shape[0]
        stopped = []  # what stopped the writer early, if anything
        writer = threading.Thread(target=self._send, args=(points, stopped),
                                  name="simulator-request-writer")
        writer.start()
        try:
            values = self._receive(n)
        except BaseException:
            # the writer may be blocked on a simulator that stopped reading
            self.kill()
            raise
        finally:
            writer.join()
            if stopped and not isinstance(stopped[0], OSError):
                raise stopped[0]
        if stopped:
            raise SimulatorError(
                f"simulator process died while receiving a batch: "
                f"{stopped[0]}", indices=range(n))
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise SimulatorError("simulator returned non-finite values",
                                 indices=bad.tolist())
        return values

    def _send(self, points, stopped):
        try:
            for block in _request(points):
                self._proc.stdin.write(block)
            self._proc.stdin.flush()
        except BaseException as exc:
            stopped.append(exc)
            # a reader waiting for replies then sees the output close
            self.kill()

    def _receive(self, n):
        values = np.empty(n)
        for i in range(n):
            reply = self._proc.stdout.readline()
            if not reply:
                raise SimulatorError(
                    "simulator process closed its output mid-batch",
                    indices=range(i, n))
            try:
                values[i] = float(reply)
            except ValueError:
                text = reply.strip().decode(errors="replace")
                raise SimulatorError(
                    f"malformed simulator reply {text!r}", indices=[i])
        return values

    def close(self):
        try:
            self._proc.stdin.close()
        except OSError:
            pass  # the simulator is gone; the pipe is closed all the same
        try:
            self._proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            self.kill()
        self._proc.stdout.close()

    def kill(self):
        self._proc.kill()
        self._proc.wait()


class SimulatorPool:
    """An external model's pool of simulators, one per worker.

    Batches are split into contiguous index chunks, evaluated concurrently,
    and reassembled in index order, so results do not depend on the worker
    count.  A failed batch kills every simulator, since unread replies
    would answer the next batch; the pool then fails every later batch.
    """

    def __init__(self, command, workers=1):
        try:
            argv = shlex.split(command or "")
        except ValueError as exc:
            raise ConfigError(f"cannot parse external model command "
                              f"{command!r}: {exc}")
        if not argv:
            raise ConfigError("external model requires a command")
        if workers < 1:
            raise ConfigError("worker count must be at least 1")
        self.workers = int(workers)
        self._sims = []
        try:
            for _ in range(self.workers):
                self._sims.append(ExternalSimulator(argv))
        except SimulatorError:
            # no caller holds the pool yet, so nothing else would stop these
            for sim in self._sims:
                sim.kill()
                sim.close()
            raise
        self._executor = ThreadPoolExecutor(max_workers=self.workers)
        self._failed = False

    def evaluate(self, points):
        points = np.asarray(points, dtype=float)
        if self._failed:
            raise SimulatorError("simulator pool is unusable after a failed "
                                 "batch", indices=range(points.shape[0]))
        try:
            return self._evaluate(points)
        except SimulatorError:
            self._failed = True
            self.kill()
            raise

    def _evaluate(self, points):
        n = points.shape[0]
        # no chunk is empty unless the batch is
        chunks = max(1, min(self.workers, n))
        bounds = np.linspace(0, n, chunks + 1).astype(int)
        futures = [self._executor.submit(sim.evaluate, points[lo:hi])
                   for sim, lo, hi in zip(self._sims, bounds, bounds[1:])]
        parts = []
        for lo, future in zip(bounds, futures):
            try:
                parts.append(future.result())
            except SimulatorError as exc:
                # a simulator numbers its chunk from 0; report batch positions
                raise SimulatorError(str(exc), indices=[
                    int(lo) + i for i in exc.indices]) from exc
        return np.concatenate(parts)

    def close(self):
        self._executor.shutdown(wait=True)
        for sim in self._sims:
            sim.close()

    def kill(self):
        """Kill every simulator; a chunk still running then fails at once."""
        for sim in self._sims:
            sim.kill()
        self._executor.shutdown(wait=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
