"""Black-box response models.

Builtin analytic families cover testing and benchmarking; an external-process
adapter runs any executable that speaks the line protocol below, standing in
for a circuit simulator or any other expensive evaluator.

Protocol (request on the child's stdin, reply on its stdout):

    EVAL <n> <d>\n
    <d reals>\n        repeated n times, 17 significant digits each
    ->  <1 real>\n     repeated n times, in request order
"""

import shlex
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import row_dot, std_normal_cdf
from .errors import ConfigError, DomainError, SimulatorError

_REAL_FMT = "%.17g"


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A scalar response h over R^d plus its tail orientation.

    kind is one of "identity", "linear", "skewed", "external".  Linear models
    carry two coefficient blocks: ``coeff_a`` applies to the leading
    coordinates, ``coeff_b`` to the rest.
    """

    kind: str
    dimension: int
    tail: str = "right"
    coeff_a: np.ndarray | None = None
    coeff_b: np.ndarray | None = None
    command: str | None = None

    def __post_init__(self):
        if self.dimension < 1:
            raise DomainError("model dimension must be at least 1")
        if self.tail not in ("right", "left"):
            raise DomainError("tail must be 'right' or 'left'")

    @classmethod
    def identity(cls, dimension=1, tail="right"):
        """h(x) = x_1, ignoring any further coordinates."""
        return cls(kind="identity", dimension=dimension, tail=tail)

    @classmethod
    def linear(cls, coeff_a, coeff_b=(), tail="right"):
        """h(x) = a . x_A + b . x_B over the leading / trailing blocks."""
        a = np.asarray(coeff_a, dtype=float)
        b = np.asarray(coeff_b, dtype=float)
        if a.size == 0 or not np.all(np.isfinite(a)) or not np.all(np.isfinite(b)):
            raise DomainError("linear coefficients must be nonempty and finite")
        return cls(kind="linear", dimension=a.size + b.size, tail=tail,
                   coeff_a=a, coeff_b=b)

    @classmethod
    def linear_family(cls, dimension, important=10, major=1.0, minor=0.01,
                      tail="right"):
        """Linear model with a small block of dominant coordinates.

        The leading min(important, dimension) coordinates get coefficient
        ``major``; the remaining ones get ``minor``, so they act as noise
        variables of known ground truth.
        """
        k = min(int(important), int(dimension))
        return cls.linear(np.full(k, major), np.full(int(dimension) - k, minor),
                          tail=tail)

    @classmethod
    def skewed(cls, dimension=3, tail="right"):
        """Smooth monotone-in-x1 nonlinearity with a visibly skewed output law."""
        return cls(kind="skewed", dimension=dimension, tail=tail)

    @classmethod
    def external(cls, command, dimension, tail="right"):
        """Response evaluated by a child process speaking the line protocol."""
        if not command:
            raise ConfigError("external model requires a command")
        return cls(kind="external", dimension=dimension, tail=tail, command=command)

    def coefficient_stack(self):
        """Stacked coefficient vector c with h(X) ~ N(0, |c|^2); None if no oracle."""
        if self.kind == "identity":
            c = np.zeros(self.dimension)
            c[0] = 1.0
            return c
        if self.kind == "linear":
            return np.concatenate([self.coeff_a, self.coeff_b])
        return None


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
    c = model.coefficient_stack()
    if c is None:
        return None
    g = oriented_response(model, gamma)
    return float(std_normal_cdf(-g / np.linalg.norm(c)))


def _identity_values(model, points):
    return points[:, 0].copy()


def _linear_values(model, points):
    k = model.coeff_a.size
    out = row_dot(points[:, :k], model.coeff_a, points.size)
    if model.coeff_b.size:
        out = out + row_dot(points[:, k:], model.coeff_b, points.size)
    return out


def _skewed_values(model, points):
    # monotone in x1: d/dx (x + 0.25 x^2 + 0.1 x^3) = 1 + 0.5 x + 0.3 x^2 > 0
    x1 = points[:, 0]
    out = x1 + 0.25 * x1 ** 2 + 0.1 * x1 ** 3
    if model.dimension > 1:
        rest = points[:, 1:]
        out = out + 0.05 * np.einsum("ij,ij->i", rest, rest) - 0.05 * (model.dimension - 1)
    return out


_BUILTINS = {
    "identity": _identity_values,
    "linear": _linear_values,
    "skewed": _skewed_values,
}


def response_values(model, points, pool=None):
    """Vectorized responses for an (n, d) array of points."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[1] != model.dimension:
        raise DomainError(
            f"points must be (n, {model.dimension}), got {points.shape}")
    if model.kind == "external":
        if pool is not None:
            return pool.evaluate(points)
        with SimulatorPool(model.command, model.dimension) as tmp:
            return tmp.evaluate(points)
    return _BUILTINS[model.kind](model, points)


class ExternalSimulator:
    """One child process evaluating batches over the line protocol.

    A simulator handles one batch at a time; run several in a SimulatorPool
    for parallel evaluation.
    """

    def __init__(self, command, dimension):
        self.command = command
        self.dimension = int(dimension)
        try:
            self._proc = subprocess.Popen(
                shlex.split(command),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
                bufsize=1,
            )
        except OSError as exc:
            raise SimulatorError(f"cannot start simulator {command!r}: {exc}")

    def evaluate(self, points):
        points = np.asarray(points, dtype=float)
        n, d = points.shape
        # one format string per row; converting row by row keeps the
        # Python floats of only one row alive at a time
        row_fmt = " ".join([_REAL_FMT] * d)
        lines = [f"EVAL {n} {d}"]
        lines.extend(row_fmt % tuple(row.tolist()) for row in points)
        try:
            self._proc.stdin.write("\n".join(lines) + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise SimulatorError(
                f"simulator process died while receiving a batch: {exc}",
                indices=range(n))
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
                raise SimulatorError(
                    f"malformed simulator reply {reply.strip()!r}", indices=[i])
        bad = np.flatnonzero(~np.isfinite(values))
        if bad.size:
            raise SimulatorError("simulator returned non-finite values",
                                 indices=bad.tolist())
        return values

    def close(self):
        if self._proc.poll() is None:
            try:
                self._proc.stdin.close()
            except OSError:
                pass
            try:
                self._proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.kill()

    def kill(self):
        self._proc.kill()
        self._proc.wait()


class SimulatorPool:
    """Pool of external simulators, one per worker.

    Batches are split into contiguous index chunks, evaluated concurrently,
    and reassembled in index order, so results do not depend on the worker
    count.  A failed batch kills every simulator, since unread replies
    would answer the next batch; the pool then fails every later batch.
    """

    def __init__(self, command, dimension, workers=1):
        if workers < 1:
            raise ConfigError("worker count must be at least 1")
        self.workers = int(workers)
        self._sims = [ExternalSimulator(command, dimension)
                      for _ in range(self.workers)]
        self._executor = (ThreadPoolExecutor(max_workers=self.workers)
                          if self.workers > 1 else None)
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
            if self._executor is not None:
                self._executor.shutdown(wait=True)
            for sim in self._sims:
                sim.kill()
            raise

    def _evaluate(self, points):
        n = points.shape[0]
        if self.workers == 1 or n < 2 * self.workers:
            return self._sims[0].evaluate(points)
        bounds = np.linspace(0, n, self.workers + 1).astype(int)
        # n >= 2 * workers here, so no chunk is empty
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
        if self._executor is not None:
            self._executor.shutdown(wait=True)
        for sim in self._sims:
            sim.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False
