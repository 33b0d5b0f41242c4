"""Optimal Gaussian mean-shift machinery.

Importance sampling with the instrumental family N(theta, I_d) weighs a sample
x by the density ratio

    f(x; from) / f(x; to) = exp((from - to) . x + (|to|^2 - |from|^2) / 2).

The best shift minimises the second moment, under the nominal law, of the
final estimator's weighted survivor indicator (the variance criterion).  From
a batch drawn under the base shift b that moment is

    E_b[ 1_A (f_0 / f_b)(X) (f_0 / f_theta)(X) ],

whose exponent is -(theta + b) . X: one ratio carries the batch back to the
nominal law, the other is the final estimator's weight.  The criterion is
smooth and strongly convex, but its curvature shrinks with the event
probability, so the solver instead works on a log-transformed objective with
the same stationary point whose Hessian never drops below the identity:

    J(theta) = |theta|^2 / 2 + log( (1/n) sum_survivors exp(-(theta + b) . X_j) )

grad J(theta) = theta - weighted_mean(X);  hess J(theta) = I + weighted_cov(X).

Each Newton step solves that Hessian system directly, in the smaller of the
dimension and the survivor count.  All weight sums run through log-sum-exp
so large shifts cannot overflow.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NoSurvivors, NotConverged


@dataclass
class WeightedBatch:
    """Samples drawn under ``base_shift`` with survivor flags at some level."""

    points: np.ndarray          # (n, d)
    responses: np.ndarray       # (n,) oriented responses
    survivors: np.ndarray       # (n,) bool
    base_shift: np.ndarray      # (d,)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.responses = np.asarray(self.responses, dtype=float)
        self.survivors = np.asarray(self.survivors, dtype=bool)
        self.base_shift = np.asarray(self.base_shift, dtype=float)
        n, d = self.points.shape
        if n < 1:
            raise DomainError("batch must contain at least one sample")
        if self.responses.shape != (n,) or self.survivors.shape != (n,):
            raise DomainError("responses and survivor flags must have length n")
        if self.base_shift.shape != (d,):
            raise DomainError("base shift dimension does not match the points")
        if not (np.all(np.isfinite(self.points))
                and np.all(np.isfinite(self.responses))
                and np.all(np.isfinite(self.base_shift))):
            raise DomainError("batch contains non-finite entries")

    @classmethod
    def from_threshold(cls, points, responses, level, base_shift):
        responses = np.asarray(responses, dtype=float)
        return cls(points=points, responses=responses,
                   survivors=responses >= level, base_shift=base_shift)

    @property
    def size(self):
        return self.points.shape[0]

    @property
    def dimension(self):
        return self.points.shape[1]

    @property
    def survivor_count(self):
        return int(self.survivors.sum())


@dataclass
class ShiftSolution:
    """Solver output: the converged shift and its convergence data."""

    theta: np.ndarray
    newton_iterations: int
    grad_norm: float


def _survivor_rows(batch):
    """The batch's survivor points, gathered once per solve."""
    if batch.survivor_count == 0:
        raise NoSurvivors("no survivor in the batch")
    return batch.points[batch.survivors]


def _exponents(theta, pts, batch):
    """Log weight exp-arguments -(theta + b) . X of survivor rows ``pts``."""
    return -(pts @ (np.asarray(theta, dtype=float) + batch.base_shift))


def _softmax(expo):
    w = np.exp(expo - expo.max())
    return w / w.sum()


def _log_mean_exp(expo, n):
    m = expo.max()
    return m + np.log(np.exp(expo - m).sum() / n)


def _objective_at(theta, expo, n):
    """The objective at ``theta`` from its survivor exponents ``expo``."""
    return float(0.5 * theta @ theta + _log_mean_exp(expo, n))


def _objective(theta, pts, batch):
    return _objective_at(theta, _exponents(theta, pts, batch), batch.size)


def _gradient(theta, pts, batch):
    return theta - _softmax(_exponents(theta, pts, batch)) @ pts


def log_objective(theta, batch):
    """Convexified objective sharing its stationary point with the criterion."""
    theta = np.asarray(theta, dtype=float)
    return _objective(theta, _survivor_rows(batch), batch)


def log_objective_gradient(theta, batch):
    theta = np.asarray(theta, dtype=float)
    return _gradient(theta, _survivor_rows(batch), batch)


def log_objective_hessian(theta, batch):
    """I + weighted covariance of the survivor points; always >= I."""
    theta = np.asarray(theta, dtype=float)
    pts = _survivor_rows(batch)
    s = _softmax(_exponents(theta, pts, batch))
    mean = s @ pts
    centered = pts - mean
    return np.eye(batch.dimension) + centered.T @ (s[:, None] * centered)


def _newton_step(a, grad):
    """Solve (I + a^T a) delta = -grad for a k x d factor ``a``.

    Uses the d x d system when d <= k, otherwise the k x k Woodbury form
    -grad + a^T (I + a a^T)^-1 a grad.
    """
    k, d = a.shape
    if d <= k:
        return np.linalg.solve(_plus_identity(a.T @ a), -grad)
    ag = a @ grad
    return a.T @ np.linalg.solve(_plus_identity(a @ a.T), ag) - grad


def _plus_identity(gram):
    """``gram`` with one added to its diagonal, in place."""
    gram.flat[::gram.shape[0] + 1] += 1.0
    return gram


def _solution(theta, iterations, grad_norm):
    return ShiftSolution(
        theta=np.asarray(theta, dtype=float).copy(),
        newton_iterations=iterations,
        grad_norm=float(grad_norm),
    )


def solve_optimal_shift(batch, tol=1e-8, max_iter=50):
    """Newton solve of the optimal shift on the convexified objective.

    Starts from the batch's base shift.  Each Newton system
    (I + weighted_cov) delta = -grad is solved directly, in whichever of the
    dimension and the survivor count is smaller; an Armijo backtracking line
    search keeps the objective monotone.  Raises NotConverged past
    ``max_iter`` steps or when the line search stalls.
    """
    pts = _survivor_rows(batch)
    n = batch.size
    theta = batch.base_shift.copy()
    # the exponents at theta, kept from the step that accepted it
    expo = _exponents(theta, pts, batch)
    value = _objective_at(theta, expo, n)
    for iteration in range(max_iter):
        s = _softmax(expo)
        mean = s @ pts
        grad = theta - mean
        grad_norm = np.linalg.norm(grad)
        if grad_norm <= tol:
            return _solution(theta, iteration, grad_norm)

        centered = pts - mean
        centered *= np.sqrt(s)[:, None]
        delta = _newton_step(centered, grad)
        slope = grad @ delta
        if -slope <= 64.0 * np.finfo(float).eps * max(1.0, abs(value)):
            # the predicted decrease is below the objective's float
            # resolution; the quadratic model rules here, take the raw step
            theta = theta + delta
            expo = _exponents(theta, pts, batch)
            value = _objective_at(theta, expo, n)
            continue
        step = 1.0
        while True:
            candidate = theta + step * delta
            cand_expo = _exponents(candidate, pts, batch)
            cand_value = _objective_at(candidate, cand_expo, n)
            if cand_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-18:
                raise NotConverged("line search failed to make progress")
        theta, expo, value = candidate, cand_expo, cand_value

    grad_norm = np.linalg.norm(theta - _softmax(expo) @ pts)
    if grad_norm <= tol:
        return _solution(theta, max_iter, grad_norm)
    raise NotConverged(f"no convergence within {max_iter} Newton iterations")
