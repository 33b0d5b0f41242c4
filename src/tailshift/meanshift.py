"""Optimal Gaussian mean-shift machinery.

Importance sampling with the instrumental family N(theta, I_d) weighs a sample
x by the density ratio

    f(x; from) / f(x; to) = exp((from - to) . x + (|to|^2 - |from|^2) / 2).

The best shift minimises the second moment, under the nominal law, of the
final estimator's weighted survivor indicator (the variance criterion).  Each
row x_j of a batch carries its own log weight l_j = log f_0 / f_q(x_j) under
the proposal q it was drawn from, so rows of several proposals can share one
solve.  From such a batch that moment is

    (1/n) sum_survivors exp(l_j) (f_0 / f_theta)(x_j)
        = (1/n) sum_survivors exp(l_j - theta . x_j + |theta|^2 / 2):

one ratio carries the row back to the nominal law, the other is the final
estimator's weight.  The criterion is smooth and strongly convex, but its
curvature shrinks with the event probability, so the solver instead works on
a log-transformed objective with the same stationary point whose Hessian
never drops below the identity:

    J(theta) = |theta|^2 / 2 + log( (1/n) sum_survivors exp(l_j - theta . x_j) )

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
    """Rows with survivor flags at some level and their log weights
    log f_0 / f_q, each under the proposal q the row was drawn from."""

    points: np.ndarray          # (n, d)
    survivors: np.ndarray       # (n,) bool
    log_weights: np.ndarray     # (n,)

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        self.survivors = np.asarray(self.survivors, dtype=bool)
        self.log_weights = np.asarray(self.log_weights, dtype=float)
        n = self.points.shape[0]
        if n < 1:
            raise DomainError("batch must contain at least one sample")
        if self.survivors.shape != (n,) or self.log_weights.shape != (n,):
            raise DomainError("survivor flags and log weights must have length n")
        if not (np.all(np.isfinite(self.points))
                and np.all(np.isfinite(self.log_weights))):
            raise DomainError("batch contains non-finite entries")

    @classmethod
    def from_threshold(cls, points, responses, level, log_weights):
        responses = np.asarray(responses, dtype=float)
        if not np.all(np.isfinite(responses)):
            raise DomainError("batch contains non-finite entries")
        return cls(points=points, survivors=responses >= level,
                   log_weights=log_weights)

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
    """The batch's survivor points and log weights, gathered once per solve."""
    if batch.survivor_count == 0:
        raise NoSurvivors("no survivor in the batch")
    return batch.points[batch.survivors], batch.log_weights[batch.survivors]


def _exponents(theta, pts, offsets):
    """Exp-arguments l_j - theta . x_j of survivor rows ``pts`` whose log
    weights are ``offsets``."""
    return offsets - pts @ theta


def _softmax(expo):
    w = np.exp(expo - expo.max())
    return w / w.sum()


def _log_mean_exp(expo, n):
    m = expo.max()
    return m + np.log(np.exp(expo - m).sum() / n)


def _objective_at(theta, expo, n):
    """The objective at ``theta`` from its survivor exponents ``expo``."""
    return float(0.5 * theta @ theta + _log_mean_exp(expo, n))


def log_objective(theta, batch):
    """Convexified objective sharing its stationary point with the criterion."""
    theta = np.asarray(theta, dtype=float)
    pts, offsets = _survivor_rows(batch)
    return _objective_at(theta, _exponents(theta, pts, offsets), batch.size)


def log_objective_gradient(theta, batch):
    theta = np.asarray(theta, dtype=float)
    pts, offsets = _survivor_rows(batch)
    return theta - _softmax(_exponents(theta, pts, offsets)) @ pts


def log_objective_hessian(theta, batch):
    """I + weighted covariance of the survivor points; always >= I."""
    theta = np.asarray(theta, dtype=float)
    pts, offsets = _survivor_rows(batch)
    s = _softmax(_exponents(theta, pts, offsets))
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

    Starts at zero, the nominal law.  Each Newton system
    (I + weighted_cov) delta = -grad is solved directly, in whichever of the
    dimension and the survivor count is smaller; an Armijo backtracking line
    search keeps the objective monotone.  Raises NotConverged past
    ``max_iter`` steps or when the line search stalls.
    """
    pts, offsets = _survivor_rows(batch)
    n = batch.size
    theta = np.zeros(batch.dimension)
    # the exponents at theta, kept from the step that accepted it
    expo = _exponents(theta, pts, offsets)
    value = _objective_at(theta, expo, n)
    for iteration in range(max_iter + 1):
        s = _softmax(expo)
        mean = s @ pts
        grad = theta - mean
        grad_norm = np.linalg.norm(grad)
        if grad_norm <= tol:
            return _solution(theta, iteration, grad_norm)
        if iteration == max_iter:
            raise NotConverged(
                f"no convergence within {max_iter} Newton iterations")

        centered = pts - mean
        centered *= np.sqrt(s)[:, None]
        delta = _newton_step(centered, grad)
        slope = grad @ delta
        if -slope <= 64.0 * np.finfo(float).eps * max(1.0, abs(value)):
            # the predicted decrease is below the objective's float
            # resolution; the quadratic model rules here, take the raw step
            theta = theta + delta
            expo = _exponents(theta, pts, offsets)
            value = _objective_at(theta, expo, n)
            continue
        step = 1.0
        while True:
            candidate = theta + step * delta
            cand_expo = _exponents(candidate, pts, offsets)
            cand_value = _objective_at(candidate, cand_expo, n)
            if cand_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-18:
                raise NotConverged("line search failed to make progress")
        theta, expo, value = candidate, cand_expo, cand_value
