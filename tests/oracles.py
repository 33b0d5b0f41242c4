"""High-precision oracles for the test suite.

Everything here goes through mpmath, plain explicit-weight numpy, or
scipy's quadrature and root finders, so expected values stay independent of
the library code under test.  Only the library's DomainError is shared, so
argument checks raise what the library raises.
"""

import functools
import math

import mpmath as mp
import numpy as np
from scipy import integrate, optimize, special, stats

from tailshift.errors import DomainError

mp.mp.dps = 40


def normal_cdf(x):
    return float(mp.ncdf(x))


def normal_pdf(x):
    return float(mp.npdf(x))


def normal_tail(x):
    """P(X > x) without cancellation, accurate for large x."""
    return float(mp.ncdf(-mp.mpf(x)))


def normal_quantile(p):
    """Inverse CDF via the inverse error function at 40 digits."""
    return float(mp.sqrt(2) * mp.erfinv(2 * mp.mpf(p) - 1))


def tail_quantile(q):
    """x with P(X > x) = q, accurate for tiny q."""
    return float(-mp.sqrt(2) * mp.erfinv(2 * mp.mpf(q) - 1))


def shift_second_moment(theta, gamma):
    """Closed form of the 1-D weighted-indicator second moment.

    E[1{X >= gamma} exp(-theta X + theta^2 / 2)] = e^(theta^2) Phi(-(gamma + theta))
    """
    t, g = mp.mpf(theta), mp.mpf(gamma)
    return float(mp.e ** (t * t) * mp.ncdf(-(g + t)))


def golden_minimize(f, lo, hi, tol=1e-12):
    """Golden-section search for the minimizer of a unimodal scalar function."""
    invphi = (mp.sqrt(5) - 1) / 2
    a, b = mp.mpf(lo), mp.mpf(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return float((a + b) / 2)


def optimal_shift_1d(gamma):
    """Minimizer of the 1-D second moment e^(t^2) Phi(-(gamma + t))."""
    g = mp.mpf(gamma)
    return golden_minimize(
        lambda t: t * t + mp.log(mp.ncdf(-(g + t))), 0, g + 3)


def mills_cvar(gamma):
    """E[X | X > gamma] for standard normal X (Mills ratio form)."""
    g = mp.mpf(gamma)
    return float(mp.npdf(g) / mp.ncdf(-g))


def skewed(x):
    """g(x) = x + x^2 / 4 + x^3 / 10, the x_1 part of ``ModelSpec.skewed``."""
    return x + 0.25 * x * x + 0.1 * x ** 3


def skewed_root(y):
    """The real root x of g(x) = y; g is increasing, so it has one, and it
    lies in [-3 hi, hi] for hi = 2 + (10 |y|)^(1/3)."""
    hi = 2.0 + np.cbrt(10.0 * abs(y))
    return optimize.brentq(lambda x: skewed(x) - y, -3.0 * hi, hi,
                           xtol=1e-15, rtol=4 * np.finfo(float).eps)


def skewed_tail(gamma, d):
    """P(h >= gamma) for ``ModelSpec.skewed(d)``, d >= 2.

    h = g(x_1) + 0.05 (q - (d - 1)) with q = |x_2..x_d|^2 ~ chi^2_(d-1)
    independent of x_1, so P(h >= gamma) is the integral of
    Phi_bar(g^-1(gamma - 0.05 (q - d + 1))) against the chi^2_(d-1)
    density, split at its mean d - 1.
    """
    k = d - 1

    def integrand(q):
        return (special.ndtr(-skewed_root(gamma - 0.05 * (q - k)))
                * stats.chi2.pdf(q, k))
    return sum(integrate.quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13,
                              limit=200)[0]
               for lo, hi in ((0.0, k), (k, math.inf)))


@functools.cache
def skewed_gamma(p, d):
    """The level gamma with ``skewed_tail(gamma, d)`` = p, by a root search
    on log p around g(Phi_bar^-1(p))."""
    g = skewed(tail_quantile(p))
    return optimize.brentq(
        lambda gamma: math.log(skewed_tail(gamma, d)) - math.log(p),
        g - 5.0, g + 20.0, xtol=1e-13)


def truncated_mean(a, b):
    """E[X | a <= X <= b] for standard normal X."""
    a, b = mp.mpf(a), mp.mpf(b)
    return float((mp.npdf(a) - mp.npdf(b)) / (mp.ncdf(b) - mp.ncdf(a)))


def truncated_var(a, b):
    a, b = mp.mpf(a), mp.mpf(b)
    z = mp.ncdf(b) - mp.ncdf(a)
    mean = (mp.npdf(a) - mp.npdf(b)) / z
    return float(1 + (a * mp.npdf(a) - b * mp.npdf(b)) / z - mean ** 2)


@functools.lru_cache(maxsize=16)
def _endpoint_ncdf(a):
    # a KS test calls truncated_cdf once per draw with the same endpoints
    return mp.ncdf(mp.mpf(a))


def truncated_cdf(x, a, b):
    """CDF of the standard normal truncated to [a, b]."""
    lo, hi = _endpoint_ncdf(a), _endpoint_ncdf(b)
    x, a, b = mp.mpf(x), mp.mpf(a), mp.mpf(b)
    if x <= a:
        return 0.0
    if x >= b:
        return 1.0
    return float((mp.ncdf(x) - lo) / (hi - lo))


def cvar_toy_variances(gamma):
    """Asymptotic variances of both CVaR estimators in the unshifted 1-D toy.

    Returns (sigma_sq, sigma_bar_sq) assembled from exact normal moments:
    p = Phi(-g), E[Y 1] = phi(g), E[Y^2 1] = g phi(g) + Phi(-g).
    """
    g = mp.mpf(gamma)
    p = mp.ncdf(-g)
    ey1 = mp.npdf(g)
    ey21 = g * mp.npdf(g) + p
    var_y1 = ey21 - ey1 ** 2
    sigma_bar = var_y1 / p ** 2
    sigma = sigma_bar - ey1 ** 2 * (1 - p) / p ** 3
    return float(sigma), float(sigma_bar)


def estimate_cvar_unnormalized(sample, p):
    """Unbiased comparison CVaR estimator dividing by a known (or estimated) p.

    Returns (estimate, sigma_bar_sq) of a TailSample; the plug-in variance is
    typically far above the self-normalized one, which is the price of
    unbiasedness.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError("p must lie in (0, 1]")
    yiw = sample.responses * hit_terms(sample)
    return (float(yiw.mean()) / p,
            float((yiw * yiw).mean() - yiw.mean() ** 2) / (p * p))


def cvar_exact_bias(cvar, p, n):
    """Exact bias of the self-normalized CVaR estimator, unshifted regime.

    bias = -cvar * (1 - p)^n, i.e. the expectation is cvar * (1 - (1-p)^n)
    when replications without any survivor contribute zero.
    """
    if not 0.0 < p <= 1.0:
        raise DomainError("p must lie in (0, 1]")
    if n < 1:
        raise DomainError("n must be at least 1")
    return -cvar * (1.0 - p) ** n


def _criterion_terms(theta, batch):
    """Survivor points and their explicit weighted-indicator terms at theta.

    exp(l_j - theta . X_j + |theta|^2 / 2) per survivor, l_j its log weight:
    the ratio f_0 / f_q back to the nominal law from the row's own proposal q
    times the final weight f_0 / f_theta.  These overflow for extreme shifts,
    which the library's log-space objective avoids.
    """
    theta = np.asarray(theta, dtype=float)
    pts = batch.points[batch.survivors]
    offsets = batch.log_weights[batch.survivors]
    w = np.exp(offsets - pts @ theta + 0.5 * (theta @ theta))
    return theta, pts, w


def variance_criterion(theta, batch):
    """Empirical second moment of the weighted survivor indicator at theta."""
    _, _, w = _criterion_terms(theta, batch)
    return float(w.sum() / batch.size)


def variance_criterion_gradient(theta, batch):
    theta, pts, w = _criterion_terms(theta, batch)
    return (w.sum() * theta - w @ pts) / batch.size


def variance_criterion_hessian(theta, batch):
    theta, pts, w = _criterion_terms(theta, batch)
    diff = theta - pts
    return (w.sum() * np.eye(theta.size)
            + diff.T @ (w[:, None] * diff)) / batch.size


def hit_terms(sample):
    """Per-run terms 1{response >= gamma} * weight of a TailSample."""
    return np.where(sample.responses >= sample.gamma,
                    np.exp(sample.log_weights), 0.0)


def slab_labels_of_points(points, theta, slabs):
    """Slab of each N(theta, I) point among ``slabs`` equiprobable slabs of
    t = u . (x - theta), u = theta / |theta|.

    Slab i holds t in [a_i, a_(i+1)), a_k the standard normal quantile of
    k / slabs at 40 digits.
    """
    theta = np.asarray(theta, dtype=float)
    t = (points - theta) @ (theta / np.linalg.norm(theta))
    bounds = [normal_quantile(k / slabs) for k in range(1, slabs)]
    return np.searchsorted(bounds, t, side="right")


def post_stratified(labels, terms, slabs):
    """Post-stratified mean of ``terms`` over equiprobable slabs, and its
    standard error.

    sum_i mean_i / I, with variance sum_i (E_i[T^2] - mean_i^2) / (I^2 n_i)
    over I = ``slabs`` slabs.  Each slab's terms are summed as a running
    sum in row order.
    """
    per_slab = [terms[labels == i] for i in range(slabs)]
    counts = np.array([t.size for t in per_slab], dtype=float)
    s1 = np.array([np.cumsum(t)[-1] for t in per_slab])
    q = np.array([np.cumsum(t * t)[-1] for t in per_slab])
    mean = s1 / counts
    variance = float(((q / counts - mean * mean) / counts).sum())
    return float(mean.sum()) / slabs, math.sqrt(max(variance, 0.0)) / slabs


def newton_shift(batch, tol=1e-8, max_iter=50):
    """(theta, Newton iterations) of the optimal-shift Newton solve, written
    as plainly as ``meanshift.solve_optimal_shift``'s arithmetic allows.

    It starts at zero.  Every iteration recomputes the survivor exponents
    l_j - theta . X_j from theta and builds each Newton system as identity
    plus Gram matrix, so the library's reuse of exponents and in-place
    diagonal must reproduce it bit for bit.  Raises RuntimeError where the library raises NotConverged.
    """
    pts = batch.points[batch.survivors]
    offsets = batch.log_weights[batch.survivors]
    n, dim = batch.size, batch.dimension

    def exponents(theta):
        return offsets - pts @ theta

    def softmax(expo):
        w = np.exp(expo - expo.max())
        return w / w.sum()

    def objective(theta):
        expo = exponents(theta)
        m = expo.max()
        return float(0.5 * theta @ theta
                     + (m + np.log(np.exp(expo - m).sum() / n)))

    def newton_step(a, grad):
        k = a.shape[0]
        if dim <= k:
            return np.linalg.solve(np.eye(dim) + a.T @ a, -grad)
        return (a.T @ np.linalg.solve(np.eye(k) + a @ a.T, a @ grad)
                - grad)

    theta = np.zeros(dim)
    value = objective(theta)
    for iteration in range(max_iter):
        s = softmax(exponents(theta))
        mean = s @ pts
        grad = theta - mean
        if np.linalg.norm(grad) <= tol:
            return theta, iteration
        delta = newton_step(np.sqrt(s)[:, None] * (pts - mean), grad)
        slope = grad @ delta
        if -slope <= 64.0 * np.finfo(float).eps * max(1.0, abs(value)):
            theta = theta + delta
            value = objective(theta)
            continue
        step = 1.0
        while True:
            candidate = theta + step * delta
            cand_value = objective(candidate)
            if cand_value <= value + 1e-4 * step * slope:
                break
            step *= 0.5
            if step < 1e-18:
                raise RuntimeError("line search failed to make progress")
        theta, value = candidate, cand_value
    grad = theta - softmax(exponents(theta)) @ pts
    if np.linalg.norm(grad) <= tol:
        return theta, max_iter
    raise RuntimeError(f"no convergence within {max_iter} Newton iterations")


def linear_relative_variance(theta, coefficients, gamma):
    """Per-run relative variance of the shift-theta estimator of
    P(c . X >= gamma), X ~ N(0, I), at 40 digits.

    The weighted indicator's second moment is
    e^(|theta|^2) Phi_bar((gamma + c . theta) / |c|); the relative variance
    divides it by p^2 = Phi_bar(gamma / |c|)^2 and subtracts one.
    """
    th = [mp.mpf(float(t)) for t in theta]
    c = [mp.mpf(float(a)) for a in coefficients]
    norm = mp.sqrt(mp.fsum(a * a for a in c))
    g = mp.mpf(gamma)
    second = (mp.e ** mp.fsum(t * t for t in th)
              * mp.ncdf(-(g + mp.fsum(a * t for a, t in zip(c, th))) / norm))
    return float(second / mp.ncdf(-g / norm) ** 2 - 1)
