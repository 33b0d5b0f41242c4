"""Adaptive level ladder and the final importance-sampling estimator.

For a very rare event, solving for the optimal shift directly is hopeless
because a feasible-size batch contains no survivor.  The ladder raises an
intermediate level one batch at a time: each batch is drawn under the shift
solved at the previous level, the next level is the top-rho order statistic
of its responses (capped at the target), and the shift is re-solved on the
new survivors.  Events at each level are therefore never rare.  A final,
independent batch under the last shift produces the unbiased probability
estimate and its confidence interval.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .core import std_normal_quantile
from .dimred import augment_selection, select_important, solve_shift_in_subspace
from .errors import (BudgetExhausted, DegenerateBatch, DomainError,
                     MaxLevelsExceeded)
from .meanshift import WeightedBatch, solve_optimal_shift
from .model import oriented_response, response_values

# Stream id spaces; exploration and final phases never share a stream.
LADDER_STREAM = 1_000
FINAL_STREAM = 2_000_000
QUANTILE_STREAM = 3_000_000
STRATA_PILOT_STREAM = 4_000_000
STRATA_MAIN_STREAM = 4_500_000


def z_value(confidence):
    if not 0.0 < confidence < 1.0:
        raise DomainError("confidence level must lie in (0, 1)")
    return float(std_normal_quantile(0.5 + 0.5 * confidence))


def mc_equivalent_runs(p, rel_half_width, confidence=0.95):
    """Plain Monte Carlo run count needed for the same relative half-width."""
    z = z_value(confidence)
    return z * z * (1.0 - p) / (p * rel_half_width * rel_half_width)


@dataclass
class LadderConfig:
    """Settings of the exploration ladder and its inner Newton solves."""

    gamma: float | None = None
    n_per_level: int = 1000
    rho: float = 0.10
    max_levels: int = 30
    newton_tol: float = 1e-8
    newton_max_iter: int = 50
    dimred: bool | str = "auto"     # True, False, or "auto" (on when d > threshold)
    dimred_threshold: int = 500
    dimred_max: int = 200
    dimred_energy: float = 0.99
    progress_floor: float = 1e-9
    stall_limit: int = 3

    def validate(self):
        if not 0.0 < self.rho < 1.0:
            raise DomainError("rho must lie in (0, 1)")
        if self.n_per_level < 100:
            raise DomainError("n_per_level must be at least 100")
        if self.max_levels < 1:
            raise DomainError("max_levels must be at least 1")


@dataclass
class LadderLevel:
    """One exploration level, matching the per-iteration report columns."""

    index: int
    gamma: float                # model units
    theta: np.ndarray
    survivor_count: int
    estimate: float             # exceedance estimate at this level, nominal measure
    rel_half_width: float
    newton_iterations: int
    runs: int


@dataclass
class LadderTrace:
    levels: list = field(default_factory=list)
    selection: object = None    # SubspaceSelection or None

    @property
    def exploration_runs(self):
        return sum(level.runs for level in self.levels)

    def rows(self):
        return [
            {
                "iteration": lvl.index,
                "runs": lvl.runs,
                "gamma": lvl.gamma,
                "estimate": lvl.estimate,
                "ci95_rel": lvl.rel_half_width,
            }
            for lvl in self.levels
        ]


@dataclass
class EstimateReport:
    """Point estimate, relative confidence interval, and cost accounting."""

    estimate: float
    rel_half_width: float
    confidence: float
    runs_exploration: int
    runs_final: int
    speedup: float
    gamma: float | None = None
    theta: np.ndarray | None = None
    converged: bool = True
    zero_hits: bool = False

    @property
    def runs_total(self):
        return self.runs_exploration + self.runs_final


@dataclass
class TailSample:
    """Responses and log likelihood-ratio weights of one final-phase batch.

    Everything downstream of the simulator (probability, CI, CVaR) reduces
    over these arrays, so follow-up estimators cost no extra model runs.
    """

    responses: np.ndarray       # oriented
    log_weights: np.ndarray
    gamma: float                # oriented threshold
    theta: np.ndarray

    @property
    def size(self):
        return self.responses.size

    def hit_terms(self, gamma=None):
        level = self.gamma if gamma is None else gamma
        return np.where(self.responses >= level, np.exp(self.log_weights), 0.0)

    def merge(self, other):
        if other.gamma != self.gamma or not np.array_equal(other.theta, self.theta):
            raise DomainError("cannot merge samples drawn for different targets")
        return TailSample(
            responses=np.concatenate([self.responses, other.responses]),
            log_weights=np.concatenate([self.log_weights, other.log_weights]),
            gamma=self.gamma,
            theta=self.theta,
        )


def next_level(responses, rho, gamma):
    """Next ladder level: the top-rho order statistic, capped at gamma.

    Uses the sorted value at index ceil((1 - rho) * n), which guarantees at
    least ceil(rho * n) - 1 survivors at the returned level.
    """
    responses = np.asarray(responses, dtype=float)
    n = responses.size
    if n == 0:
        raise DomainError("responses must be nonempty")
    if not 0.0 < rho < 1.0:
        raise DomainError("rho must lie in (0, 1)")
    if np.all(responses == responses[0]) and responses[0] < gamma:
        raise DegenerateBatch(
            "all responses identical and below the target level")
    # small slack so exact-fraction products do not round up to the next index
    idx = min(n - 1, int(math.ceil((1.0 - rho) * n - 1e-9)))
    level = float(np.partition(responses, idx)[idx])
    return min(level, gamma)


def _use_dimred(config, dimension):
    if config.dimred is True:
        return True
    if config.dimred is False:
        return False
    return dimension > config.dimred_threshold


def _solve_level(batch, selection, config):
    kwargs = dict(tol=config.newton_tol, max_iter=config.newton_max_iter)
    if selection is not None and selection.size < batch.dimension:
        return solve_shift_in_subspace(batch, selection, **kwargs)
    return solve_optimal_shift(batch, **kwargs)


def weighted_exceedance(responses, weights, level):
    """Nominal exceedance estimate at ``level`` and its standard error.

    ``weights`` are linear likelihood ratios to the nominal measure.
    """
    terms = np.where(responses >= level, weights, 0.0)
    estimate = float(terms.mean())
    variance = float((terms * terms).mean() - estimate * estimate)
    return estimate, math.sqrt(max(variance, 0.0) / terms.size)


def run_ladder(model, config, rng, pool=None, level_rule=None):
    """Run the exploration ladder; returns the final shift and the trace.

    ``level_rule(responses, weights) -> (level, done)`` picks each level from
    a batch's oriented responses and likelihood-ratio weights; the ladder
    stops once the shift is solved at a level marked done.  The default rule
    is the top-rho statistic capped at ``config.gamma``, done at gamma.
    Trace rows carry the 95% relative half-width their ``ci95_rel`` column
    names, whatever confidence the final estimate uses.
    Raises MaxLevelsExceeded (carrying the trace) past ``max_levels`` or,
    under the default rule, after ``stall_limit`` consecutive stalled levels.
    """
    config.validate()
    # a custom rule has no fixed target to stall below
    stall_floor = -math.inf
    if level_rule is None:
        if config.gamma is None:
            raise DomainError("ladder config must set gamma")
        gamma_o = float(oriented_response(model, config.gamma))
        stall_floor = config.progress_floor * max(1.0, abs(gamma_o))

        def level_rule(responses, weights):
            level = next_level(responses, config.rho, gamma_o)
            return level, level >= gamma_o
    d = model.dimension
    z = z_value(0.95)
    theta = np.zeros(d)
    trace = LadderTrace()
    selection = None
    stall = 0
    prev_level = None
    for k in range(1, config.max_levels + 1):
        stream = rng.child(LADDER_STREAM + k)
        noise = stream.generator.standard_normal((config.n_per_level, d))
        points = noise + theta
        responses = oriented_response(model, response_values(model, points, pool))
        # likelihood ratio N(0, I) / N(theta, I) at each point
        weights = np.exp(points @ -theta + 0.5 * (theta @ theta))
        level, done = level_rule(responses, weights)
        batch = WeightedBatch.from_threshold(points, responses, level,
                                             base_shift=theta)
        if _use_dimred(config, d):
            # later levels may reveal coordinates the pilot missed; grow the
            # subset (never shrink) so an early miss cannot poison the run
            selection = (select_important(batch, config.dimred_max,
                                          config.dimred_energy)
                         if selection is None else
                         augment_selection(selection, batch,
                                           max_dim=config.dimred_max))
            trace.selection = selection
        sol = _solve_level(batch, selection, config)
        estimate, se = weighted_exceedance(responses, weights, level)
        rel = z * se / estimate if estimate > 0.0 else math.inf
        trace.levels.append(LadderLevel(
            index=k,
            gamma=float(oriented_response(model, level)),
            theta=sol.theta,
            survivor_count=batch.survivor_count,
            estimate=estimate,
            rel_half_width=rel,
            newton_iterations=sol.newton_iterations,
            runs=config.n_per_level,
        ))
        theta = sol.theta
        if done:
            return theta, trace
        if prev_level is not None and (level - prev_level) < stall_floor:
            stall += 1
            if stall >= config.stall_limit:
                raise MaxLevelsExceeded(
                    f"ladder stalled below gamma after {k} levels", trace=trace)
        else:
            stall = 0
        prev_level = level
    raise MaxLevelsExceeded(
        f"ladder target not reached within {config.max_levels} levels",
        trace=trace)


def draw_tail_sample(model, gamma, theta, m, rng, pool=None):
    """Draw m fresh samples under the shift and record weighted responses."""
    if m < 1:
        raise DomainError("sample size must be at least 1")
    theta = np.asarray(theta, dtype=float)
    noise = rng.generator.standard_normal((int(m), model.dimension))
    values = response_values(model, noise + theta, pool)
    return TailSample(
        responses=oriented_response(model, values),
        log_weights=-(noise @ theta) - 0.5 * theta @ theta,
        gamma=float(oriented_response(model, gamma)),
        theta=theta,
    )


def report_from_sample(sample, confidence=0.95, runs_exploration=0,
                       gamma=None, converged=None):
    """Probability estimate with CI and speedup from a weighted tail sample."""
    z = z_value(confidence)
    m = sample.size
    estimate, se = weighted_exceedance(sample.responses,
                                       np.exp(sample.log_weights), sample.gamma)
    if estimate <= 0.0:
        return EstimateReport(
            estimate=0.0, rel_half_width=math.inf, confidence=confidence,
            runs_exploration=runs_exploration, runs_final=m, speedup=0.0,
            gamma=gamma, theta=sample.theta, converged=False, zero_hits=True)
    rel = z * se / estimate
    total = runs_exploration + m
    speedup = mc_equivalent_runs(estimate, rel, confidence) / total if rel > 0 else math.inf
    return EstimateReport(
        estimate=estimate, rel_half_width=rel, confidence=confidence,
        runs_exploration=runs_exploration, runs_final=m, speedup=speedup,
        gamma=gamma, theta=sample.theta,
        converged=True if converged is None else converged)


def estimate_probability(model, gamma, theta, m, rng, confidence=0.95,
                         pool=None):
    """Unbiased tail probability estimate from one independent batch.

    A batch with no weighted survivor yields estimate 0 flagged
    ``zero_hits`` rather than an exception.
    """
    sample = draw_tail_sample(model, gamma, theta, m, rng, pool)
    return report_from_sample(sample, confidence=confidence, gamma=gamma)


def estimate_to_precision(model, gamma, config, target, m0, rng,
                          budget=1_000_000, confidence=0.95, pool=None):
    """Full pipeline: ladder once, then batch until the CI target is met.

    Returns (report, trace, sample); the sample holds every final-phase
    response so follow-up estimators (CVaR) need no further model runs.
    Raises BudgetExhausted carrying the partial report once the next batch
    would cross ``budget`` total runs.
    """
    if not 0.0 < target < 1.0:
        raise DomainError("target relative half-width must lie in (0, 1)")
    if m0 < 1:
        raise DomainError("batch size must be at least 1")
    cfg = replace(config, gamma=gamma)
    theta, trace = run_ladder(model, cfg, rng, pool)
    exploration = trace.exploration_runs
    sample = None
    batch_index = 0
    while True:
        used = exploration + (sample.size if sample is not None else 0)
        if used + m0 > budget:
            report = (report_from_sample(sample, confidence, exploration,
                                         gamma, converged=False)
                      if sample is not None else
                      EstimateReport(0.0, math.inf, confidence, exploration,
                                     0, 0.0, gamma, theta, False, True))
            raise BudgetExhausted(
                f"budget of {budget} runs hit before reaching {target:.3g}",
                report=report, trace=trace)
        batch = draw_tail_sample(model, gamma, theta, m0,
                                 rng.child(FINAL_STREAM + batch_index),
                                 pool)
        batch_index += 1
        sample = batch if sample is None else sample.merge(batch)
        report = report_from_sample(sample, confidence, exploration, gamma)
        if report.zero_hits:
            # a failed ladder is surfaced, never silently retried
            return report, trace, sample
        if report.rel_half_width <= target:
            return report, trace, sample
