"""Adaptive level ladder and the final importance-sampling estimator.

For a very rare event, solving for the optimal shift directly is hopeless
because a feasible-size batch contains no survivor.  The ladder raises an
intermediate level one batch at a time: each batch is drawn under the shift
solved at the previous level, the next level is the top-rho order statistic
of its responses (capped at the target), and the shift is re-solved on the
new survivors.  Events at each level are therefore never rare.  A final,
independent batch under the last shift produces the unbiased probability
estimate and its confidence interval.

Every ladder level and final batch is one ``RngStream.shifted_normals`` draw
from its own child stream of the run's root stream, which returns the
shifted points together with their log likelihood ratios to the nominal law.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .core import std_normal_quantile
from .dimred import augment_selection, select_important, solve_shift_in_subspace
from .errors import (BudgetExhausted, DegenerateBatch, DomainError,
                     MaxLevelsExceeded)
from .meanshift import WeightedBatch, solve_optimal_shift
from .model import oriented_response, response_values

# Stream id spaces; exploration and final phases never share a stream.  Each
# offset below names one batch; a batch drawn in row blocks takes the
# batch stream's own children for them.
LADDER_STREAM = 1_000
FINAL_STREAM = 2_000_000
QUANTILE_STREAM = 3_000_000
STRATA_STREAM = 4_000_000

DIMRED_MODES = ("auto", "on", "off")
DIMRED_THRESHOLD = 500      # dimred="auto" selects variables when d exceeds it
# a level that rises by less than PROGRESS_FLOOR * max(1, |gamma|) stalls;
# STALL_LIMIT consecutive stalls end the ladder
PROGRESS_FLOOR = 1e-9
STALL_LIMIT = 3
# the terms of level_size, the runs of every ladder level
SURVIVORS_PER_DIM = 2
LEVEL_FLOOR = 300
LEVEL_CAP = 1000
FINAL_BATCH = 1000          # runs per final-phase and quantile refinement batch


def z_value(confidence):
    if not 0.0 < confidence < 1.0:
        raise DomainError("confidence level must lie in (0, 1)")
    return float(std_normal_quantile(0.5 + 0.5 * confidence))


def mc_equivalent_runs(p, rel_half_width, confidence=0.95):
    """Plain Monte Carlo run count needed for the same relative half-width.

    Zero for an estimate p >= 1, which importance weights can give a
    near-certain event: the plain MC variance p (1 - p) is clamped at zero.
    """
    z = z_value(confidence)
    return z * z * max(1.0 - p, 0.0) / (p * rel_half_width * rel_half_width)


def level_size(dimension, rho):
    """Runs per ladder level for a d-dimensional model keeping the top rho.

    The smallest n with rho * n >= SURVIVORS_PER_DIM * d, kept inside
    [LEVEL_FLOOR, LEVEL_CAP].  Variable selection does not lower it: the
    selection is made from full-dimension survivors.
    """
    # small slack so exact-fraction quotients do not round up, as in next_level
    need = math.ceil(SURVIVORS_PER_DIM * dimension / rho - 1e-9)
    return min(LEVEL_CAP, max(LEVEL_FLOOR, need))


@dataclass
class LadderConfig:
    """Settings of the exploration ladder."""

    rho: float = 0.10
    max_levels: int = 30
    dimred: str = "auto"        # "on", "off", or "auto" (on when d > DIMRED_THRESHOLD)

    def validate(self):
        if not 0.0 < self.rho < 1.0:
            raise DomainError("rho must lie in (0, 1)")
        if self.max_levels < 1:
            raise DomainError("max_levels must be at least 1")
        if self.dimred not in DIMRED_MODES:
            raise DomainError(f"dimred must be one of {DIMRED_MODES}, "
                              f"got {self.dimred!r}")


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
    tail: str = "right"         # the model's failure tail

    @property
    def size(self):
        return self.responses.size

    @cached_property
    def weights(self):
        """Linear likelihood ratios f_0 / f_theta, exponentiated once."""
        return np.exp(self.log_weights)

    def merge(self, *others):
        """This sample followed by ``others``, in order, in one pass."""
        for other in others:
            if (other.gamma != self.gamma or other.tail != self.tail
                    or not np.array_equal(other.theta, self.theta)):
                raise DomainError(
                    "cannot merge samples drawn for different targets")
        samples = (self, *others)
        return TailSample(
            responses=np.concatenate([s.responses for s in samples]),
            log_weights=np.concatenate([s.log_weights for s in samples]),
            gamma=self.gamma,
            theta=self.theta,
            tail=self.tail,
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
    if config.dimred == "auto":
        return dimension > DIMRED_THRESHOLD
    return config.dimred == "on"


def _solve_level(batch, selection):
    if selection is not None and selection.size < batch.dimension:
        return solve_shift_in_subspace(batch, selection)
    return solve_optimal_shift(batch)


def weighted_exceedance(responses, weights, level):
    """Nominal exceedance estimate at ``level`` and its standard error.

    ``weights`` are linear likelihood ratios to the nominal measure.
    """
    terms = np.where(responses >= level, weights, 0.0)
    estimate = float(terms.mean())
    variance = float((terms * terms).mean() - estimate * estimate)
    return estimate, math.sqrt(max(variance, 0.0) / terms.size)


def summation_slack(n):
    """Relative rounding bound on any summation order of n terms t >= 0."""
    return (2 * n + 16) * float(np.finfo(float).eps)


def width_exceeds(s1, s2, n, z, target):
    """Whether sums ``s1`` of n terms t >= 0 and ``s2`` of their squares put
    the relative half-width z * se / estimate of ``weighted_exceedance``
    above ``target`` by more than rounding.

    Any order of summing n non-negative terms lands within about n * eps of
    the true sum, so when this is True the reduction of the same terms in
    any other order, pooled in draw order included, exceeds ``target`` too.
    With no hits (s1 = 0) it is False.
    """
    err = summation_slack(n)
    return (n * s2 * (1.0 - err)
            > (1.0 + n * (target / z) ** 2) * s1 * s1 * (1.0 + err) ** 2)


def run_ladder(model, config, rng, pool=None, level_rule=None,
               budget=math.inf, gamma=None):
    """Run the exploration ladder; returns the final shift and the trace.

    Every level draws ``level_size(model.dimension, config.rho)`` runs.
    ``level_rule(responses, weights) -> (level, done)`` picks each level from
    a batch's oriented responses and likelihood-ratio weights; the ladder
    stops once the shift is solved at a level marked done.  The default rule
    is the top-rho statistic capped at ``gamma``, done at gamma.
    Trace rows carry the 95% relative half-width their ``ci95_rel`` column
    names, whatever confidence the final estimate uses.
    Raises MaxLevelsExceeded (carrying the trace) past ``max_levels`` or,
    under the default rule, after ``STALL_LIMIT`` consecutive stalled levels,
    and BudgetExhausted (carrying the trace) before a level that would take
    the runs past ``budget``.
    """
    config.validate()
    # a custom rule has no fixed target to stall below
    stall_floor = -math.inf
    if level_rule is None:
        if gamma is None:
            raise DomainError("the ladder needs a gamma or a level rule")
        gamma_o = float(oriented_response(model, gamma))
        stall_floor = PROGRESS_FLOOR * max(1.0, abs(gamma_o))

        def level_rule(responses, weights):
            level = next_level(responses, config.rho, gamma_o)
            return level, level >= gamma_o
    d = model.dimension
    n = level_size(d, config.rho)
    z = z_value(0.95)
    theta = np.zeros(d)
    trace = LadderTrace()
    selection = None
    stall = 0
    prev_level = None
    for k in range(1, config.max_levels + 1):
        if k * n > budget:
            raise BudgetExhausted(
                f"budget of {budget} runs hit during the ladder", trace=trace)
        points, log_weights = rng.child(LADDER_STREAM + k).shifted_normals(
            n, theta)
        responses = oriented_response(model, response_values(model, points, pool))
        weights = np.exp(log_weights)
        level, done = level_rule(responses, weights)
        batch = WeightedBatch.from_threshold(points, responses, level,
                                             base_shift=theta)
        if _use_dimred(config, d):
            # later levels may reveal coordinates the pilot missed; grow the
            # subset (never shrink) so an early miss cannot poison the run
            selection = (select_important(batch) if selection is None
                         else augment_selection(selection, batch))
            trace.selection = selection
        sol = _solve_level(batch, selection)
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
            runs=n,
        ))
        theta = sol.theta
        if done:
            return theta, trace
        if prev_level is not None and (level - prev_level) < stall_floor:
            stall += 1
            if stall >= STALL_LIMIT:
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
    points, log_weights = rng.shifted_normals(int(m), theta)
    values = response_values(model, points, pool)
    return TailSample(
        responses=oriented_response(model, values),
        log_weights=log_weights,
        gamma=float(oriented_response(model, gamma)),
        theta=theta,
        tail=model.tail,
    )


def estimate_report(estimate, se, runs_final, confidence=0.95,
                    runs_exploration=0, gamma=None, theta=None):
    """Report an estimate with standard error ``se``: CI and speedup.

    A zero estimate is reported as zero hits, not converged; a zero-width
    interval gets an infinite speedup.
    """
    z = z_value(confidence)
    hit = estimate > 0.0
    if hit:
        rel = z * se / estimate
        total = runs_exploration + runs_final
        speedup = mc_equivalent_runs(estimate, rel, confidence) / total if rel > 0 else math.inf
    else:
        rel, speedup = math.inf, 0.0
    return EstimateReport(
        estimate=estimate, rel_half_width=rel, confidence=confidence,
        runs_exploration=runs_exploration, runs_final=runs_final,
        speedup=speedup, gamma=gamma, theta=theta, converged=hit,
        zero_hits=not hit)


def report_from_sample(sample, confidence=0.95, runs_exploration=0,
                       gamma=None):
    """Probability estimate with CI and speedup from a weighted tail sample."""
    estimate, se = weighted_exceedance(sample.responses, sample.weights,
                                       sample.gamma)
    return estimate_report(estimate, se, sample.size, confidence,
                           runs_exploration, gamma, sample.theta)


def pooled_batches(model, gamma, theta, m, rng, stream, room, pool=None):
    """The final phase: batches of m runs drawn under ``theta``.

    Batch i comes from stream ``stream + i``.  Yields each fresh batch, and
    stops before a batch that would take the pooled runs past ``room``.
    """
    for i in range(room // m):
        yield draw_tail_sample(model, gamma, theta, m,
                               rng.child(stream + i), pool)


def estimate_to_precision(model, gamma, config, target, rng,
                          budget=1_000_000, confidence=0.95, pool=None):
    """Full pipeline: ladder once, then batch until the CI target is met.

    Each final-phase batch holds FINAL_BATCH runs.  Returns (report, trace,
    sample); the sample holds every final-phase response so follow-up
    estimators (CVaR) need no further model runs.
    Raises BudgetExhausted carrying the partial report once the next batch
    would cross ``budget`` total runs.
    """
    if not 0.0 < target < 1.0:
        raise DomainError("target relative half-width must lie in (0, 1)")
    theta, trace = run_ladder(model, config, rng, pool, budget=budget,
                              gamma=gamma)
    exploration = trace.exploration_runs
    # the partial report when not even one batch fits the budget
    report = estimate_report(0.0, 0.0, 0, confidence, exploration, gamma,
                             theta)
    z = z_value(confidence)
    batches = []
    n, s1, s2 = 0, 0.0, 0.0
    for batch in pooled_batches(model, gamma, theta, FINAL_BATCH, rng,
                                FINAL_STREAM, budget - exploration, pool):
        batches.append(batch)
        terms = np.where(batch.responses >= batch.gamma, batch.weights, 0.0)
        s1 += float(terms.sum())
        s2 += float((terms * terms).sum())
        n += batch.size
        if width_exceeds(s1, s2, n, z, target):
            continue
        # the running sums allow a stop; the pool in draw order decides it
        sample = batches[0].merge(*batches[1:])
        report = report_from_sample(sample, confidence, exploration, gamma)
        # a failed ladder is surfaced as zero hits, never silently retried
        if report.zero_hits or report.rel_half_width <= target:
            return report, trace, sample
    if batches:
        report = report_from_sample(batches[0].merge(*batches[1:]),
                                    confidence, exploration, gamma)
    raise BudgetExhausted(
        f"budget of {budget} runs hit before reaching {target:.3g}",
        report=replace(report, converged=False), trace=trace)
