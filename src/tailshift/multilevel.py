"""Adaptive level ladder and the final importance-sampling estimator.

For a very rare event, solving for the optimal shift directly is hopeless
because a feasible-size batch contains no survivor.  The ladder raises an
intermediate level one batch at a time: each batch is drawn under the shift
solved at the previous level, the next level is the top-RHO order statistic
of its responses (capped at the target), and the shift is re-solved on the
new survivors.  Events at each level are therefore never rare.  Final,
independent batches under the last shift produce the unbiased probability
estimate and its confidence interval.  Where ``level_size`` capped the
levels below SURVIVORS_PER_DIM survivors per solved coordinate, the first
final batch's hits, drawn near the optimum and more numerous than a level's
survivors, solve the shift once more for every later batch.

Every final-phase row also falls in one of SLABS equiprobable slabs of
t = u . (x - theta), u = theta / |theta|, and the final phase reduces its
pool per slab: the post-stratified estimate
sum_i (1/I) mean_i(w 1{h >= gamma}) with variance
sum_i (1/I)^2 var_i / n_i (Glasserman, Heidelberger & Shahabuddin 1999,
Math. Finance 9).  The draw's log weight
-|theta| t - |theta|^2 / 2 fixes each row's slab, so no draw changes.  With
the slabs equiprobable this removes the between-slab term
sum_i p_i (mu_i - mu)^2 from the plain estimator's variance.  The
per-slab sums are carried from batch to batch, each slab's earlier sum
entering ahead of its new rows, so every batch reduces only its own rows
and the sums still equal one pass over the pool in draw order.

Every ladder level and final batch is one ``RngStream.shifted_normals`` draw
from its own child stream of the run's root stream, which returns the
shifted points together with their log likelihood ratios to the nominal law.
"""

import math
import sys
from dataclasses import dataclass, field, replace
from functools import cache, cached_property

import numpy as np

from .core import slab_levels, std_normal_quantile
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
# the fraction of a batch kept above each ladder level (Au & Beck 2001,
# Prob. Eng. Mech. 16)
RHO = 0.10
# the terms of level_size, the runs of every ladder level: each level keeps
# SURVIVORS_PER_DIM * d + SURVIVOR_SLACK survivors, in at most LEVEL_CAP runs
SURVIVORS_PER_DIM = 2
SURVIVOR_SLACK = 8
LEVEL_CAP = 1000
FINAL_BATCH = 1000          # runs per final-phase and quantile refinement batch
# equiprobable slabs along the shift that a final-phase pool is reduced over:
# about 100 rows per slab per batch
SLABS = FINAL_BATCH // 100
_SLAB_BOUNDS = slab_levels(SLABS)[1:-1]


@cache
def z_value(confidence):
    # cached: the ladder and every report read it, and one normal quantile
    # costs about 25 us
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


def check_underflow(p):
    """Raise DomainError for a probability p > 0 whose square is below the
    smallest normal double.

    A variance squares weights near p.  Above that bound the squares that
    underflow move their mean by at most 2^-53 of itself; below it an
    interval reads zero width or divides by zero.
    """
    if p > 0.0 and p * p < sys.float_info.min:
        raise DomainError(f"probability {p:.3g} is too small: p^2 "
                          "underflows double precision")


def level_size(dimension):
    """Runs per ladder level for a d-dimensional model keeping the top RHO.

    The smallest n with RHO * n >= SURVIVORS_PER_DIM * d + SURVIVOR_SLACK,
    at most LEVEL_CAP: 100 runs at d=1, 280 at d=10 and LEVEL_CAP from d=46.
    Variable selection does not lower it: the selection is made from
    full-dimension survivors.
    """
    # small slack so exact-fraction quotients do not round up, as in next_level
    need = math.ceil((SURVIVORS_PER_DIM * dimension + SURVIVOR_SLACK) / RHO
                     - 1e-9)
    return min(LEVEL_CAP, need)


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
    A final-phase batch carries its rows' slab ``labels`` along theta and
    has its probability reduced per slab; a sample without labels is
    reduced as iid rows.
    """

    responses: np.ndarray       # oriented
    log_weights: np.ndarray
    gamma: float                # oriented threshold
    theta: np.ndarray
    tail: str = "right"         # the model's failure tail
    labels: np.ndarray | None = field(default=None, repr=False)
    # the drawn rows, which only the final phase's re-solve reads; a merge
    # drops them
    points: np.ndarray | None = field(default=None, repr=False)

    @property
    def size(self):
        return self.responses.size

    @cached_property
    def weights(self):
        """Linear likelihood ratios f_0 / f_theta, exponentiated once."""
        return np.exp(self.log_weights)

    def merge(self, *others):
        """This sample followed by ``others``, in order, in one pass.

        Either every part carries labels, each read along its own shift,
        and the pool carries theirs, or no part does and all share one
        shift.  The pool reports the last part's shift.
        """
        samples = (self, *others)
        labelled = self.labels is not None
        for other in others:
            if (other.gamma != self.gamma or other.tail != self.tail
                    or (other.labels is not None) != labelled):
                raise DomainError(
                    "cannot merge samples drawn for different targets")
            if not labelled and not np.array_equal(other.theta, self.theta):
                raise DomainError(
                    "cannot merge samples of different shifts without labels")
        return TailSample(
            responses=np.concatenate([s.responses for s in samples]),
            log_weights=np.concatenate([s.log_weights for s in samples]),
            gamma=self.gamma,
            theta=samples[-1].theta,
            tail=self.tail,
            labels=(np.concatenate([s.labels for s in samples]) if labelled
                    else None),
        )


def next_level(responses, gamma):
    """Next ladder level: the top-RHO order statistic, capped at gamma.

    Uses the sorted value at index ceil((1 - RHO) * n), which guarantees at
    least ceil(RHO * n) - 1 survivors at the returned level.
    """
    responses = np.asarray(responses, dtype=float)
    n = responses.size
    if n == 0:
        raise DomainError("responses must be nonempty")
    if np.all(responses == responses[0]) and responses[0] < gamma:
        raise DegenerateBatch(
            "all responses identical and below the target level")
    # small slack so exact-fraction products do not round up to the next index
    idx = min(n - 1, int(math.ceil((1.0 - RHO) * n - 1e-9)))
    level = float(np.partition(responses, idx)[idx])
    return min(level, gamma)


def _solve_level(batch, selection):
    if selection is not None and selection.size < batch.dimension:
        return solve_shift_in_subspace(batch, selection)
    return solve_optimal_shift(batch)


def weighted_exceedance(responses, weights, level):
    """Nominal exceedance estimate at ``level`` and its standard error.

    ``weights`` are linear likelihood ratios to the nominal measure.
    """
    terms = exceedance_terms(responses, weights, level)
    estimate = float(terms.mean())
    variance = float((terms * terms).mean() - estimate * estimate)
    return estimate, math.sqrt(max(variance, 0.0) / terms.size)


def slab_labels(log_weights, theta):
    """Slab index in [0, SLABS) of each row of an N(theta, I) draw.

    Slab i holds t = u . (x - theta) in [a_i, a_(i+1)) of
    ``core.slab_levels(SLABS)``, u = theta / |theta|.  The row's log weight
    is -|theta| t - |theta|^2 / 2, so t >= a_k exactly when the log weight
    is at most -|theta| a_k - |theta|^2 / 2.  A zero shift puts every row
    in slab 0, which reduces the pool as iid rows.
    """
    sq = float(theta @ theta)
    if sq == 0.0:
        return np.zeros(log_weights.size, dtype=np.intp)
    # the log weights of the boundaries, ascending
    bounds = -math.sqrt(sq) * _SLAB_BOUNDS[::-1] - 0.5 * sq
    return SLABS - 1 - np.searchsorted(bounds, log_weights, side="left")


def exceedance_terms(responses, weights, level):
    """Per-row terms w 1{r >= level}."""
    return np.where(responses >= level, weights, 0.0)


def slab_sums(labels, terms, carry=None):
    """Rows (n_i, S1_i, Q_i) per slab: counts, sums of ``terms`` and of
    their squares, each slab summed in row order.

    ``carry``, the sums of earlier rows, enters each slab ahead of its rows.
    ``np.bincount`` adds in array order, so the carried sums are the sums
    over the earlier rows followed by these, bit for bit.
    """
    if carry is None:
        carry = np.zeros((3, SLABS))
    entries = np.concatenate([np.arange(SLABS), labels])
    return np.stack([carry[0] + np.bincount(labels, minlength=SLABS),
                     np.bincount(entries, np.concatenate([carry[1], terms])),
                     np.bincount(entries, np.concatenate([carry[2],
                                                          terms * terms]))])


def stratified_exceedance(counts, s1, q):
    """Post-stratified exceedance estimate and its standard error.

    From per-slab ``slab_sums`` over I equiprobable slabs:
    sum_i S1_i / (I n_i), with variance
    sum_i (Q_i / n_i - (S1_i / n_i)^2) / (I^2 n_i).  Post-stratifying needs
    a row in every slab; without one the pool is reduced as a single slab,
    that is as iid rows.
    """
    if not counts.all():
        counts, s1, q = (column.sum(keepdims=True)
                         for column in (counts, s1, q))
    slabs = counts.size
    mean = s1 / counts
    estimate = float(mean.sum()) / slabs
    variance = float(((q / counts - mean * mean) / counts).sum())
    return estimate, math.sqrt(max(variance, 0.0)) / slabs


def row_scale(counts):
    """Per-slab factors m / (I n_i), m = sum_i n_i, that turn a pool's
    weight sums into ``stratified_exceedance``'s: a row of slab i weighs
    w m / (I n_i).  Ones while a slab is empty, where the pool is reduced
    as iid rows."""
    if not counts.all():
        return np.ones(counts.size)
    return counts.sum() / (counts.size * counts)


def run_ladder(model, rng, level_rule=None, budget=math.inf, gamma=None, *,
               max_levels=30, dimred="auto"):
    """Run the exploration ladder; returns the final shift and the trace.

    Every level draws ``level_size(model.dimension)`` runs.  ``dimred``
    selects variables "on", "off", or "auto" (on when d > DIMRED_THRESHOLD).
    ``level_rule(responses, weights) -> (level, done)`` picks each level from
    a batch's oriented responses and likelihood-ratio weights; the ladder
    stops once the shift is solved at a level marked done.  The default rule
    is the top-RHO statistic capped at ``gamma``, done at gamma.
    Trace rows carry the 95% relative half-width their ``ci95_rel`` column
    names, whatever confidence the final estimate uses.
    Raises MaxLevelsExceeded (carrying the trace) past ``max_levels`` or,
    under the default rule, after ``STALL_LIMIT`` consecutive stalled levels,
    BudgetExhausted (carrying the trace) before a level that would take
    the runs past ``budget``, and DomainError (``check_underflow``) at a
    level whose estimate is too small to square.
    """
    if max_levels < 1:
        raise DomainError("max_levels must be at least 1")
    if dimred not in DIMRED_MODES:
        raise DomainError(f"dimred must be one of {DIMRED_MODES}, "
                          f"got {dimred!r}")
    # a custom rule has no fixed target to stall below
    stall_floor = -math.inf
    if level_rule is None:
        if gamma is None:
            raise DomainError("the ladder needs a gamma or a level rule")
        gamma_o = float(oriented_response(model, gamma))
        stall_floor = PROGRESS_FLOOR * max(1.0, abs(gamma_o))

        def level_rule(responses, weights):
            level = next_level(responses, gamma_o)
            return level, level >= gamma_o
    d = model.dimension
    select = d > DIMRED_THRESHOLD if dimred == "auto" else dimred == "on"
    n = level_size(d)
    z = z_value(0.95)
    theta = np.zeros(d)
    trace = LadderTrace()
    selection = None
    stall = 0
    prev_level = None
    for k in range(1, max_levels + 1):
        if k * n > budget:
            raise BudgetExhausted(
                f"budget of {budget} runs hit during the ladder", trace=trace)
        points, log_weights = rng.child(LADDER_STREAM + k).shifted_normals(
            n, theta)
        responses = oriented_response(model, response_values(model, points))
        weights = np.exp(log_weights)
        level, done = level_rule(responses, weights)
        estimate, se = weighted_exceedance(responses, weights, level)
        check_underflow(estimate)
        batch = WeightedBatch.from_threshold(points, responses, level,
                                             log_weights)
        if select:
            # later levels may reveal coordinates the pilot missed; grow the
            # subset (never shrink) so an early miss cannot poison the run
            selection = (select_important(batch) if selection is None
                         else augment_selection(selection, batch))
            trace.selection = selection
        sol = _solve_level(batch, selection)
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
        f"ladder target not reached within {max_levels} levels",
        trace=trace)


def draw_tail_sample(model, gamma, theta, m, rng):
    """Draw m fresh samples under the shift and record weighted responses."""
    if m < 1:
        raise DomainError("sample size must be at least 1")
    theta = np.asarray(theta, dtype=float)
    points, log_weights = rng.shifted_normals(int(m), theta)
    values = response_values(model, points)
    return TailSample(
        responses=oriented_response(model, values),
        log_weights=log_weights,
        gamma=float(oriented_response(model, gamma)),
        theta=theta,
        tail=model.tail,
        points=points,
    )


def estimate_report(estimate, se, runs_final, confidence=0.95,
                    runs_exploration=0, gamma=None, theta=None):
    """Report an estimate with standard error ``se``: CI and speedup.

    A zero estimate is reported as zero hits, not converged; a zero-width
    interval gets an infinite speedup.  An estimate too small to square
    raises DomainError (``check_underflow``).
    """
    check_underflow(estimate)
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
    """Probability estimate with CI and speedup from a weighted tail sample.

    A sample with slab labels (a final-phase pool) is reduced per slab in
    row order by ``stratified_exceedance``, any other as iid rows.
    """
    if sample.labels is not None:
        estimate, se = stratified_exceedance(*slab_sums(
            sample.labels,
            exceedance_terms(sample.responses, sample.weights, sample.gamma)))
    else:
        estimate, se = weighted_exceedance(sample.responses, sample.weights,
                                           sample.gamma)
    return estimate_report(estimate, se, sample.size, confidence,
                           runs_exploration, gamma, sample.theta)


def levels_capped(dimension, selection=None):
    """Whether ``level_size`` capped the ladder's levels below
    SURVIVORS_PER_DIM survivors per solved coordinate:
    SURVIVORS_PER_DIM * k / RHO > LEVEL_CAP, k the selection's size when
    variables are selected and d otherwise."""
    k = dimension if selection is None else selection.size
    return SURVIVORS_PER_DIM * k / RHO > LEVEL_CAP


def _resolved_shift(points, batch, selection):
    """The shift solved on ``batch``'s hits at its own level, drawn at
    ``points``; the batch's own shift when it has no hit."""
    hits = WeightedBatch.from_threshold(points, batch.responses, batch.gamma,
                                        batch.log_weights)
    if hits.survivor_count == 0:
        return batch.theta
    return _solve_level(hits, selection).theta


def pooled_batches(model, gamma, trace, rng, stream, room):
    """The final phase after the ladder ``trace``: batches of FINAL_BATCH
    runs, the first drawn under the ladder's last shift.

    Batch i comes from stream ``stream + i``.  When the ladder's levels were
    capped (``levels_capped``), the shift is solved once more, as
    the ladder solves a level under its selection, on the first batch's hits
    at its level, and every later batch is drawn under that shift; the
    solve runs only when a second batch fits.  Each batch keeps the log
    weights and slab labels of its own shift, so the batches pool into one
    post-stratified sample.  Yields each fresh batch with its ``labels``
    set and its points dropped, and stops before a batch that would take
    the pooled runs past ``room``.
    """
    theta = trace.levels[-1].theta
    resolve = levels_capped(model.dimension, trace.selection)
    points = None
    for i in range(room // FINAL_BATCH):
        if points is not None:
            theta = _resolved_shift(points, batch, trace.selection)
            points = None
        batch = draw_tail_sample(model, gamma, theta, FINAL_BATCH,
                                 rng.child(stream + i))
        if resolve and i == 0:
            points = batch.points
        batch = replace(batch, points=None,
                        labels=slab_labels(batch.log_weights, batch.theta))
        yield batch


def estimate_to_precision(model, gamma, target, rng, budget=1_000_000,
                          confidence=0.95, **ladder):
    """Full pipeline: ladder once, then batch until the CI target is met.

    Each final-phase batch holds FINAL_BATCH runs, and where the ladder's
    levels were capped (``levels_capped``) the batches after the first are
    drawn under the shift re-solved on its hits.  The estimate and its
    interval post-stratify the pool over SLABS slabs along each batch's
    shift.  After every batch they are read from per-slab sums carried
    across batches, which equal the pool's own ``slab_sums`` bit for bit,
    so the report is ``report_from_sample`` of the pool.  Returns (report,
    trace, sample); the sample holds every final-phase response so
    follow-up estimators (CVaR) need no further model runs.
    ``ladder`` holds ``run_ladder``'s keyword settings, passed on unchanged.
    Raises BudgetExhausted once the next batch would cross ``budget`` total
    runs, carrying the trace and, when a batch fit, the partial report.
    """
    if not 0.0 < target < 1.0:
        raise DomainError("target relative half-width must lie in (0, 1)")
    _, trace = run_ladder(model, rng, budget=budget, gamma=gamma, **ladder)
    exploration = trace.exploration_runs
    report = None
    batches = []
    sums = None
    for batch in pooled_batches(model, gamma, trace, rng, FINAL_STREAM,
                                budget - exploration):
        batches.append(batch)
        sums = slab_sums(batch.labels, exceedance_terms(
            batch.responses, batch.weights, batch.gamma), sums)
        estimate, se = stratified_exceedance(*sums)
        report = estimate_report(estimate, se, FINAL_BATCH * len(batches),
                                 confidence, exploration, gamma, batch.theta)
        # a failed ladder is surfaced as zero hits, never silently retried
        if report.zero_hits or report.rel_half_width <= target:
            return report, trace, batches[0].merge(*batches[1:])
    if report is not None:
        report = replace(report, converged=False)
    raise BudgetExhausted(
        f"budget of {budget} runs hit before reaching {target:.3g}",
        report=report, trace=trace)
