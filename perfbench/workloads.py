"""Workload plans and oracles for the tailshift benchmark.

A workload turns (seed, seconds) into a fixed list of problems: the same
arguments always give the same problems, so run counts and report bytes are
exact for a given commit.  Each problem type has a count per 30 seconds of
measurement, sized from its cost on a 2-vCPU machine, and the counts scale
with ``seconds``.  Problem seeds come from the workload seed; the engine only
sees the generated RunConfig.

Every problem carries an oracle value computed here, independently of the
engine.  A problem fails if its exit code is not 0 or its estimate is more
than three of its own reported 95% half-widths from the truth.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize, special

FORMATS = ("json", "table", "csv")
SIM_STATS_DIR = ".perfbench_tmp/sim"
SIM_MODEL = f"exec:python3 perfbench/linear_sim.py --stats-dir {SIM_STATS_DIR}"
MISS_HALF_WIDTHS = 3.0
WARMUP_PRECISION = 0.5


def tail_prob(z):
    """Standard normal survival function."""
    return float(special.ndtr(-z))


def tail_quantile(p):
    """z with tail_prob(z) == p."""
    return float(-special.ndtri(p))


def linear_norm(d):
    """|c| of linear_family(d): ten coefficients 1.0, the rest 0.01."""
    k = min(10, d)
    return math.sqrt(k + 1e-4 * (d - k))


def skewed(x):
    """The builtin skewed response at d = 1."""
    return x + 0.25 * x * x + 0.1 * x ** 3


def skewed_root(gamma):
    """The real root of x + 0.25 x^2 + 0.1 x^3 = gamma (the map is monotone)."""
    hi = max(1.0, abs(gamma)) + 1.0
    return float(optimize.brentq(lambda x: skewed(x) - gamma, -hi * 10, hi,
                                 xtol=1e-15, rtol=4 * np.finfo(float).eps))


def identity_cvar(gamma):
    """E[X | X >= gamma] for X ~ N(0, 1): phi(gamma) / Phi-bar(gamma)."""
    return math.exp(-0.5 * gamma * gamma) / math.sqrt(2 * math.pi) / tail_prob(gamma)


@dataclass(frozen=True)
class Kind:
    """One problem type: RunConfig fields, oracle truth, count per 30 s."""

    name: str
    config: dict
    truth: float
    per_30s: int


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple
    warmup: dict

    def plan(self, seed, seconds):
        """The fixed problem list for (seed, seconds): kinds cycled in order."""
        left = [max(1, round(k.per_30s * seconds / 30.0)) for k in self.kinds]
        problems = []
        while any(left):
            for j, kind in enumerate(self.kinds):
                if left[j]:
                    left[j] -= 1
                    problems.append(self._problem(seed, len(problems), kind))
        return problems

    def _problem(self, seed, index, kind):
        state = np.random.SeedSequence([seed, index]).generate_state(1)[0]
        config = dict(kind.config, seed=int(state),
                      format=FORMATS[index % len(FORMATS)])
        return Problem(index=index, kind=kind.name, config=config,
                       truth=kind.truth)


@dataclass(frozen=True)
class Problem:
    index: int
    kind: str
    config: dict
    truth: float


def answer(bundle):
    """(estimate, relative half-width) of the quantity a bundle reports."""
    if bundle is None:
        return None, None
    task = bundle["task"]
    if task in ("quantile", "cvar"):
        block, key = bundle.get(task) or {}, task
    else:
        block, key = bundle.get("report") or {}, "estimate"
    return block.get(key), block.get("ci_rel")


def misses_oracle(problem, code, bundle):
    """True if the run failed or its estimate is off by > 3 half-widths."""
    estimate, rel = answer(bundle)
    if code != 0 or estimate is None or rel is None:
        return True
    return abs(estimate - problem.truth) > MISS_HALF_WIDTHS * rel * abs(estimate)


def _linear_prob(d, p):
    gamma = linear_norm(d) * tail_quantile(p)
    return dict(task="prob", model="builtin:linear", dim=d, gamma=gamma), \
        tail_prob(gamma / linear_norm(d))


def _builtin_linear():
    """Gaussian draws and n x d products dominate; no protocol I/O.

    dimred=auto is off at d=110 and on at d=1010.
    """
    kinds = []
    # with these counts the median falls inside the d=110, p=3e-5 cell,
    # whose times vary little from seed to seed, and the p95 tail near the
    # middle of the d=1010, p=1e-10 cell; the d=110, p=1e-10 cell (23k to
    # 100k runs) gets 60 problems so that model_runs averages its spread
    for (d, p), n in (((110, 3e-5), 200), ((110, 1e-10), 60),
                      ((1010, 3e-5), 10), ((1010, 1e-10), 30)):
        config, truth = _linear_prob(d, p)
        kinds.append(Kind(f"prob-linear-d{d}-p{p:g}", config, truth, n))
    warm = dict(_linear_prob(110, 1e-2)[0], precision=WARMUP_PRECISION)
    return Workload(
        name="builtin-linear", kinds=tuple(kinds), warmup=warm)


def _exec_linear():
    """The line protocol and simulator start-up dominate."""
    config, truth = _linear_prob(110, 3e-5)
    # precision 0.15 (6k-7k runs, about 1.3 s) lets 20 problems, the fewest
    # that give a tail percentile, fit in a 30 s run
    config = dict(config, model=SIM_MODEL, workers=2, precision=0.15)
    warm = dict(_linear_prob(110, 1e-2)[0], model=SIM_MODEL, workers=2,
                precision=WARMUP_PRECISION)
    return Workload(
        name="exec-linear",
        kinds=(Kind("prob-exec-d110-p3e-05", config, truth, 20),),
        warmup=warm)


def _lowdim_mix():
    """Model calls are nearly free: per-level Python, Newton solves,
    reductions and report emission dominate.

    strata uses p=1e-3: equiprobable strata without a shift get zero hits
    (exit 3) at 1e-6, a property of the method.  The quantile problems are
    the slowest (about 55 ms) and their times vary least from run to run;
    with these counts both the median and the p95 tail fall among them.
    """
    z6, z10 = tail_quantile(1e-6), tail_quantile(1e-10)
    strata_gamma = linear_norm(10) * tail_quantile(1e-3)
    kinds = (
        Kind("quantile-identity",
             dict(task="quantile", model="builtin:identity", dim=1, p=1e-6),
             z6, 220),
        Kind("quantile-skewed",
             dict(task="quantile", model="builtin:skewed", dim=1, p=1e-6),
             skewed(z6), 220),
        Kind("cvar-identity",
             dict(task="cvar", model="builtin:identity", dim=1, gamma=z10),
             identity_cvar(z10), 100),
        Kind("prob-skewed",
             dict(task="prob", model="builtin:skewed", dim=1,
                  gamma=skewed(z10)),
             tail_prob(skewed_root(skewed(z10))), 100),
        Kind("strata-linear-d10",
             dict(task="strata", model="builtin:linear", dim=10,
                  gamma=strata_gamma, strata=10, n_total=10000),
             tail_prob(strata_gamma / linear_norm(10)), 100),
    )
    return Workload(
        name="lowdim-mix", kinds=kinds,
        warmup=dict(task="quantile", model="builtin:identity", dim=1, p=1e-2,
                    precision=WARMUP_PRECISION))


WORKLOADS = {w.name: w for w in (_builtin_linear(), _exec_linear(),
                                 _lowdim_mix())}
