"""Coverage of the reported 95% intervals on cheap oracle-backed cells.

Each cell runs the CLI path with its defaults over seeds 0-199 and counts
the seeds whose interval contains the oracle truth.  A cell fails when that
count falls more than three binomial standard deviations below the nominal
rate: covered < 0.95 n - 3 sqrt(n 0.95 0.05), about 180.8 of 200.  A run
that exits non-zero counts as not covered.  The failure message also gives
the share of estimates below the truth, since a sequential stopping rule
that favours low estimates shows there first.
"""

import math

import pytest

import oracles
from tailshift.cli import EXIT_OK, RunConfig, run

SEEDS = range(200)
NOMINAL = 0.95

# name: (RunConfig fields, bundle block, value key, oracle truth)
CELLS = {
    "identity-quantile-1e-3": (
        dict(task="quantile", p=1e-3), "quantile", "quantile",
        oracles.tail_quantile("1e-3")),
    "identity-quantile-1e-4": (
        dict(task="quantile", p=1e-4), "quantile", "quantile",
        oracles.tail_quantile("1e-4")),
    "identity-quantile-1e-6": (
        dict(task="quantile", p=1e-6), "quantile", "quantile",
        oracles.tail_quantile("1e-6")),
    "linear-d10-prob-1e-6": (
        dict(task="prob", model="builtin:linear", dim=10,
             gamma=math.sqrt(10) * oracles.tail_quantile("1e-6")),
        "report", "estimate", 1e-6),
    "linear-d10-prob-1e-10": (
        dict(task="prob", model="builtin:linear", dim=10,
             gamma=math.sqrt(10) * oracles.tail_quantile("1e-10")),
        "report", "estimate", 1e-10),
    "identity-prob-1e-6": (
        dict(task="prob", gamma=oracles.tail_quantile("1e-6")),
        "report", "estimate", 1e-6),
    "identity-cvar-1e-6": (
        dict(task="cvar", gamma=oracles.tail_quantile("1e-6")),
        "cvar", "cvar", oracles.mills_cvar(oracles.tail_quantile("1e-6"))),
    # p = 2.3e-117: p^3 underflows to zero, p^2 is still normal
    "identity-cvar-gamma-23": (
        dict(task="cvar", gamma=23.0, max_levels=60), "cvar", "cvar",
        oracles.mills_cvar(23.0)),
    "linear-d10-strata-1e-8": (
        dict(task="strata", model="builtin:linear", dim=10, strata=10,
             gamma=math.sqrt(10) * oracles.tail_quantile("1e-8")),
        "report", "estimate", 1e-8),
}


def coverage_bound(n):
    """Fewest covering seeds of n that pass: three binomial SDs below nominal."""
    return NOMINAL * n - 3.0 * math.sqrt(n * NOMINAL * (1.0 - NOMINAL))


def tally(fields, block, key, truth, seeds):
    """(covered, below, failed, runs) over ``seeds``; runs of successful runs."""
    covered = below = failed = 0
    runs = []
    for seed in seeds:
        code, bundle = run(RunConfig(seed=seed, **fields))
        if code != EXIT_OK:
            failed += 1
            continue
        estimate = bundle[block][key]
        covered += abs(estimate - truth) <= bundle[block]["ci_rel"] * abs(estimate)
        below += estimate < truth
        runs.append((bundle.get("report") or bundle[block])["runs_total"])
    return covered, below, failed, runs


def shortfall_message(name, n, covered, below, failed, truth):
    return (f"{name}: {covered}/{n} intervals cover {truth:.6g} (bound "
            f"{coverage_bound(n):.1f}); {below}/{n} estimates below the "
            f"truth, {failed} runs failed")


@pytest.mark.parametrize("name", list(CELLS))
def test_interval_covers_at_nominal_rate(name):
    fields, block, key, truth = CELLS[name]
    n = len(SEEDS)
    covered, below, failed, _ = tally(fields, block, key, truth, SEEDS)
    assert covered >= coverage_bound(n), shortfall_message(
        name, n, covered, below, failed, truth)
