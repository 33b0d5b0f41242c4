"""Coverage of the reported 95% intervals on slow oracle-backed cells.

The tier-1 slice (``test_coverage.py``) covers cheap cells; the cells here
take about half a minute together on 2 vCPUs, so pytest does not collect this
file.  Run it from the root of a checkout:

    PYTHONPATH=src python tests/coverage_slow.py [NAME ...]

It runs each cell through the CLI path over its seeds, prints one line per
cell with the tier-1 slice's bound and shortfall message, and rewrites the
table ``coverage_slow.md`` beside this file.  Named cells are the only ones
measured, and only their rows of the table are rewritten; with no name every
cell is.  It exits 1 when a cell covers fewer seeds than the bound.
"""

import math
import os
import statistics
import sys
import time

import oracles
from test_coverage import coverage_bound, shortfall_message, tally

TABLE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     "coverage_slow.md")
# |c| of linear_family(d): ten coefficients 1.0 and d - 10 of 0.01
NORM_110 = math.sqrt(10 + 100 * 0.01 ** 2)
NORM_30 = math.sqrt(10 + 20 * 0.01 ** 2)
NORM_300 = math.sqrt(10 + 290 * 0.01 ** 2)
NORM_510 = math.sqrt(10 + 500 * 0.01 ** 2)

# name: (RunConfig fields, bundle block, value key, oracle truth, seeds)
CELLS = {
    # the benchmark's main builtin-linear cell
    "linear-d110-prob-3e-5": (
        dict(task="prob", model="builtin:linear", dim=110,
             gamma=NORM_110 * oracles.tail_quantile("3e-5")),
        "report", "estimate", 3e-5, range(200)),
    "linear-d110-prob-1e-10-auto": (
        dict(task="prob", model="builtin:linear", dim=110,
             gamma=NORM_110 * oracles.tail_quantile("1e-10")),
        "report", "estimate", 1e-10, range(60)),
    "linear-d110-quantile-1e-6": (
        dict(task="quantile", model="builtin:linear", dim=110, p=1e-6),
        "quantile", "quantile", NORM_110 * oracles.tail_quantile("1e-6"),
        range(40)),
    "linear-d110-prob-1e-10-on": (
        dict(task="prob", model="builtin:linear", dim=110, dimred="on",
             gamma=NORM_110 * oracles.tail_quantile("1e-10")),
        "report", "estimate", 1e-10, range(400)),
    # selection off and ladder levels capped: the final phase's re-solve
    # saves the most runs here
    "linear-d300-prob-3e-5": (
        dict(task="prob", model="builtin:linear", dim=300,
             gamma=NORM_300 * oracles.tail_quantile("3e-5")),
        "report", "estimate", 3e-5, range(60)),
    # dimred="auto" selects variables at d=510
    "linear-d510-prob-1e-10-auto": (
        dict(task="prob", model="builtin:linear", dim=510,
             gamma=NORM_510 * oracles.tail_quantile("1e-10")),
        "report", "estimate", 1e-10, range(100)),
    # from d=16 to d=45 SURVIVOR_SLACK adds 80 runs to every ladder level,
    # and no benchmark workload runs there
    "linear-d30-prob-1e-6": (
        dict(task="prob", model="builtin:linear", dim=30,
             gamma=NORM_30 * oracles.tail_quantile("1e-6")),
        "report", "estimate", 1e-6, range(120)),
    "identity-prob-1e-10": (
        dict(task="prob", gamma=oracles.tail_quantile("1e-10")),
        "report", "estimate", 1e-10, range(300)),
    "strata-linear-d10-1e-4": (
        dict(task="strata", model="builtin:linear", dim=10, strata=10,
             gamma=math.sqrt(10) * oracles.tail_quantile("1e-4")),
        "report", "estimate", 1e-4, range(100)),
}

HEADER = ("| cell | seeds | covered | bound | below truth | failed "
          "| median runs | result |\n"
          "| --- | --- | --- | --- | --- | --- | --- | --- |\n")


def measure(name):
    fields, block, key, truth, seeds = CELLS[name]
    n = len(seeds)
    start = time.perf_counter()
    covered, below, failed, runs = tally(fields, block, key, truth, seeds)
    seconds = time.perf_counter() - start
    ok = covered >= coverage_bound(n)
    print(("ok " if ok else "FAIL ")
          + shortfall_message(name, n, covered, below, failed, truth)
          + f" [{seconds:.0f} s]")
    median = f"{statistics.median(runs):.0f}" if runs else "-"
    row = (f"| {name} | {seeds.start}-{seeds.stop - 1} | {covered} "
           f"| {coverage_bound(n):.1f} | {below}/{n} | {failed} | {median} "
           f"| {'ok' if ok else 'FAIL'} |\n")
    return row, ok


def table_rows():
    """The table's rows of the cells in CELLS, by cell name."""
    rows = {}
    if os.path.exists(TABLE):
        with open(TABLE) as fh:
            for line in fh:
                name = line.split("|")[1].strip() if "|" in line else None
                if name in CELLS:
                    rows[name] = line
    return rows


def main(names):
    """Measure the cells of ``names`` (every cell when empty) and rewrite
    their rows of the table, keeping the other cells' rows."""
    unknown = sorted(set(names) - set(CELLS))
    if unknown:
        return f"unknown coverage cell: {', '.join(unknown)}"
    rows, passed = table_rows() if names else {}, True
    for name in CELLS:
        if names and name not in names:
            continue
        rows[name], ok = measure(name)
        passed &= ok
    with open(TABLE, "w") as fh:
        fh.write("# Slow coverage cells\n\nWritten by `tests/coverage_slow.py`"
                 " (CLI defaults unless the cell names a setting; median runs"
                 " over the runs that exit 0).\n\n")
        fh.write(HEADER)
        fh.writelines(rows[name] for name in CELLS if name in rows)
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
