"""Exact report bytes for a fixed set of (config, seed) pairs.

Refactors of the engine must reproduce these files byte for byte.  Each case
runs once and is emitted in all three formats.  To rewrite the files after a
deliberate change of output, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py
"""

import difflib
import os
import sys

import pytest

from tailshift.cli import RunConfig, emit_report, run

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
FORMATS = ("table", "json", "csv")

CASES = {
    "prob-identity-left": dict(task="prob", tail="left", gamma=-4.0, seed=1),
    "prob-linear-110": dict(task="prob", model="builtin:linear", dim=110,
                            gamma=12.74, seed=1),
    "prob-linear-1010": dict(task="prob", model="builtin:linear", dim=1010,
                             gamma=13.0, seed=2),
    "prob-skewed-d1": dict(task="prob", model="builtin:skewed", dim=1,
                           gamma=10.0, seed=3),
    "prob-skewed-d3": dict(task="prob", model="builtin:skewed", dim=3,
                           gamma=10.0, seed=4),
    "prob-confidence-99": dict(task="prob", gamma=4.0, confidence=0.99,
                               seed=5),
    "prob-budget": dict(task="prob", gamma=5.0, precision=0.01,
                        budget=20_000, seed=6),
    "prob-max-levels": dict(task="prob", gamma=50.0, max_levels=2, seed=0),
    "quantile-identity": dict(task="quantile", p=1e-4, seed=7),
    "quantile-skewed": dict(task="quantile", model="builtin:skewed", dim=1,
                            p=1e-5, seed=8),
    "quantile-left": dict(task="quantile", tail="left", p=1e-4, seed=9),
    "quantile-linear-110": dict(task="quantile", model="builtin:linear",
                                dim=110, p=1e-5, seed=10),
    "quantile-budget": dict(task="quantile", p=1e-6, budget=8_000, seed=11),
    "quantile-max-levels": dict(task="quantile", p=1e-12, max_levels=2,
                                seed=0),
    "cvar-identity": dict(task="cvar", gamma=3.0, seed=12),
    "strata-d1": dict(task="strata", gamma=3.0, strata=10, n_total=4000,
                      seed=13),
    "strata-d10": dict(task="strata", model="builtin:linear", dim=10,
                       gamma=9.0, seed=14),
}


def emit_case(name):
    """(exit code, {format: report bytes}) for one golden case."""
    code, bundle = run(RunConfig(**CASES[name]))
    return code, {fmt: emit_report(bundle, fmt) for fmt in FORMATS}


def golden_path(name, fmt):
    return os.path.join(GOLDEN_DIR, f"{name}.{fmt}")


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden(name):
    _, payloads = emit_case(name)
    for fmt, payload in payloads.items():
        with open(golden_path(name, fmt), "rb") as fh:
            expected = fh.read()
        if payload != expected:
            diff = difflib.unified_diff(
                expected.decode().splitlines(), payload.decode().splitlines(),
                f"golden/{name}.{fmt}", "emitted", lineterm="")
            pytest.fail("report bytes changed:\n" + "\n".join(diff))


def write_golden():
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sorted(CASES):
        code, payloads = emit_case(name)
        for fmt, payload in payloads.items():
            with open(golden_path(name, fmt), "wb") as fh:
                fh.write(payload)
        print(f"{name}: exit {code}")


if __name__ == "__main__":
    sys.exit(write_golden())
