"""Exact report bytes for a fixed set of (config, seed) pairs.

Refactors of the engine must reproduce these files byte for byte.  Each case
runs once and is emitted in all three formats.  To rewrite the files of the
named cases after a deliberate change of output, run from the repository
root:

    PYTHONPATH=src python tests/test_golden.py [NAME ...]

With no name every case is rewritten.  Each file whose bytes changed is
printed; for a JSON file the line also names each number path removed or
added, gives the largest relative change among the numbers both files hold
and says whether any of their integers (a run count) changed.  The
d=110 cases depend on the OpenBLAS thread count, so rewrite
only the cases a change moves.
"""

import difflib
import json
import math
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
    "quantile-budget": dict(task="quantile", p=1e-6, budget=2_000, seed=11),
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


def json_numbers(doc, path=""):
    """(path, value) of every number in a parsed JSON document, in order."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from json_numbers(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from json_numbers(value, f"{path}[{i}]")
    elif isinstance(doc, (int, float)) and not isinstance(doc, bool):
        yield path, doc


def json_moves(old, new):
    """How the numbers of a rewritten JSON report moved: each number path
    removed or added, then the largest relative change among the paths
    both hold and where, and whether any of their integers changed."""
    before = dict(json_numbers(json.loads(old)))
    after = dict(json_numbers(json.loads(new)))
    notes = [f"removed {path}" for path in before if path not in after]
    notes += [f"added {path}" for path in after if path not in before]
    largest, where, integers = 0.0, None, []
    for path, a in before.items():
        if path not in after:
            continue
        b = after[path]
        if a == b or (math.isnan(a) and math.isnan(b)):
            continue
        if isinstance(a, int) or isinstance(b, int):
            integers.append(f"{path} {a} -> {b}")
        rel = abs(b - a) / abs(a) if a else math.inf
        if not rel <= largest:
            largest, where = rel, path
    notes.append(f"largest relative change {largest:.2g} at {where}"
                 if where else "no number moved")
    notes.append(f"integers changed: {', '.join(integers)}" if integers
                 else "no integer changed")
    return "; ".join(notes)


def test_json_moves_names_a_removed_number():
    old = json.dumps({"config": {"rho": 0.1, "seed": 1}, "runs": 5})
    new = json.dumps({"config": {"seed": 1}, "runs": 5})
    assert json_moves(old, new) == (
        "removed config.rho; no number moved; no integer changed")


def test_json_moves_gives_the_largest_move_and_integer_changes():
    old = json.dumps({"a": 1.0, "b": [2.0, 4.0], "runs": 10, "gamma": None})
    new = json.dumps({"a": 1.5, "b": [2.0, 3.0], "runs": 12, "gamma": 2.0})
    assert json_moves(old, new) == (
        "added gamma; largest relative change 0.5 at a; "
        "integers changed: runs 10 -> 12")


def write_golden(names):
    """Rewrite the golden files of ``names`` (every case when empty) and
    print each file whose bytes changed."""
    unknown = sorted(set(names) - set(CASES))
    if unknown:
        return f"unknown golden case: {', '.join(unknown)}"
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in sorted(names or CASES):
        code, payloads = emit_case(name)
        for fmt, payload in payloads.items():
            path = golden_path(name, fmt)
            note = ""
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    old = fh.read()
                if old == payload:
                    continue
                if fmt == "json":
                    note = ": " + json_moves(old, payload)
            with open(path, "wb") as fh:
                fh.write(payload)
            print(f"changed {os.path.relpath(path)} (exit {code}){note}")


if __name__ == "__main__":
    sys.exit(write_golden(sys.argv[1:]))
