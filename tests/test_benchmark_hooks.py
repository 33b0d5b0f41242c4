"""The benchmark's tracer wraps library functions by name; each must exist.

A deleted or renamed traced function otherwise surfaces only when the
benchmark runs with tracing on.  The benchmark's own self-tests also run
here, so a refactor that stops calling a traced function, or breaks the
tracer, fails this suite too.
"""

import importlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_target_resolves(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    tracer = importlib.import_module("tracer")
    missing = []
    for name, owner, attr, _, _ in tracer.traced_targets():
        # Tracer.install reads methods from the class's own __dict__
        found = (owner.__dict__.get(attr) if isinstance(owner, type)
                 else getattr(owner, attr, None))
        if not callable(found):
            missing.append(f"{name}: {owner.__name__}.{attr}")
    assert missing == []


def test_benchmark_selftest_passes():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "perfbench/selftest.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-4000:]
