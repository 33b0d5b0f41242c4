"""The benchmark's tracer wraps library functions by name; each must exist.

A deleted or renamed traced function otherwise surfaces only when the
benchmark runs with tracing on.
"""

import importlib
import os

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
