"""Spans around calls into tailshift's modules, recorded from outside src/.

``Tracer.install()`` replaces each traced function at every binding that
holds it: the defining module, every module that imported it by name, and
the class for methods.  Each call then records a span (name, start, end,
parent, problem id, counts).  ``restore()`` puts every original back.
Spans stay in memory until ``write()``.
"""

import itertools
import json
import threading
import time

import numpy as np


def _points(args, kwargs):
    return {"points": int(np.shape(kwargs.get("points", args[1]))[0])}


def _merge(result, args, kwargs):
    return {"elems": int(result.responses.size + result.log_weights.size)}


def _solve(result, args, kwargs):
    batch = kwargs.get("batch", args[0])
    return {"iters": int(result.newton_iterations), "dim": int(batch.dimension)}


def _selection(result, args, kwargs):
    return {"size": int(result.size)}


def _pool(args, kwargs):
    return {"workers": int(args[0].workers)}


def _emit(result, args, kwargs):
    return {"bytes": len(result)}


def traced_targets():
    """(span name, owner, attribute, before-hook, after-hook) per traced call."""
    from tailshift import (cli, core, cvar, dimred, meanshift, model,
                           multilevel, quantile, stratified)
    return (
        ("cli.emit", cli, "emit_report", None, _emit),
        ("core.rng", core.RngStream, "__init__", None, None),
        ("model.eval", model, "response_values", _points, None),
        ("model.pool_start", model.SimulatorPool, "__init__", None, None),
        ("model.pool_eval", model.SimulatorPool, "evaluate", _pool, None),
        ("model.sim_eval", model.ExternalSimulator, "evaluate", None, None),
        ("multilevel.precision", multilevel, "estimate_to_precision", None, None),
        ("multilevel.ladder", multilevel, "run_ladder", None, None),
        ("multilevel.draw", multilevel, "draw_tail_sample", None, None),
        ("multilevel.next_level", multilevel, "next_level", None, None),
        ("multilevel.merge", multilevel.TailSample, "merge", None, _merge),
        ("multilevel.report", multilevel, "report_from_sample", None, None),
        ("meanshift.solve", meanshift, "solve_optimal_shift", None, _solve),
        ("dimred.select", dimred, "select_important", None, _selection),
        ("dimred.augment", dimred, "augment_selection", None, _selection),
        ("dimred.subspace_solve", dimred, "solve_shift_in_subspace", None, None),
        ("quantile", quantile, "estimate_quantile", None, None),
        ("cvar", cvar, "estimate_cvar", None, None),
        ("stratified", stratified, "stratified_estimate", None, None),
    )


class Tracer:
    def __init__(self):
        self.spans = {}
        self.problem = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack = []
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if threading.current_thread() is not self._main:
            # pool worker threads run on behalf of the main thread's
            # innermost open span (SimulatorPool.evaluate)
            return self._main_stack[-1] if self._main_stack else None
        return None

    def span(self, name, **attrs):
        """Context manager recording one span from the calling code."""
        return _Span(self, name, attrs)

    def _open(self, name, attrs):
        stack = self._stack()
        if threading.current_thread() is self._main:
            self._main_stack = stack
        sid = next(self._ids)
        self.spans[sid] = {"id": sid, "name": name, "parent": self._parent(stack),
                           "problem": self.problem, "start": time.perf_counter(),
                           "end": None, **attrs}
        stack.append(sid)
        return sid

    def _close(self, sid, attrs):
        self._stack().pop()
        record = self.spans[sid]
        record["end"] = time.perf_counter()
        record.update(attrs)

    def _wrap(self, name, func, before, after):
        tracer = self

        def traced(*args, **kwargs):
            attrs = before(args, kwargs) if before else {}
            sid = tracer._open(name, attrs)
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                tracer._close(sid, {"error": type(exc).__name__})
                raise
            tracer._close(sid, after(result, args, kwargs) if after else {})
            return result

        traced.__wrapped__ = func
        return traced

    def install(self, modules):
        """Wrap every traced call at each of its bindings in ``modules``."""
        for name, owner, attr, before, after in traced_targets():
            original = owner.__dict__[attr] if isinstance(owner, type) \
                else getattr(owner, attr)
            wrapper = self._wrap(name, original, before, after)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def restore(self):
        while self._patches:
            holder, attr, original = self._patches.pop()
            setattr(holder, attr, original)

    def write(self, path):
        with open(path, "w") as fh:
            for sid in sorted(self.spans):
                fh.write(json.dumps(self.spans[sid]) + "\n")


class _Span:
    def __init__(self, tracer, name, attrs):
        self.tracer, self.name, self.attrs = tracer, name, attrs

    def __enter__(self):
        self.sid = self.tracer._open(self.name, self.attrs)
        return self

    def __exit__(self, *exc):
        self.tracer._close(self.sid, {})
        return False


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


class SpanIndex:
    """Totals, counts and self times over a finished set of spans."""

    def __init__(self, spans):
        self.spans = list(spans)
        self.by_id = {s["id"]: s for s in self.spans}
        self.children = {}
        for s in self.spans:
            self.children.setdefault(s["parent"], []).append(s)

    def named(self, name):
        return [s for s in self.spans if s["name"] == name]

    def count(self, name):
        return len(self.named(name))

    def total(self, name, key=None):
        """Summed duration, or summed attribute ``key``, of spans ``name``."""
        if key is None:
            return sum(s["end"] - s["start"] for s in self.named(name))
        return sum(s.get(key, 0) for s in self.named(name))

    def self_time(self, name):
        """Duration of spans ``name`` minus what their direct children cover."""
        out = 0.0
        for s in self.named(name):
            kids = [(c["start"], c["end"]) for c in self.children.get(s["id"], [])]
            out += (s["end"] - s["start"]) - covered(kids, s["start"], s["end"])
        return out

    def ancestor(self, span, names):
        """Nearest ancestor of ``span`` whose name is in ``names``, or None."""
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["name"] in names:
                return parent
            parent = self.by_id.get(parent["parent"])
        return None
