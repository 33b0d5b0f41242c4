"""Self-tests of the benchmark's own arithmetic, oracles, tracer and simulator.

    python3 -m unittest perfbench/selftest.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

import mpmath

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import SpanIndex, covered, traced_targets  # noqa: E402


def _span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "start": start, "end": end,
            "parent": parent, "problem": 0}


class SelfTime(unittest.TestCase):
    def test_union_of_children_is_subtracted_once(self):
        spans = [
            _span(0, "a", 0.0, 10.0),
            _span(1, "b", 1.0, 3.0, parent=0),
            _span(2, "b", 2.0, 5.0, parent=0),    # overlaps the first child
            _span(3, "c", 8.0, 12.0, parent=0),   # runs past its parent
            _span(4, "d", 1.5, 2.5, parent=1),    # grandchild: not subtracted
        ]
        index = SpanIndex(spans)
        self.assertAlmostEqual(index.self_time("a"), 10.0 - 4.0 - 2.0)
        self.assertAlmostEqual(index.self_time("b"), (2.0 - 1.0) + 3.0)
        self.assertAlmostEqual(index.total("b"), 5.0)
        self.assertEqual(index.count("b"), 2)
        self.assertEqual(index.ancestor(spans[4], ("a",))["id"], 0)
        self.assertIsNone(index.ancestor(spans[0], ("a",)))

    def test_covered(self):
        self.assertEqual(covered([], 0.0, 1.0), 0.0)
        self.assertAlmostEqual(covered([(0.2, 0.4), (0.3, 0.5), (0.9, 2.0)],
                                       0.0, 1.0), 0.4)


class TailRule(unittest.TestCase):
    def test_rung_is_highest_with_ten_beyond(self):
        cases = {1: 100.0, 19: 100.0, 20: 50.0, 39: 50.0, 40: 75.0, 99: 75.0,
                 100: 90.0, 199: 90.0, 200: 95.0, 999: 95.0, 1000: 99.0,
                 9999: 99.0, 10000: 99.9}
        for n, rung in cases.items():
            self.assertEqual(run.tail_rung(n), rung, n)

    def test_ten_samples_lie_beyond_the_rung(self):
        for n in (20, 40, 104, 192, 200, 2000):
            values = [float(i) for i in range(n)]
            cut = run.percentile(values, run.tail_rung(n))
            self.assertGreaterEqual(sum(v > cut for v in values), 10, n)

    def test_percentile_interpolates(self):
        self.assertEqual(run.percentile([3.0, 1.0, 2.0, 4.0], 50.0), 2.5)
        self.assertEqual(run.percentile([5.0], 90.0), 5.0)


class Oracles(unittest.TestCase):
    def test_skewed_root_matches_mpmath(self):
        mpmath.mp.dps = 40
        for gamma in (-3.0, 0.5, 4.9, 42.13, 300.0):
            root = mpmath.findroot(
                lambda x: x + x * x / 4 + x ** 3 / 10 - gamma, 1.0)
            self.assertAlmostEqual(workloads.skewed_root(gamma) / float(root),
                                   1.0, places=12)
            expect = float(mpmath.ncdf(-root))
            got = workloads.tail_prob(workloads.skewed_root(gamma))
            self.assertLess(abs(got / expect - 1.0), 1e-9)

    def test_identity_cvar_matches_mpmath(self):
        mpmath.mp.dps = 40
        for gamma in (0.0, 1.5, 4.75, workloads.tail_quantile(1e-10)):
            g = mpmath.mpf(gamma)
            expect = mpmath.npdf(g) / mpmath.ncdf(-g)
            self.assertLess(abs(workloads.identity_cvar(gamma) / float(expect)
                                - 1.0), 1e-12)

    def test_linear_oracle_matches_engine_closed_form(self):
        from tailshift.model import ModelSpec, analytic_tail_prob
        for d in (10, 110, 1010):
            gamma = 3.7 * workloads.linear_norm(d)
            self.assertAlmostEqual(
                workloads.tail_prob(gamma / workloads.linear_norm(d))
                / analytic_tail_prob(ModelSpec.linear_family(d), gamma),
                1.0, places=12)

    def test_miss_rule(self):
        problem = workloads.Problem(0, "k", {}, truth=1.0)
        hit = {"task": "prob", "report": {"estimate": 1.1, "ci_rel": 0.05}}
        miss = {"task": "prob", "report": {"estimate": 1.2, "ci_rel": 0.05}}
        self.assertFalse(workloads.misses_oracle(problem, 0, hit))
        self.assertTrue(workloads.misses_oracle(problem, 0, miss))
        self.assertTrue(workloads.misses_oracle(problem, 3, hit))


class Plans(unittest.TestCase):
    def test_plan_is_fixed_by_seed_and_seconds(self):
        w = workloads.WORKLOADS["lowdim-mix"]
        self.assertEqual(w.plan(4, 2), w.plan(4, 2))
        self.assertNotEqual([p.config["seed"] for p in w.plan(4, 2)],
                            [p.config["seed"] for p in w.plan(5, 2)])
        kinds = [p.kind for p in w.plan(4, 30)]
        for kind in w.kinds:
            self.assertEqual(kinds.count(kind.name), kind.per_30s)


class TracedRun(unittest.TestCase):
    def _bindings(self, modules):
        names = {attr for _, _, attr, _, _ in traced_targets()}
        snap = {}
        for m in modules:
            for name in names:
                if name in vars(m):
                    snap[(m.__name__, name)] = vars(m)[name]
        for _, owner, attr, _, _ in traced_targets():
            if isinstance(owner, type):
                snap[(owner.__qualname__, attr)] = owner.__dict__[attr]
        return snap

    def test_wrappers_are_restored_and_see_every_model_run(self):
        cli = run._import_engine()
        modules = [m for n, m in sys.modules.items()
                   if n == "tailshift" or n.startswith("tailshift.")]
        before = self._bindings(modules)
        # every traced layer: reductions, d=1010 selection, exec: pool
        problems = [p for name in ("lowdim-mix", "builtin-linear",
                                   "exec-linear")
                    for p in workloads.WORKLOADS[name].plan(3, 0.2)]
        os.chdir(os.path.dirname(HERE))
        untraced = run.solve_all(cli, problems)
        traced, tracer, index, _, _ = run.traced_pass(cli, problems)
        self.assertEqual(self._bindings(modules), before)
        self.assertEqual(run.digest(traced), run.digest(untraced))
        self.assertEqual(index.total("model.eval", "points"),
                         sum(r["runs"] for r in traced))
        self.assertEqual(index.count("problem"), len(problems))
        for name in ("dimred.select", "model.sim_eval", "quantile", "cvar",
                     "stratified", "multilevel.merge"):
            self.assertGreater(index.count(name), 0, name)

        # the metrics printed are the ones BENCHMARK.json declares
        with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        layer = run.per_layer(index, traced, untraced, 0.0, 0)
        self.assertEqual({k: u for k, (_, u) in layer.items()},
                         {m["name"]: m["unit"] for m in spec["per_layer"]})
        e2e, _ = run.end_to_end(untraced, 1.0)
        self.assertEqual({k: u for k, (_, u) in e2e.items()},
                         {m["name"]: m["unit"] for m in spec["end_to_end"]})


class Simulator(unittest.TestCase):
    SIM = os.path.join(HERE, "linear_sim.py")

    def _run(self, stdin, *args):
        return subprocess.run([sys.executable, self.SIM, *args], input=stdin,
                              capture_output=True, timeout=60)

    def test_answers_and_reports_bytes_on_eof(self):
        request = b"EVAL 2 11\n" + b"1 0 0 0 0 0 0 0 0 0 100\n" * 2
        tmp_root = os.path.join(os.path.dirname(HERE), ".perfbench_tmp")
        os.makedirs(tmp_root, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=tmp_root) as stats:
            proc = self._run(request, "--stats-dir", stats)
            self.assertEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout, b"2.0\n2.0\n")
            (name,) = os.listdir(stats)
            with open(os.path.join(stats, name)) as fh:
                self.assertEqual(fh.read(), '{"bytes_read": %d, '
                                 '"bytes_written": 8}' % len(request))

    def test_malformed_requests_fail_loudly(self):
        for request in (b"EVAL two 3\n", b"EVAL 2 3\n1 2 3\n",
                        b"EVAL 1 3\n1 x 3\n", b"HELLO\n"):
            proc = self._run(request)
            self.assertEqual(proc.returncode, 2, request)
            self.assertIn(b"linear_sim:", proc.stderr)


if __name__ == "__main__":
    unittest.main()
