"""tailshift benchmark: one closed-loop client solving one problem at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the engine is imported from src/.
The workload and (seed, seconds) fix a problem list (see workloads.py).  Each
problem is timed through ``tailshift.cli.run(RunConfig)`` plus
``emit_report`` and checked against its oracle.

--trace 0 solves the list untraced and prints the end-to-end metrics.
--trace 1 solves the list for S/2 untraced, then again with every traced
call wrapped (see tracer.py), checks that both passes give the same report
bytes and that the model saw exactly the reported runs, writes the spans to
.perfbench_out/, and prints the per-layer metrics.

The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  When the benchmark cannot run at all, it exits non-zero without
printing that line.
"""

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = ".perfbench_out"
SETUP_PROBES = 3
TAIL_RUNGS = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
TAIL_MIN_BEYOND = 10


def tail_rung(n):
    """Highest rung with at least TAIL_MIN_BEYOND of n samples beyond it.

    With fewer than 2 * TAIL_MIN_BEYOND samples no rung qualifies and the
    maximum (p100) stands in; only a --seconds far below run_seconds does that.
    """
    best = 100.0
    for q in TAIL_RUNGS:
        if round(n * (100.0 - q) / 100.0, 9) >= TAIL_MIN_BEYOND:
            best = q
    return best


def percentile(values, q):
    """Linear-interpolated percentile, as numpy's default."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def _import_engine():
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "tailshift", "__init__.py")):
        sys.exit(f"perfbench: no tailshift sources under {src}")
    sys.path.insert(0, src)
    import tailshift.cli
    return tailshift.cli


def solve(cli, config):
    """One problem through the public CLI path: (code, bundle, report bytes)."""
    from tailshift.errors import TailshiftError
    cfg = cli.RunConfig(**config)
    try:
        code, bundle = cli.run(cfg)
    except TailshiftError as exc:
        # what `tailshift` prints and returns for an uncaught engine error
        return cli.EXIT_ERROR, None, f"error: {exc}\n".encode()
    return code, bundle, cli.emit_report(bundle, cfg.format)


def runs_of(bundle):
    """Model runs a bundle accounts for (partial trace when no report)."""
    if bundle is None:
        return 0
    block = bundle.get("report") or bundle.get("quantile")
    if block is not None:
        return block["runs_total"]
    return sum(row["runs"] for row in bundle.get("trace", []))


def solve_all(cli, problems, tracer=None):
    """Solve the list in order; per problem (seconds, code, bundle, bytes)."""
    from workloads import misses_oracle
    out = []
    for problem in problems:
        if tracer is not None:
            tracer.problem = problem.index
        with (tracer.span("problem") if tracer is not None
              else contextlib.nullcontext()):
            t0 = time.perf_counter()
            code, bundle, payload = solve(cli, problem.config)
            dt = time.perf_counter() - t0
        out.append({"s": dt, "code": code, "bundle": bundle, "bytes": payload,
                    "failed": misses_oracle(problem, code, bundle),
                    "runs": runs_of(bundle)})
    return out


def digest(results):
    h = hashlib.sha256()
    for r in results:
        h.update(len(r["bytes"]).to_bytes(8, "little"))
        h.update(r["bytes"])
    return h.hexdigest()


def measure_setup(workload, seed):
    """Median wall time of fresh processes that import and warm up."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload",
             workload, "--seed", str(seed), "--probe"],
            stdout=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe exited {proc.returncode}")
    return statistics.median(times)


def end_to_end(results, setup_s):
    times = [r["s"] for r in results]
    rung = tail_rung(len(times))
    beyond = sum(t > percentile(times, rung) for t in times)
    runs = sum(r["runs"] for r in results)
    metrics = {
        "solve_s_p50": (percentile(times, 50.0), "s"),
        "solve_s_tail": (percentile(times, rung), "s"),
        "runs_per_s": (runs / sum(times), "1/s"),
        "model_runs": (runs, "count"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    notes = {"solve_s_tail": f"p{rung:g} with {beyond} of {len(times)} "
                             f"solves beyond it"}
    return metrics, notes


def per_layer(index, results, untraced, child_cpu_s, sim_bytes):
    """Per-layer totals over one traced pass of the problem list."""
    bundles = [r["bundle"] for r in results if r["bundle"] is not None]
    blocks = [b.get("report") or b.get("quantile") for b in bundles]
    blocks = [b for b in blocks if b is not None]
    eval_s = index.total("model.eval")
    points = index.total("model.eval", "points")
    pool_wall = sum((s["end"] - s["start"]) * s["workers"]
                    for s in index.named("model.pool_eval"))
    dimred_top = [s for s in index.spans
                  if s["name"] in ("dimred.select", "dimred.augment")
                  and index.ancestor(s, ("dimred.select", "dimred.augment"))
                  is None]
    solves = index.named("meanshift.solve")
    draws = index.named("multilevel.draw")
    selections = [len(b["selected"]) for b in bundles if b.get("selected")]
    strata_points = sum(s.get("points", 0) for s in index.named("model.eval")
                        if index.ancestor(s, ("stratified",)))

    def draws_under(name):
        return sum(1 for s in draws if index.ancestor(s, (name,)))

    p50 = percentile([r["s"] for r in results], 50.0)
    p50_untraced = percentile([r["s"] for r in untraced], 50.0)
    values = {
        "cli.emit_s": (index.total("cli.emit"), "s"),
        "cli.emit_bytes": (index.total("cli.emit", "bytes"), "B"),
        "core.rng_streams": (index.count("core.rng"), "count"),
        "core.rng_s": (index.total("core.rng"), "s"),
        "model.eval_calls": (index.count("model.eval"), "count"),
        "model.eval_points": (points, "count"),
        "model.eval_s": (eval_s, "s"),
        "model.eval_points_per_s": (points / eval_s if eval_s else 0.0,
                                    "1/s"),
        "model.pool_start_s": (index.total("model.pool_start"), "s"),
        "model.sim_busy_s": (index.total("model.sim_eval"), "s"),
        "model.worker_utilization": (
            index.total("model.sim_eval") / pool_wall if pool_wall else 0.0,
            "ratio"),
        "model.child_cpu_s": (child_cpu_s, "s"),
        "model.protocol_bytes": (sim_bytes, "B"),
        "multilevel.ladder_s": (index.total("multilevel.ladder"), "s"),
        "multilevel.ladder_self_s": (index.self_time("multilevel.ladder"),
                                     "s"),
        "multilevel.draw_self_s": (index.self_time("multilevel.draw"),
                                   "s"),
        "multilevel.levels": (sum(len(b.get("trace", [])) for b in bundles),
                              "count"),
        "multilevel.exploration_runs": (
            sum(b["runs_exploration"] for b in blocks), "count"),
        "multilevel.final_batches": (draws_under("multilevel.precision"),
                                     "count"),
        "multilevel.merge_calls": (index.count("multilevel.merge"),
                                   "count"),
        "multilevel.merge_elems": (index.total("multilevel.merge", "elems"),
                                   "count"),
        "multilevel.merge_s": (index.total("multilevel.merge"), "s"),
        "multilevel.report_s": (index.total("multilevel.report"), "s"),
        "meanshift.solve_calls": (len(solves), "count"),
        "meanshift.solve_s": (index.total("meanshift.solve"), "s"),
        "meanshift.newton_iters": (index.total("meanshift.solve", "iters"),
                                   "count"),
        "meanshift.solve_dim_mean": (
            statistics.fmean([s["dim"] for s in solves if "dim" in s])
            if any("dim" in s for s in solves) else 0.0, "count"),
        "meanshift.not_converged": (
            sum(s.get("error") == "NotConverged" for s in solves),
            "count"),
        "dimred.select_calls": (len(dimred_top), "count"),
        "dimred.select_s": (sum(s["end"] - s["start"] for s in dimred_top),
                            "s"),
        "dimred.subspace_solve_self_s": (
            index.self_time("dimred.subspace_solve"), "s"),
        "dimred.selection_size": (statistics.fmean(selections)
                                  if selections else 0.0, "count"),
        "quantile.s": (index.total("quantile"), "s"),
        "quantile.self_s": (index.self_time("quantile"), "s"),
        "quantile.refine_batches": (draws_under("quantile"), "count"),
        "cvar.s": (index.total("cvar"), "s"),
        "stratified.s": (index.total("stratified"), "s"),
        "stratified.self_s": (index.self_time("stratified"), "s"),
        "stratified.points": (strata_points, "count"),
        "trace.overhead": (p50 / p50_untraced - 1.0, "ratio"),
    }
    return values


def sim_protocol_bytes():
    """Bytes the exec: simulators read plus wrote, from their stats files."""
    from workloads import SIM_STATS_DIR
    total = 0
    if os.path.isdir(SIM_STATS_DIR):
        for name in os.listdir(SIM_STATS_DIR):
            with open(os.path.join(SIM_STATS_DIR, name)) as fh:
                stats = json.load(fh)
            total += stats["bytes_read"] + stats["bytes_written"]
    return total


def child_cpu():
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def reset_sim_stats():
    from workloads import SIM_STATS_DIR
    shutil.rmtree(SIM_STATS_DIR, ignore_errors=True)
    os.makedirs(SIM_STATS_DIR)


def traced_pass(cli, problems):
    """Solve the list with every traced call wrapped; restores on exit."""
    from tracer import SpanIndex, Tracer
    modules = [m for name, m in sorted(sys.modules.items())
               if name == "tailshift" or name.startswith("tailshift.")]
    tracer = Tracer()
    reset_sim_stats()
    cpu0 = child_cpu()
    tracer.install(modules)
    try:
        results = solve_all(cli, problems, tracer)
    finally:
        tracer.restore()
    return results, tracer, SpanIndex(tracer.spans.values()), \
        child_cpu() - cpu0, sim_protocol_bytes()


def main(argv=None):
    parser = argparse.ArgumentParser(description="tailshift benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, HERE)
    cli = _import_engine()
    from workloads import WORKLOADS, answer
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    warmup = dict(workload.warmup, seed=args.seed)
    if args.probe:
        code, _, _ = solve(cli, warmup)
        return 0 if code == 0 else 3

    setup_s = (measure_setup(args.workload, args.seed)
               if args.trace == 0 else None)
    reset_sim_stats()
    solve(cli, warmup)
    seconds = args.seconds if args.trace == 0 else args.seconds / 2.0
    problems = workload.plan(args.seed, seconds)
    results = solve_all(cli, problems)
    checks = {}
    if args.trace == 0:
        # determinism: the first problem of every kind again, same bytes
        firsts = {}
        for p, r in zip(problems, results):
            firsts.setdefault(p.kind, (p, r))
        again = solve_all(cli, [p for p, _ in firsts.values()])
        checks["rerun_bytes_equal"] = all(
            a["bytes"] == r["bytes"] for a, (_, r) in zip(again, firsts.values()))
        values, notes = end_to_end(results, setup_s)
    else:
        traced, tracer, index, cpu_s, sim_bytes = traced_pass(cli, problems)
        checks["traced_digest_equal"] = digest(traced) == digest(results)
        values = per_layer(index, traced, results, cpu_s, sim_bytes)
        runs = sum(r["runs"] for r in traced)
        checks["eval_points_equal_model_runs"] = \
            values["model.eval_points"][0] == runs
        os.makedirs(OUT_DIR, exist_ok=True)
        spans_path = os.path.join(
            OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl")
        tracer.write(spans_path)
        notes = {"spans": spans_path, "model_runs": runs}

    failed = sum(r["failed"] for r in results)
    correct = all(checks.values())
    kinds = {}
    for p, r in zip(problems, results):
        kinds.setdefault(p.kind, []).append(r)
    print(f"workload {args.workload} seed {args.seed} "
          f"trace {args.trace}: {len(problems)} problems")
    for kind, rs in kinds.items():
        print(f"  {kind}: {len(rs)} solved, "
              f"{sum(r['failed'] for r in rs)} failed, median "
              f"{statistics.median(r['s'] for r in rs):.4g} s, median runs "
              f"{statistics.median(r['runs'] for r in rs):g}")
    print(f"  failed_share {failed / len(problems):.6g} ratio "
          f"(base: {len(problems)} problems attempted)")
    for p, r in zip(problems, results):
        if r["failed"]:
            estimate, rel = answer(r["bundle"])
            print(f"  failed: {p.kind} #{p.index} seed {p.config['seed']} "
                  f"exit {r['code']} estimate {estimate} ci_rel {rel} "
                  f"truth {p.truth:.10g}")
    for name, (value, unit) in values.items():
        print(f"  {name} {value:.6g} {unit}")
    for name, note in notes.items():
        print(f"  {name}: {note}")
    print(f"  report digest {digest(results)}")
    for name, ok in checks.items():
        print(f"  check {name}: {'ok' if ok else 'FAILED'}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(problems),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
