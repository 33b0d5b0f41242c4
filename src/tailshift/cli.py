"""Command-line front end: configuration, task pipelines, report emission.

Subcommands: prob, quantile, cvar, strata.  Every flag can also come from a
JSON config file (--config); explicit flags win.  Reports are emitted as an
aligned table, JSON, or CSV, and are byte-identical for identical (config,
seed) at any worker count.
"""

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, fields
from typing import get_args

import numpy as np

from .core import SEED_LIMIT, RngStream
from .cvar import estimate_cvar
from .errors import (BudgetExhausted, ConfigError, DomainError,
                     MaxLevelsExceeded, SimulatorError, TailshiftError)
from .model import ModelSpec, SimulatorPool
from .multilevel import DIMRED_MODES, estimate_to_precision, run_ladder
from .quantile import estimate_quantile
from .stratified import stratified_estimate

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3
EXIT_SIMULATOR = 4
EXIT_LADDER = 5

_TASKS = ("prob", "quantile", "cvar", "strata")
# allowed values of the RunConfig fields that take a name
_CHOICES = {"task": _TASKS, "tail": ("right", "left"), "dimred": DIMRED_MODES,
            "format": ("table", "json", "csv")}
_HELP = {"model": "builtin:<identity|linear|skewed> or exec:<command>"}


@dataclass
class RunConfig:
    task: str = "prob"
    model: str = "builtin:identity"
    dim: int = 1
    tail: str = "right"
    gamma: float | None = None
    p: float | None = None
    precision: float = 0.10
    confidence: float = 0.95
    max_levels: int = 30
    budget: int = 1_000_000
    seed: int = 0
    workers: int = 1
    dimred: str = "auto"
    strata: int = 20
    n_total: int = 10_000
    format: str = "table"
    out: str | None = None

    def validate(self):
        for name, allowed in _CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ConfigError(f"{name}: must be one of {allowed}, got {value!r}")
        if self.dim < 1:
            raise ConfigError(f"dim: must be >= 1, got {self.dim}")
        if not 0.0 < self.precision < 1.0:
            raise ConfigError(f"precision: must lie in (0, 1), got {self.precision}")
        if not 0.0 < self.confidence < 1.0:
            raise ConfigError(f"confidence: must lie in (0, 1), got {self.confidence}")
        if self.max_levels < 1:
            raise ConfigError(f"max_levels: must be >= 1, got {self.max_levels}")
        if self.budget < 1:
            raise ConfigError(f"budget: must be >= 1, got {self.budget}")
        if not 0 <= self.seed < SEED_LIMIT:
            raise ConfigError(f"seed: must lie in [0, 2**32), got {self.seed}")
        if self.workers < 1:
            raise ConfigError(f"workers: must be >= 1, got {self.workers}")
        if self.strata < 2:
            raise ConfigError(f"strata: must be >= 2, got {self.strata}")
        if self.n_total < 2 * self.strata:
            raise ConfigError(
                f"n_total: must be >= 2 * strata, got {self.n_total}")
        for name in ("gamma", "p"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name}: must be finite, got {value}")
        if self.task == "quantile":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise ConfigError("p: quantile task needs p in (0, 1)")
        elif self.gamma is None:
            raise ConfigError(f"gamma: {self.task} task needs a gamma")
        if self.out is not None:
            # fail before the run, not when the finished report is written
            parent = os.path.dirname(os.path.abspath(self.out))
            if (os.path.isdir(self.out) or not os.path.isdir(parent)
                    or not os.access(parent, os.W_OK)):
                raise ConfigError(f"out: cannot write a report to {self.out!r}")

    def build_model(self):
        """The configured ModelSpec; an ``exec:`` model's pool starts here
        with ``workers`` simulators, and the caller closes it."""
        spec = self.model
        if spec.startswith("builtin:"):
            name = spec.split(":", 1)[1]
            if name == "identity":
                return ModelSpec.identity(self.dim, tail=self.tail)
            if name == "linear":
                return ModelSpec.linear_family(self.dim, tail=self.tail)
            if name == "skewed":
                return ModelSpec.skewed(self.dim, tail=self.tail)
            raise ConfigError(f"model: unknown builtin {name!r}")
        if spec.startswith("exec:"):
            pool = SimulatorPool(spec.split(":", 1)[1], workers=self.workers)
            try:
                return ModelSpec.external(pool, self.dim, tail=self.tail)
            except DomainError:
                pool.close()
                raise
        raise ConfigError(
            f"model: expected builtin:<name> or exec:<path>, got {spec!r}")


def _field_type(f):
    """T for a RunConfig field declared as T or T | None."""
    return (get_args(f.type) or (f.type,))[0]


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.integer):
        return int(value)
    return value


def _report_dict(report):
    theta = report.theta
    return {
        "estimate": _json_safe(report.estimate),
        "ci_rel": _json_safe(report.rel_half_width),
        "confidence": report.confidence,
        "runs_exploration": report.runs_exploration,
        "runs_final": report.runs_final,
        "runs_total": report.runs_total,
        "speedup": _json_safe(report.speedup),
        "converged": report.converged,
        "zero_hits": report.zero_hits,
        "gamma": _json_safe(report.gamma),
        "theta_norm": (None if theta is None
                       else _json_safe(float(np.linalg.norm(theta)))),
    }


def _quantile_dict(report):
    return {
        "quantile": _json_safe(report.quantile),
        "ci_rel": _json_safe(report.rel_half_width),
        "confidence": report.confidence,
        "p": report.p,
        "runs_exploration": report.runs_exploration,
        "runs_final": report.runs_final,
        "runs_total": report.runs_total,
        "speedup": _json_safe(report.speedup),
        "converged": report.converged,
        "theta_norm": (None if report.theta is None
                       else _json_safe(float(np.linalg.norm(report.theta)))),
    }


def _cvar_dict(report, speedup=None):
    # the speedup column repeats the probability estimator's figure; both
    # numbers come from the same final-phase runs
    return {
        "gamma": _json_safe(report.gamma),
        "cvar": _json_safe(report.cvar),
        "ci_rel": _json_safe(report.rel_half_width),
        "sigma_sq": _json_safe(report.sigma_sq),
        "runs": report.runs,
        "speedup": _json_safe(speedup),
    }


def _trace_rows(trace):
    if trace is None:
        return []
    return [{k: _json_safe(v) for k, v in row.items()} for row in trace.rows()]


def _selection_list(trace):
    if trace is None or trace.selection is None:
        return None
    return [int(i) for i in trace.selection.indices]


def _bundle(config, status):
    return {
        "task": config.task,
        "model": config.model,
        "tail": config.tail,
        "seed": config.seed,
        "status": status,
        "config": {f.name: getattr(config, f.name) for f in fields(config)},
    }


def run(config):
    """Execute the configured task; returns (exit_code, report bundle)."""
    config.validate()
    rng = RngStream(config.seed)
    model = None
    try:
        model = config.build_model()
        return _dispatch(config, model, rng)
    except BudgetExhausted as exc:
        bundle = _bundle(config, "budget_exhausted")
        if exc.report is not None:
            key = "quantile" if config.task == "quantile" else "report"
            bundle[key] = (_quantile_dict(exc.report)
                           if config.task == "quantile"
                           else _report_dict(exc.report))
        bundle["trace"] = _trace_rows(exc.trace)
        return EXIT_BUDGET, bundle
    except MaxLevelsExceeded as exc:
        bundle = _bundle(config, "ladder_failed")
        bundle["trace"] = _trace_rows(exc.trace)
        return EXIT_LADDER, bundle
    except SimulatorError as exc:
        bundle = _bundle(config, "simulator_failed")
        bundle["error"] = str(exc)
        bundle["failed_indices"] = list(exc.indices)
        return EXIT_SIMULATOR, bundle
    finally:
        if model is not None and model.pool is not None:
            model.pool.close()


def _dispatch(config, model, rng):
    if config.task in ("prob", "cvar"):
        report, trace, sample = estimate_to_precision(
            model, config.gamma, config.precision, rng, budget=config.budget,
            confidence=config.confidence, max_levels=config.max_levels,
            dimred=config.dimred)
        status = "ok" if report.converged else "zero_hits"
        bundle = _bundle(config, status)
        bundle["report"] = _report_dict(report)
        bundle["selected"] = _selection_list(trace)
        if config.task == "cvar" and not report.zero_hits:
            bundle["cvar"] = _cvar_dict(
                estimate_cvar(sample, confidence=config.confidence),
                speedup=report.speedup)
        bundle["trace"] = _trace_rows(trace)
        return (EXIT_OK if report.converged else EXIT_BUDGET), bundle
    if config.task == "quantile":
        report, trace = estimate_quantile(
            model, config.p, rng, precision=config.precision,
            budget=config.budget, confidence=config.confidence,
            max_levels=config.max_levels, dimred=config.dimred)
        bundle = _bundle(config, "ok")
        bundle["quantile"] = _quantile_dict(report)
        bundle["selected"] = _selection_list(trace)
        bundle["trace"] = _trace_rows(trace)
        return EXIT_OK, bundle
    # strata: ladder for the direction, then the stratified pass
    theta, trace = run_ladder(model, rng, budget=config.budget,
                              gamma=config.gamma, max_levels=config.max_levels,
                              dimred=config.dimred)
    if trace.exploration_runs + config.n_total > config.budget:
        raise BudgetExhausted(
            f"budget of {config.budget} runs leaves no room for "
            f"{config.n_total} stratified runs", trace=trace)
    report, rows = stratified_estimate(
        model, config.gamma, theta, config.strata, config.n_total, rng,
        confidence=config.confidence, runs_exploration=trace.exploration_runs)
    bundle = _bundle(config, "ok" if report.converged else "zero_hits")
    bundle["report"] = _report_dict(report)
    bundle["strata"] = [{k: _json_safe(v) for k, v in row.items()}
                        for row in rows]
    bundle["trace"] = _trace_rows(trace)
    return (EXIT_OK if report.converged else EXIT_BUDGET), bundle


def _fmt(value):
    if value is None:
        return "-"
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _blocks(bundle):
    """Report blocks shared by the table and CSV emitters.

    Each is (title, columns, rows of values, blank line before it in CSV
    when an earlier block precedes it).
    """
    blocks = []
    if "report" in bundle:
        r = bundle["report"]
        blocks.append(("estimate",
                       ("measure", "tail", "prob", "ci_rel", "runs", "speedup"),
                       [(bundle["model"], bundle["tail"], r["estimate"],
                         r["ci_rel"], r["runs_total"], r["speedup"])], False))
    if "quantile" in bundle:
        q = bundle["quantile"]
        blocks.append(("quantile",
                       ("measure", "p", "quantile", "ci_rel", "runs", "speedup"),
                       [(bundle["model"], q["p"], q["quantile"], q["ci_rel"],
                         q["runs_total"], q["speedup"])], False))
    if "cvar" in bundle:
        c = bundle["cvar"]
        blocks.append(("cvar", ("gamma", "cvar", "ci_rel", "runs", "speedup"),
                       [(c["gamma"], c["cvar"], c["ci_rel"], c["runs"],
                         c["speedup"])], False))
    for title in ("strata", "trace"):
        if bundle.get(title):
            rows = bundle[title]
            blocks.append((title, tuple(rows[0]),
                           [tuple(row.values()) for row in rows], True))
    return blocks


def _emit_table(bundle):
    lines = [f"task={bundle['task']} model={bundle['model']} "
             f"tail={bundle['tail']} seed={bundle['seed']} status={bundle['status']}"]
    for title, columns, rows, _ in _blocks(bundle):
        cells = [[_fmt(v) for v in row] for row in rows]
        widths = [max(len(c), *(len(row[i]) for row in cells))
                  for i, c in enumerate(columns)]
        lines.append(title)
        lines.append(" | ".join(c.ljust(w) for c, w in zip(columns, widths)))
        lines.append("-+-".join("-" * w for w in widths))
        for row in cells:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
    return ("\n".join(lines) + "\n").encode()


def _emit_csv(bundle):
    lines = []
    for _, columns, rows, gap in _blocks(bundle):
        if gap and lines:
            lines.append("")
        lines.append(",".join(columns))
        for row in rows:
            lines.append(",".join(_fmt(v) for v in row))
    return ("\n".join(lines) + "\n").encode()


def emit_report(bundle, fmt):
    """Serialize a report bundle; identical bundles give identical bytes."""
    if fmt == "json":
        return (json.dumps(bundle, indent=2) + "\n").encode()
    if fmt == "csv":
        return _emit_csv(bundle)
    if fmt == "table":
        return _emit_table(bundle)
    raise ConfigError(f"format: unknown output format {fmt!r}")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="tailshift",
        description="Rare-event tail estimation by adaptive mean-shift "
                    "importance sampling")
    sub = parser.add_subparsers(dest="task", required=True)
    for task in _TASKS:
        p = sub.add_parser(task)
        p.add_argument("--config", help="JSON config file; flags override it")
        for f in fields(RunConfig):
            if f.name != "task":
                p.add_argument("--" + f.name.replace("_", "-"),
                               type=_field_type(f), choices=_CHOICES.get(f.name),
                               help=_HELP.get(f.name))
    return parser


def _check_file_value(f, value):
    if value is None and type(None) in get_args(f.type):
        return
    want = _field_type(f)
    # JSON has one number type: a whole number may set a float field
    accepted = (int, float) if want is float else want
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(
            f"{f.name}: config file value must be {want.__name__}, got {value!r}")


def load_config(args):
    """Resolve the run configuration: defaults, then file, then flags.

    The subcommand always sets the task, whatever the file says.
    """
    values = {}
    if args.config:
        try:
            with open(args.config) as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"config: cannot read {args.config!r}: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config: invalid JSON in {args.config!r}: {exc}")
        if not isinstance(file_values, dict):
            raise ConfigError("config: file must hold a JSON object")
        known = {f.name: f for f in fields(RunConfig)}
        for key, value in file_values.items():
            if key not in known:
                raise ConfigError(f"config: unknown field {key!r}")
            _check_file_value(known[key], value)
            values[key] = value
    for f in fields(RunConfig):
        flag = getattr(args, f.name, None)
        if flag is not None:
            values[f.name] = flag
    config = RunConfig(**values)
    config.validate()
    return config


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = load_config(args)
        code, bundle = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TailshiftError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    payload = emit_report(bundle, config.format)
    if config.out:
        with open(config.out, "wb") as fh:
            fh.write(payload)
    else:
        sys.stdout.buffer.write(payload)
        sys.stdout.buffer.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
