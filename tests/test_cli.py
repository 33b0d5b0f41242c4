import json
import math
import os
import re
import stat
import textwrap

import numpy as np
import pytest

import oracles
from test_model import started  # noqa: F401, a fixture
from test_multilevel import CAPPED_AT_3
from tailshift import ConfigError, DegenerateBatch, DomainError
from tailshift.cli import (EXIT_BUDGET, EXIT_CONFIG, EXIT_ERROR, EXIT_LADDER,
                           EXIT_OK, EXIT_SIMULATOR, RunConfig, emit_report,
                           load_config, main, run)
from tailshift.multilevel import FINAL_BATCH, level_size, z_value

LINEAR_SIM = """\
#!/usr/bin/env python3
import sys
while True:
    header = sys.stdin.readline()
    if not header:
        break
    n, d = map(int, header.split()[1:])
    for _ in range(n):
        vals = [float(v) for v in sys.stdin.readline().split()]
        print("%.17g" % sum(vals))
    sys.stdout.flush()
"""


README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")


def write_sim(tmp_path, body=LINEAR_SIM, name="sim.py"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    return f"python3 {path}"


def run_main(tmp_path, args):
    out = tmp_path / "report.out"
    code = main(args + ["--out", str(out)])
    return code, out.read_bytes()


class TestConfigValidation:
    @pytest.mark.parametrize("seed", [-1, 2 ** 32])
    def test_seed_outside_one_word_rejected(self, seed):
        with pytest.raises(ConfigError, match="seed"):
            RunConfig(task="prob", gamma=1.0, seed=seed).validate()

    def test_missing_gamma(self):
        with pytest.raises(ConfigError, match="gamma"):
            RunConfig(task="prob").validate()

    def test_quantile_needs_p(self):
        with pytest.raises(ConfigError, match="p:"):
            RunConfig(task="quantile").validate()

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="model"):
            RunConfig(task="prob", gamma=1.0, model="builtin:nope").build_model()

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"model": "builtin:identity", "dim": 1,
                                   "gamma": 0.5, "seed": 3, "format": "json"}))
        code, payload = run_main(tmp_path, ["prob", "--config", str(cfg),
                                            "--seed", "4"])
        assert code == EXIT_OK
        bundle = json.loads(payload)
        assert bundle["seed"] == 4
        assert bundle["config"]["gamma"] == 0.5

    def test_config_file_unknown_field(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gamm": 0.5}))
        code = main(["prob", "--config", str(cfg)])
        assert code == EXIT_CONFIG

    # settings replaced by a rule (n_per_level) or a constant (the rest)
    REMOVED_SETTINGS = ["n_per_level", "batch", "dimred_max", "dimred_energy",
                        "pilot", "rho"]

    @pytest.mark.parametrize("name", REMOVED_SETTINGS)
    def test_removed_setting_flag_rejected(self, capsys, name):
        flag = "--" + name.replace("_", "-")
        with pytest.raises(SystemExit) as err:
            main(["prob", "--gamma", "1.0", flag, "1"])
        assert err.value.code == EXIT_CONFIG
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize("name", REMOVED_SETTINGS)
    def test_removed_setting_in_config_file(self, capsys, tmp_path, name):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gamma": 1.0, name: 1}))
        code = main(["prob", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            f"config error: config: unknown field {name!r}\n")

    def test_readme_flag_table_has_one_row_per_field(self):
        from dataclasses import fields
        with open(README) as fh:
            rows = [line.split("|")[1] for line in fh
                    if line.startswith("| `--")]
        # a row may document two flags, as "`--gamma` / `--p`"
        documented = [flag.strip().strip("`")[2:].replace("-", "_")
                      for row in rows for flag in row.split("/")]
        assert sorted(documented) == sorted(
            f.name for f in fields(RunConfig) if f.name != "task")

    def test_readme_names_every_ladder_setting(self):
        import inspect
        from dataclasses import fields
        from tailshift import run_ladder
        with open(README) as fh:
            text = " ".join(fh.read().split())
        sentence = re.search(r"`run_ladder` takes the (\w+) ladder settings "
                             r"of `RunConfig` \(([^)]*)\)", text)
        settings = {name: param.default for name, param
                    in inspect.signature(run_ladder).parameters.items()
                    if param.kind is param.KEYWORD_ONLY}
        count = ("one", "two", "three", "four", "five", "six")[
            len(settings) - 1]
        assert sentence.group(1) == count
        assert re.findall(r"`(\w+)`", sentence.group(2)) == list(settings)
        # run_ladder's signature and RunConfig hold the only two defaults
        defaults = {f.name: f.default for f in fields(RunConfig)}
        for name, default in settings.items():
            assert defaults[name] == default

    def test_readme_export_list_names_the_package_surface(self):
        import inspect
        import tailshift
        with open(README) as fh:
            text = fh.read()
        block = text.split("The package exports, by module:\n\n")[1]
        block = " ".join(block.split("\n\n")[0].split())
        documented = {}
        for item in block.split("- ")[1:]:
            module, names = item.split(":", 1)
            # parentheses describe a name; they do not list one
            names = re.findall(r"`(\w+)`", re.sub(r"\([^)]*\)", "", names))
            documented[module.strip("` ")] = names
        errors = tailshift.errors
        assert documented.pop("errors") == ["TailshiftError"]
        documented["errors"] = [
            name for name, obj in vars(errors).items() if inspect.isclass(obj)
            and issubclass(obj, errors.TailshiftError)]
        public = {name for name, obj in vars(tailshift).items()
                  if not name.startswith("_") and not inspect.ismodule(obj)}
        listed = [name for names in documented.values() for name in names]
        assert sorted(listed) == sorted(public)
        for module, names in documented.items():
            for name in names:
                assert getattr(tailshift, name).__module__ == (
                    f"tailshift.{module}")

    def test_readme_library_sketch_runs(self):
        with open(README) as fh:
            section = fh.read().split("## Library sketch\n")[1]
        code = section.split("```python\n")[1].split("```")[0]
        exec(compile(code, "README library sketch", "exec"), {})

    def test_subcommand_overrides_task_in_config_file(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"task": "cvar", "gamma": 2.0}))
        code, payload = run_main(tmp_path, ["prob", "--config", str(cfg),
                                            "--format", "json"])
        assert code == EXIT_OK
        bundle = json.loads(payload)
        assert bundle["task"] == "prob"
        assert "cvar" not in bundle

    @pytest.mark.parametrize("field, value", [
        ("dim", "3"), ("dim", 2.5), ("dim", True), ("gamma", "2.0"),
        ("gamma", False), ("model", 5), ("seed", None),
        ("tail", "sideways"), ("format", "sideways")])
    def test_config_file_wrong_type(self, capsys, tmp_path, field, value):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gamma": 1.0, field: value}))
        code = main(["prob", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"config error: {field}:")

    def test_config_file_int_for_float_field(self, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"gamma": 1, "p": None}))
        code, _ = run_main(tmp_path, ["prob", "--config", str(cfg)])
        assert code == EXIT_OK

    @pytest.mark.parametrize("argv", [
        ["quantile", "--p", "1e-3", "--gamma", "nan"],
        ["quantile", "--p", "1e-3", "--gamma", "inf"],
        ["prob", "--gamma", "2.0", "--p", "inf"]])
    def test_non_finite_unused_value_rejected(self, capsys, argv):
        code = main(argv + ["--format", "json"])
        assert code == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {argv[-2][2:]}:")

    @pytest.mark.parametrize("out", ["missing/report.txt", "."])
    def test_unusable_out_path(self, capsys, tmp_path, out):
        # a missing parent directory, or a path that is itself a directory
        code = main(["prob", "--gamma", "2.0", "--out", str(tmp_path / out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: out:")
        assert not (tmp_path / "missing").exists()

    def test_every_generated_flag_reaches_run_config(self):
        from dataclasses import fields
        from tailshift.cli import _build_parser
        sample = {"model": "builtin:linear", "dim": 12, "tail": "left",
                  "gamma": -2.5, "p": 0.25, "precision": 0.2,
                  "confidence": 0.9, "max_levels": 7,
                  "budget": 5000, "seed": 9, "workers": 2, "dimred": "off",
                  "strata": 4, "n_total": 800, "format": "csv",
                  "out": "report.csv"}
        assert set(sample) == {f.name for f in fields(RunConfig)} - {"task"}
        argv = ["cvar"]
        for name, value in sample.items():
            argv += ["--" + name.replace("_", "-"), str(value)]
        config = load_config(_build_parser().parse_args(argv))
        assert config == RunConfig(task="cvar", **sample)

    @pytest.mark.parametrize("flag, value", [
        ("--dim", "0"), ("--precision", "1.0"), ("--confidence", "0"),
        ("--max-levels", "0"),
        ("--budget", "0"), ("--workers", "0"), ("--strata", "1"),
        ("--n-total", "39")])
    def test_setting_out_of_range(self, capsys, flag, value):
        code = main(["prob", "--gamma", "1.0", flag, value])
        assert code == EXIT_CONFIG
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err.startswith(f"config error: {name}:")

    @pytest.mark.parametrize("text", [None, "{gamma: 1}", "[1.0]"],
                             ids=["missing", "not-json", "not-an-object"])
    def test_unusable_config_file(self, capsys, tmp_path, text):
        cfg = tmp_path / "run.json"
        if text is not None:
            cfg.write_text(text)
        code = main(["prob", "--config", str(cfg)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("config error: config:")

    def test_workers_has_no_environment_source(self, monkeypatch, tmp_path):
        monkeypatch.setenv("TAILSHIFT_WORKERS", "3")
        code, payload = run_main(tmp_path, ["prob", "--gamma", "1",
                                            "--format", "json"])
        assert code == EXIT_OK
        assert json.loads(payload)["config"]["workers"] == 1


class TestProbPipeline:
    def test_linear_end_to_end(self, tmp_path):
        model_norm = np.sqrt(10.0 + 100 * 0.01 ** 2)
        gamma = model_norm * oracles.tail_quantile("2.8e-5")
        code, payload = run_main(tmp_path, [
            "prob", "--model", "builtin:linear", "--dim", "110",
            "--gamma", f"{gamma:.17g}", "--seed", "2", "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(payload)["report"]
        assert report["converged"]
        assert report["ci_rel"] <= 0.10
        assert report["runs_final"] % 1000 == 0
        half = report["ci_rel"] * report["estimate"]
        assert abs(report["estimate"] - 2.8e-5) <= half

    def test_budget_exhausted_flagged(self, tmp_path):
        code, payload = run_main(tmp_path, [
            "prob", "--model", "builtin:identity", "--gamma", "4.0",
            "--precision", "0.001", "--budget", "6000", "--seed", "0",
            "--format", "json"])
        assert code == EXIT_BUDGET
        bundle = json.loads(payload)
        assert bundle["status"] == "budget_exhausted"
        assert bundle["report"]["converged"] is False

    def test_trace_rows_match_levels(self, tmp_path):
        code, payload = run_main(tmp_path, [
            "prob", "--model", "builtin:identity", "--gamma", "3.0",
            "--seed", "2", "--format", "json"])
        bundle = json.loads(payload)
        trace = bundle["trace"]
        assert len(trace) >= 2
        assert [row["iteration"] for row in trace] == list(
            range(1, len(trace) + 1))
        gammas = [row["gamma"] for row in trace]
        assert all(a < b for a, b in zip(gammas, gammas[1:]))
        assert gammas[-1] == 3.0

    def test_trace_ci_is_95_percent_at_any_confidence(self):
        # the ci95_rel column is the 95% half-width whatever --confidence says
        traces = []
        for confidence in (0.95, 0.99):
            _, bundle = run(RunConfig(task="prob", gamma=4.0,
                                      confidence=confidence, seed=5))
            traces.append(bundle["trace"])
        assert traces[0] == traces[1]


    @pytest.mark.parametrize("args", [
        ["prob", "--gamma", "-5"],
        ["strata", "--gamma", "-3", "--strata", "4", "--n-total", "800"]],
        ids=["prob", "strata"])
    def test_near_certain_event_has_no_negative_speedup(self, tmp_path,
                                                        args):
        # importance weights carry the estimate of a near-certain event
        # above 1; plain MC would need no run there, not a negative count
        code, payload = run_main(tmp_path, args + ["--format", "json"])
        report = json.loads(payload)["report"]
        assert report["estimate"] > 1.0
        assert report["speedup"] == 0.0


class TestLadderBudget:
    @pytest.mark.parametrize("target", [["prob", "--gamma", "6.0"],
                                        ["quantile", "--p", "1e-8"],
                                        ["strata", "--gamma", "6.0"]],
                             ids=["prob", "quantile", "strata"])
    def test_ladder_stops_at_the_budget(self, tmp_path, target):
        # one level fits, the second would cross the budget
        budget = 3 * level_size(1) // 2
        code, payload = run_main(tmp_path, target + [
            "--model", "builtin:identity", "--budget", str(budget),
            "--seed", "0", "--format", "json"])
        assert code == EXIT_BUDGET
        bundle = json.loads(payload)
        assert bundle["status"] == "budget_exhausted"
        assert len(bundle["trace"]) == 1
        runs = [sum(row["runs"] for row in bundle["trace"])]
        runs += [bundle[key]["runs_total"] for key in ("report", "quantile")
                 if key in bundle]
        assert max(runs) <= budget

    def test_strata_pass_stays_inside_the_budget(self, tmp_path):
        # the ladder fits the budget but the stratified pass would cross it
        code, payload = run_main(tmp_path, [
            "strata", "--model", "builtin:identity", "--gamma", "1.5",
            "--budget", "2000", "--n-total", "10000", "--seed", "0",
            "--format", "json"])
        assert code == EXIT_BUDGET
        bundle = json.loads(payload)
        assert bundle["status"] == "budget_exhausted"
        assert "report" not in bundle and "strata" not in bundle
        assert 1 <= len(bundle["trace"]) <= 2
        assert sum(row["runs"] for row in bundle["trace"]) <= 2000

    @pytest.mark.parametrize("task", ["prob", "cvar"])
    def test_no_report_when_no_final_batch_fits(self, tmp_path, task):
        # the ladder spends 400 runs and no 1000-run batch fits in 500:
        # no final run was drawn, so no estimate is reported
        code, payload = run_main(tmp_path, [
            task, "--gamma", "4", "--budget", "500", "--format", "json"])
        assert code == EXIT_BUDGET
        bundle = json.loads(payload)
        assert bundle["status"] == "budget_exhausted"
        assert "report" not in bundle and "cvar" not in bundle
        assert len(bundle["trace"]) == 4
        assert sum(row["runs"] for row in bundle["trace"]) == 400


class TestQuantilePipeline:
    def test_identity_quantile(self, tmp_path):
        code, payload = run_main(tmp_path, [
            "quantile", "--model", "builtin:identity", "--p", "1e-4",
            "--seed", "1", "--format", "json"])
        assert code == EXIT_OK
        q = json.loads(payload)["quantile"]
        assert q["quantile"] == pytest.approx(3.7190, abs=0.05)


class TestCvarPipeline:
    def test_identity_cvar(self, tmp_path):
        code, payload = run_main(tmp_path, [
            "cvar", "--model", "builtin:identity", "--gamma", "1.5",
            "--seed", "1", "--format", "json"])
        assert code == EXIT_OK
        bundle = json.loads(payload)
        assert bundle["cvar"]["cvar"] == pytest.approx(
            oracles.mills_cvar(1.5), abs=0.05)
        assert bundle["cvar"]["runs"] == bundle["report"]["runs_final"]


class TestStrataPipeline:
    def test_strata_rows(self, tmp_path):
        code, payload = run_main(tmp_path, [
            "strata", "--model", "builtin:identity", "--gamma", "1.5",
            "--strata", "10", "--n-total", "4003", "--seed", "1",
            "--format", "json"])
        assert code == EXIT_OK
        bundle = json.loads(payload)
        rows = bundle["strata"]
        # equal counts; the first 4003 % 10 slabs take one run more
        assert [r["count"] for r in rows] == [401] * 3 + [400] * 7
        # the interval is built from the dev column: sum p^2 dev^2 / count
        se = math.sqrt(sum(r["prob"] ** 2 * r["dev"] ** 2 / r["count"]
                           for r in rows))
        half = bundle["report"]["ci_rel"] * bundle["report"]["estimate"]
        assert half == pytest.approx(z_value(0.95) * se, rel=1e-12)
        assert abs(bundle["report"]["estimate"] - 0.0668072) <= 4 * half


class TestEmission:
    def test_same_seed_byte_identical(self, tmp_path):
        args = ["prob", "--model", "builtin:identity", "--gamma", "2.5",
                "--seed", "7", "--format", "json"]
        _, a = run_main(tmp_path, args)
        _, b = run_main(tmp_path, args)
        assert a == b

    def test_formats_emit(self, tmp_path):
        for fmt in ("table", "csv", "json"):
            code, payload = run_main(tmp_path, [
                "prob", "--model", "builtin:identity", "--gamma", "2.0",
                "--seed", "0", "--format", fmt])
            assert code == EXIT_OK
            assert payload

    def test_csv_trace_block(self, tmp_path):
        _, payload = run_main(tmp_path, [
            "prob", "--model", "builtin:identity", "--gamma", "3.0",
            "--seed", "2", "--format", "csv"])
        text = payload.decode()
        assert "iteration,runs,gamma,estimate,ci95_rel" in text
        assert text.startswith("measure,tail,prob,ci_rel,runs,speedup")

    CSV_HEADERS = ("measure,tail,prob,ci_rel,runs,speedup",
                   "measure,p,quantile,ci_rel,runs,speedup",
                   "gamma,cvar,ci_rel,runs,speedup",
                   "prob,count,dev,mean",
                   "iteration,runs,gamma,estimate,ci95_rel")

    @pytest.mark.parametrize("target", [
        ["prob", "--gamma", "2.0"],
        ["prob", "--gamma", "6.0", "--budget", "1500"],
        ["prob", "--gamma", "50.0", "--max-levels", "2"],
        ["quantile", "--p", "1e-3"],
        ["quantile", "--p", "1e-12", "--max-levels", "2"],
        ["cvar", "--gamma", "1.5"],
        ["strata", "--gamma", "1.5", "--strata", "4", "--n-total", "800"],
    ], ids=["prob", "prob-ladder-budget", "prob-max-levels", "quantile",
            "quantile-max-levels", "cvar", "strata"])
    def test_csv_starts_with_a_header(self, tmp_path, target):
        # a report without an estimate block opens with its trace block
        _, payload = run_main(tmp_path, target + [
            "--model", "builtin:identity", "--seed", "0", "--format", "csv"])
        first = payload.decode().split("\n", 1)[0]
        assert first in self.CSV_HEADERS

    def test_non_finite_becomes_null_in_json(self):
        bundle = {"task": "prob", "model": "m", "tail": "right", "seed": 0,
                  "status": "x",
                  "report": {"estimate": 0.0, "ci_rel": None,
                             "runs_total": 1}}
        payload = emit_report(bundle, "json")
        assert b"null" in payload


class TestExternalModel:
    def test_exec_model_end_to_end(self, tmp_path):
        command = write_sim(tmp_path)
        # sum of 4 standard normals: norm 2, so gamma = 2 * 2.5
        code, payload = run_main(tmp_path, [
            "prob", "--model", f"exec:{command}", "--dim", "4",
            "--gamma", "5.0", "--seed", "3", "--format", "json"])
        assert code == EXIT_OK
        report = json.loads(payload)["report"]
        p = oracles.normal_tail(2.5)
        half = report["ci_rel"] * report["estimate"]
        assert abs(report["estimate"] - p) <= 1.6 * half

    def test_worker_count_invariance(self, tmp_path):
        command = write_sim(tmp_path)
        outs = []
        for workers in ("1", "3"):
            _, payload = run_main(tmp_path, [
                "prob", "--model", f"exec:{command}", "--dim", "4",
                "--gamma", "5.0", "--seed", "3", "--workers", workers,
                "--format", "json"])
            bundle = json.loads(payload)
            bundle["config"]["workers"] = None
            outs.append(json.dumps(bundle))
        assert outs[0] == outs[1]

    def test_dead_simulator_exit_code(self, tmp_path):
        command = write_sim(tmp_path, body="#!/usr/bin/env python3\n",
                            name="dead.py")
        code, payload = run_main(tmp_path, [
            "prob", "--model", f"exec:{command}", "--dim", "2",
            "--gamma", "1.0", "--seed", "0", "--format", "json"])
        assert code == EXIT_SIMULATOR
        assert json.loads(payload)["status"] == "simulator_failed"

    @pytest.mark.parametrize("model", ["exec:", "exec: "])
    def test_empty_exec_command_is_a_config_error(self, capsys, started,
                                                  model):
        code = main(["prob", "--model", model, "--gamma", "1"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: external model requires a command\n")
        assert not started

    def test_unbalanced_quote_in_exec_command_is_a_config_error(
            self, capsys, started):
        code = main(["prob", "--model", 'exec:"python3', "--gamma", "1"])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "config error: cannot parse external model command '\"python3': "
            "No closing quotation\n")
        assert not started


# an exec: simulator whose response is always 0
CONSTANT_SIM = """\
import sys
while True:
    header = sys.stdin.readline()
    if not header:
        break
    n, d = map(int, header.split()[1:])
    for _ in range(n):
        sys.stdin.readline()
        print("0")
    sys.stdout.flush()
"""


class TestSimulatorsStop:
    """``run`` starts an exec: model's simulators and stops them however
    the run ends."""

    @staticmethod
    def assert_stopped(started, workers):
        assert len(started) == workers
        for proc in started:
            assert proc.poll() is not None
            assert proc.stdin.closed and proc.stdout.closed

    @pytest.mark.parametrize("body, settings, code", [
        (LINEAR_SIM, {"dim": 4, "gamma": 5.0}, EXIT_OK),
        # the ladder's two levels leave less than one final batch of the
        # budget
        (LINEAR_SIM, {"dim": 4, "gamma": 5.0,
                      "budget": 2 * level_size(4) + FINAL_BATCH // 2},
         EXIT_BUDGET),
        ("#!/usr/bin/env python3\n", {"dim": 2, "gamma": 1.0},
         EXIT_SIMULATOR),
        (CAPPED_AT_3, {"dim": 2, "gamma": 4.0}, EXIT_LADDER),
    ], ids=["ok", "budget", "simulator", "ladder"])
    def test_every_exit_code(self, tmp_path, started, body, settings, code):
        command = write_sim(tmp_path, body=body)
        got, _ = run(RunConfig(task="prob", model=f"exec:{command}",
                               seed=0, workers=2, **settings))
        assert got == code
        self.assert_stopped(started, 2)

    def test_engine_error_out_of_run(self, tmp_path, started):
        command = write_sim(tmp_path, body=CONSTANT_SIM)
        with pytest.raises(DegenerateBatch):
            run(RunConfig(task="prob", model=f"exec:{command}", dim=2,
                          gamma=1.0, seed=0, workers=2))
        self.assert_stopped(started, 2)

    def test_model_refused_after_its_pool_started(self, tmp_path, started):
        # unvalidated, the model itself refuses dim 0 once the pool is up
        command = write_sim(tmp_path)
        with pytest.raises(DomainError):
            RunConfig(model=f"exec:{command}", dim=0, workers=2).build_model()
        self.assert_stopped(started, 2)


class TestLadderFailureExit:
    @pytest.mark.parametrize("target", [["prob", "--gamma", "50.0"],
                                        ["quantile", "--p", "1e-12"]],
                             ids=["prob", "quantile"])
    def test_max_levels_exit_code(self, tmp_path, target):
        code, payload = run_main(tmp_path, target + [
            "--model", "builtin:identity",
            "--max-levels", "2", "--seed", "0", "--format", "json"])
        assert code == EXIT_LADDER
        bundle = json.loads(payload)
        assert bundle["status"] == "ladder_failed"
        assert len(bundle["trace"]) == 2

    def test_stalled_ladder_exit_code(self, tmp_path):
        command = write_sim(tmp_path, body=CAPPED_AT_3, name="capped.py")
        code, bundle = run(RunConfig(task="prob", model=f"exec:{command}",
                                     dim=2, gamma=4.0, seed=0))
        assert code == EXIT_LADDER
        assert bundle["status"] == "ladder_failed"
        assert len(bundle["trace"]) == 6


class TestUnderflowExit:
    # below p = 1.5e-154, p^2 is below the smallest normal double and
    # squared weights underflow, whether p is a ladder level's estimate, the
    # final estimate, the quantile's p or the CVaR's p
    @pytest.mark.parametrize("target, max_levels",
                             [(["prob", "--gamma", "30"], 60),
                              (["strata", "--gamma", "30"], 60),
                              (["cvar", "--gamma", "30"], 60),
                              (["quantile", "--p", "1e-200"], 60),
                              (["prob", "--gamma", "40"], 80)],
                             ids=["prob-30", "strata-30", "cvar-30",
                                  "quantile-1e-200", "prob-40-ladder"])
    def test_underflow_fails_loudly(self, capsys, tmp_path, target,
                                    max_levels):
        out = tmp_path / "report.out"
        code = main(target + ["--max-levels", str(max_levels), "--out",
                              str(out)])
        assert code == EXIT_ERROR
        captured = capsys.readouterr()
        assert re.fullmatch(r"error: probability \S+ is too small: p\^2 "
                            r"underflows double precision\n", captured.err)
        assert captured.out == "" and not out.exists()

    def test_prob_at_gamma_25_is_still_estimated(self, tmp_path):
        code, payload = run_main(tmp_path, [
            "prob", "--gamma", "25", "--max-levels", "60", "--format",
            "json"])
        assert code == EXIT_OK
        report = json.loads(payload)["report"]
        half = report["ci_rel"] * report["estimate"]
        assert 0.0 < half
        assert abs(report["estimate"] - oracles.normal_tail(25.0)) <= half

    @pytest.mark.parametrize("gamma", ["23", "25"])
    def test_cvar_is_estimated(self, tmp_path, gamma):
        # p = 2.3e-117 and 3.1e-138: p^3 underflows to zero at both
        code, payload = run_main(tmp_path, [
            "cvar", "--gamma", gamma, "--max-levels", "60", "--format",
            "json"])
        assert code == EXIT_OK
        cvar = json.loads(payload)["cvar"]
        half = cvar["ci_rel"] * cvar["cvar"]
        assert 0.0 < half
        assert abs(cvar["cvar"] - oracles.mills_cvar(float(gamma))) <= half


class TestDrawThreads:
    @pytest.mark.parametrize("dim, gamma", [(110, 12.74), (1010, 13.0)])
    def test_report_bytes_do_not_depend_on_draw_threads(self, monkeypatch,
                                                        dim, gamma):
        from concurrent.futures import ThreadPoolExecutor
        from tailshift import core
        config = RunConfig(task="prob", model="builtin:linear", dim=dim,
                           gamma=gamma, seed=3, format="json")
        payloads = []
        for threads in (1, 2, 3):
            with ThreadPoolExecutor(max_workers=threads) as pool:
                monkeypatch.setattr(core, "_block_pool", pool)
                code, bundle = run(config)
            assert code == EXIT_OK
            payloads.append(emit_report(bundle, "json"))
        assert payloads[0] == payloads[1] == payloads[2]
