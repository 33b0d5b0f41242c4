"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every expected value is produced by an independent oracle
(mpmath closed forms, order statistics, brute-force replication); tolerances
are fixed here, not tuned.
"""

import math
import os
import stat
import textwrap

import numpy as np
import pytest
from scipy import stats

import oracles
from test_coverage import coverage_bound
from tailshift import (LadderConfig, ModelSpec, RngStream, WeightedBatch,
                       draw_tail_sample, estimate_cvar, estimate_quantile,
                       estimate_to_precision, log_objective,
                       log_objective_gradient, log_objective_hessian,
                       report_from_sample, response_values, run_ladder,
                       select_important, stratified_estimate)
from tailshift.cli import RunConfig, emit_report, run
from tailshift.multilevel import next_level

# every ladder trace produced anywhere in this suite lands here and is
# health-checked on arrival; criterion 6 asserts over the collection
LADDER_TRACES = []


def register_trace(trace):
    for level in trace.levels:
        assert level.newton_iterations <= 50
    LADDER_TRACES.append(trace)
    return trace


def report_line(criterion, detail):
    print(f"[criterion {criterion:02d}] PASS  {detail}")


def linear_family_gamma(noise_dim, p):
    model = ModelSpec.linear_family(10 + noise_dim)
    norm = np.linalg.norm(model.coefficient_stack())
    return model, norm * oracles.tail_quantile(p)


def pipeline(model, gamma, seed, budget, dimred="auto"):
    config = LadderConfig(dimred=dimred)
    report, trace, sample = estimate_to_precision(
        model, gamma, config, 0.10, RngStream(seed), budget=budget)
    register_trace(trace)
    return report, trace, sample


def test_criterion_01_dimension_robustness_echo():
    """Linear family at true p = 2.8e-5: 10% CI within 20k runs, 18/20 cover."""
    for noise_dim in (100, 1000):
        model, gamma = linear_family_gamma(noise_dim, "2.8e-5")
        covered = 0
        for seed in range(20):
            report, _, _ = pipeline(model, gamma, seed, budget=20_000)
            assert report.converged
            assert report.rel_half_width <= 0.10
            assert report.runs_total <= 20_000
            covered += (abs(report.estimate - 2.8e-5)
                        <= report.rel_half_width * report.estimate)
        assert covered >= 18
        report_line(1, f"|B|={noise_dim}: coverage {covered}/20 at <=20000 runs")


def test_criterion_02_very_rare_regime():
    """True p near 1.25e-9: ladder depth <= 12, 9/10 coverage, <= 30k runs."""
    model, gamma = linear_family_gamma(100, "1.25e-9")
    p_true = 1.25e-9
    covered = 0
    max_levels = 0
    for seed in range(10):
        report, trace, _ = pipeline(model, gamma, seed, budget=30_000,
                                    dimred="on")
        assert report.runs_total <= 30_000
        max_levels = max(max_levels, len(trace.levels))
        covered += (abs(report.estimate - p_true)
                    <= report.rel_half_width * report.estimate)
    assert max_levels <= 12
    assert covered >= 9
    report_line(2, f"coverage {covered}/10, deepest ladder {max_levels} levels")


def test_criterion_03_toy_cvar_variances():
    """Unshifted toy at gamma = 1.5: sigma^2 near 2, sigma_bar^2 near 54."""
    model = ModelSpec.identity(1)
    n = 1_000_000
    sample = draw_tail_sample(model, 1.5, np.zeros(1), n, RngStream(3, 77))
    report = estimate_cvar(sample)
    assert abs(report.sigma_sq - 2.0) <= 0.15 * 2.0
    _, sigma_bar = oracles.estimate_cvar_unnormalized(
        sample, oracles.normal_tail(1.5))
    assert abs(sigma_bar - 54.0) <= 0.15 * 54.0
    cvar_true = oracles.mills_cvar(1.5)
    assert cvar_true == pytest.approx(1.9387, abs=1e-4)
    se = math.sqrt(report.sigma_sq / n)
    assert abs(report.cvar - cvar_true) <= 3 * se
    report_line(3, f"sigma_sq={report.sigma_sq:.3f}, sigma_bar_sq={sigma_bar:.1f}, "
                   f"cvar={report.cvar:.4f}")


def test_criterion_04_exact_bias_law():
    """Mean of 1e5 replications of the n=5 estimator matches the bias law."""
    gamma, n, reps = 1.5, 5, 100_000
    p = oracles.normal_tail(gamma)
    cvar = oracles.mills_cvar(gamma)
    expected = cvar * (1.0 - (1.0 - p) ** n)
    draws = RngStream(4, 77).generator.standard_normal((reps, n))
    hits = draws >= gamma
    counts = hits.sum(axis=1)
    sums = np.where(hits, draws, 0.0).sum(axis=1)
    per_rep = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
    se = per_rep.std() / math.sqrt(reps)
    assert abs(per_rep.mean() - expected) <= 3 * se
    report_line(4, f"replication mean {per_rep.mean():.4f} vs exact "
                   f"{expected:.4f} (3se={3*se:.4f})")


def test_criterion_05_quantile_inversion():
    """p = 1e-4 quantile: CIs cover the truth at the nominal rate over 50
    seeds; round trips cover p 45/50."""
    model = ModelSpec.identity(1)
    truth = oracles.tail_quantile("1e-4")
    assert truth == pytest.approx(3.71902, abs=1e-5)

    covered = round_trips = 0
    for seed in range(50):
        rng = RngStream(seed)
        rep, trace = estimate_quantile(model, 1e-4, LadderConfig(), rng)
        register_trace(trace)
        covered += (abs(rep.quantile - truth)
                    <= rep.rel_half_width * abs(rep.quantile))
        check = report_from_sample(
            draw_tail_sample(model, rep.quantile, rep.theta, 1000,
                             RngStream(rng.seed, 9_000_000)))
        round_trips += (abs(check.estimate - 1e-4)
                        <= check.rel_half_width * check.estimate)
    assert covered >= coverage_bound(50)
    assert round_trips >= 45
    report_line(5, f"intervals cover the truth {covered}/50, "
                   f"round trips {round_trips}/50")


def probe_batch(seed):
    gen = RngStream(seed, 55).generator
    d = int(gen.integers(2, 5))
    n = int(gen.integers(60, 200))
    points = gen.standard_normal((n, d))
    responses = points.sum(axis=1) / math.sqrt(d)
    level = next_level(responses, 0.2, np.inf)
    batch = WeightedBatch.from_threshold(points, responses, level, np.zeros(n))
    theta = gen.standard_normal(d) * 0.6
    return theta, batch


def fd_gradient(fun, theta, h=1e-5):
    grad = np.zeros_like(theta)
    for i in range(theta.size):
        up, down = theta.copy(), theta.copy()
        up[i] += h
        down[i] -= h
        grad[i] = (fun(up) - fun(down)) / (2 * h)
    return grad


def test_criterion_06_solver_correctness():
    """Derivatives match finite differences; curvature floor; Newton budget."""
    worst_grad = worst_hess = 0.0
    min_eig = np.inf
    for seed in range(100):
        theta, batch = probe_batch(seed)
        grad = log_objective_gradient(theta, batch)
        fd = fd_gradient(lambda t: log_objective(t, batch), theta)
        worst_grad = max(worst_grad,
                         np.linalg.norm(grad - fd) / np.linalg.norm(fd))
        hess = log_objective_hessian(theta, batch)
        direction = RngStream(seed, 56).generator.standard_normal(theta.size)
        fd_h = fd_gradient(
            lambda t: log_objective_gradient(t, batch) @ direction, theta)
        worst_hess = max(worst_hess,
                         np.linalg.norm(hess @ direction - fd_h)
                         / np.linalg.norm(fd_h))
        min_eig = min(min_eig, np.linalg.eigvalsh(hess).min())
    assert worst_grad <= 1e-6
    assert worst_hess <= 1e-6
    assert min_eig >= 1.0 - 1e-9

    # every ladder level run anywhere in this suite converged within budget
    assert LADDER_TRACES, "criteria 1/2/5 must have registered ladder traces"
    levels = sum(len(trace.levels) for trace in LADDER_TRACES)
    assert all(level.newton_iterations <= 50
               for trace in LADDER_TRACES for level in trace.levels)
    report_line(6, f"fd errors grad {worst_grad:.2e} hess {worst_hess:.2e}, "
                   f"min eig {min_eig:.6f}, {levels} ladder levels in budget")


def test_criterion_07_unbiasedness_and_coverage():
    """200 seeds at gamma = 2.5: mean within 3 pooled SE, 90% CI coverage."""
    model = ModelSpec.identity(1)
    gamma = 2.5
    p = oracles.normal_tail(gamma)
    config = LadderConfig()
    m = 1000
    estimates, variances, covered = [], [], 0
    for seed in range(200):
        rng = RngStream(seed)
        theta, trace = run_ladder(model, config, rng, gamma=gamma)
        register_trace(trace)
        report = report_from_sample(
            draw_tail_sample(model, gamma, theta, m,
                             RngStream(rng.seed, 9_100_000)))
        estimates.append(report.estimate)
        se = report.rel_half_width * report.estimate / 1.96
        variances.append(se * se)
        covered += abs(report.estimate - p) <= report.rel_half_width * report.estimate
    pooled_se = math.sqrt(sum(variances)) / len(estimates)
    assert abs(np.mean(estimates) - p) <= 3 * pooled_se
    assert covered >= 0.90 * 200
    report_line(7, f"mean {np.mean(estimates):.5e} vs {p:.5e} "
                   f"(3 pooled se {3*pooled_se:.2e}), coverage {covered}/200")


def test_criterion_08_stratification():
    """Conditional sampler law, variance halving."""
    # truncated-normal law at the 1% level on 1e5 draws
    from tailshift.stratified import _conditional_rows
    draws = _conditional_rows(np.array([1.0]), 0.8, 2.3, 100_000,
                              RngStream(8, 77))
    result = stats.kstest(
        draws[:, 0],
        lambda x: np.array([oracles.truncated_cdf(v, 0.8, 2.3)
                            for v in np.atleast_1d(x)]))
    assert result.pvalue >= 0.01

    # stratifying along the solved shift halves the variance against
    # importance sampling alone at the same budget
    model = ModelSpec.linear_family(12)
    gamma = 1.5 * np.linalg.norm(model.coefficient_stack())
    wins = 0
    for seed in range(10):
        rng = RngStream(seed)
        theta, trace = run_ladder(model, LadderConfig(), rng, gamma=gamma)
        register_trace(trace)
        is_est, st_est = [], []
        for rep in range(20):
            r = report_from_sample(
                draw_tail_sample(model, gamma, theta, 1000,
                                 RngStream(rng.seed, 7_000_000 + rep)))
            is_est.append(r.estimate)
            sr, _ = stratified_estimate(model, gamma, theta, 20, 1000,
                                        RngStream(rng.seed, 8_000_000 + rep))
            st_est.append(sr.estimate)
        wins += np.var(st_est) <= 0.5 * np.var(is_est)
    assert wins >= 8
    report_line(8, f"ks p={result.pvalue:.3f}, "
                   f"variance halved in {wins}/10 seeds")


def test_criterion_09_dimension_reduction():
    """The 10 dominant coordinates selected from one 1000-point pilot."""
    model = ModelSpec.linear_family(1010)
    recovered = 0
    for seed in range(50):
        noise = RngStream(seed, 1001).generator.standard_normal((1000, 1010))
        responses = response_values(model, noise)
        level = next_level(responses, 0.10, np.inf)
        batch = WeightedBatch.from_threshold(noise, responses, level,
                                             np.zeros(1000))
        selection = select_important(batch, max_dim=200, energy=0.99)
        recovered += set(range(10)) <= set(selection.indices.tolist())
    assert recovered >= int(0.95 * 50)
    report_line(9, f"dominant subset recovered in {recovered}/50 pilots")


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


def test_criterion_10_determinism(tmp_path):
    """Identical (config, seed) gives byte-identical reports at any workers."""
    # builtin model: full JSON byte equality across reruns
    config = RunConfig(task="prob", model="builtin:linear", dim=110,
                       gamma=12.74, seed=11, format="json")
    payloads = [emit_report(run(config)[1], "json") for _ in range(2)]
    assert payloads[0] == payloads[1]

    # external model: CSV report (no config echo) across worker counts
    path = tmp_path / "sim.py"
    path.write_text(textwrap.dedent(LINEAR_SIM))
    os.chmod(path, os.stat(path).st_mode | stat.S_IXUSR)
    csvs = []
    for workers in (1, 3):
        cfg = RunConfig(task="prob", model=f"exec:python3 {path}", dim=4,
                        gamma=5.0, seed=11, workers=workers, format="csv")
        code, bundle = run(cfg)
        assert code == 0
        csvs.append(emit_report(bundle, "csv"))
    assert csvs[0] == csvs[1]
    report_line(10, "byte-identical reports across reruns and worker counts")
