"""The streaming final phase stops where a full re-reduction stops.

``estimate_to_precision`` and ``estimate_quantile`` test each batch from
running state and reduce the pooled sample only when that state allows a
stop.  The reference loops here re-reduce the whole pooled sample after
every batch instead; both must stop on the same batch with the same report.
"""

import dataclasses
import math

import numpy as np
import pytest

import oracles
from tailshift import (BudgetExhausted, LadderConfig, ModelSpec, RngStream,
                       estimate_quantile, estimate_to_precision)
from tailshift.model import oriented_response
from tailshift.multilevel import (FINAL_STREAM, QUANTILE_STREAM,
                                  estimate_report, pooled_batches,
                                  report_from_sample, run_ladder,
                                  weighted_exceedance, z_value)
from tailshift.quantile import (_WIDEN_LIMIT, REFINE_FACTOR, QuantileReport,
                                _bracket_rule, _slope_at, _survival_inverse)

SEEDS = range(4)


def reference_prob(model, gamma, target, rng, budget=1_000_000, m0=1000):
    """(report, pooled sample, converged), reducing the pool every batch."""
    config = dataclasses.replace(LadderConfig(), gamma=gamma)
    theta, trace = run_ladder(model, config, rng, budget=budget)
    exploration = trace.exploration_runs
    report = estimate_report(0.0, 0.0, 0, 0.95, exploration, gamma, theta)
    sample = None
    for batch in pooled_batches(model, gamma, theta, m0, rng, FINAL_STREAM,
                                budget - exploration):
        sample = batch if sample is None else sample.merge(batch)
        report = report_from_sample(sample, 0.95, exploration, gamma)
        if report.zero_hits or report.rel_half_width <= target:
            return report, sample, True
    return dataclasses.replace(report, converged=False), sample, False


def reference_quantile(model, p, rng, precision=0.10, m0=1000):
    """The quantile report, re-sorting and reducing the pool every batch."""
    config = LadderConfig()
    z = z_value(0.95)
    theta, trace = run_ladder(model, config, rng,
                              level_rule=_bracket_rule(p, config.rho))
    exploration = trace.exploration_runs
    pivot_gamma = trace.levels[-1].gamma
    widen = 0
    sample = None
    for batch in pooled_batches(model, pivot_gamma, theta, m0, rng,
                                QUANTILE_STREAM, 1_000_000 - exploration):
        sample = batch if sample is None else sample.merge(batch)
        responses, weights = sample.responses, np.exp(sample.log_weights)
        order = np.argsort(-responses, kind="stable")
        level = _survival_inverse(responses[order], weights[order],
                                  sample.size, p)
        if level is None or level == responses.max():
            widen += 1
            assert widen <= _WIDEN_LIMIT
            continue
        widen = 0
        estimate, se_p = weighted_exceedance(responses, weights, level)
        if z * se_p / estimate > REFINE_FACTOR * precision:
            continue
        slope = _slope_at(responses, weights, level)
        half = z * se_p / slope
        quantile = float(oriented_response(model, level))
        n_mc = estimate * (1.0 - estimate) * (z / (slope * half)) ** 2
        return QuantileReport(
            quantile=quantile, rel_half_width=half / max(abs(quantile), 1e-300),
            p=p, runs_exploration=exploration, runs_final=sample.size,
            speedup=n_mc / (exploration + sample.size), theta=theta)
    raise AssertionError("reference refinement hit the budget")


def assert_same_report(got, want):
    np.testing.assert_equal(dataclasses.asdict(got), dataclasses.asdict(want))


PROB_CASES = {
    "identity-1e-6": (ModelSpec.identity(1), oracles.tail_quantile("1e-6")),
    "linear-d10-1e-10": (ModelSpec.linear_family(10),
                         math.sqrt(10) * oracles.tail_quantile("1e-10")),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(PROB_CASES))
def test_prob_stops_on_the_same_batch(case, seed):
    model, gamma = PROB_CASES[case]
    want, want_sample, _ = reference_prob(model, gamma, 0.10, RngStream(seed))
    got, _, sample = estimate_to_precision(model, gamma, LadderConfig(), 0.10,
                                           1000, RngStream(seed))
    assert got.runs_final == want.runs_final
    assert_same_report(got, want)
    np.testing.assert_array_equal(sample.responses, want_sample.responses)
    np.testing.assert_array_equal(sample.log_weights, want_sample.log_weights)


@pytest.mark.parametrize("seed", SEEDS)
def test_prob_budget_partial_matches(seed):
    model, gamma = PROB_CASES["identity-1e-6"]
    want, _, converged = reference_prob(model, gamma, 0.01, RngStream(seed),
                                        budget=12_000)
    assert not converged
    with pytest.raises(BudgetExhausted) as err:
        estimate_to_precision(model, gamma, LadderConfig(), 0.01, 1000,
                              RngStream(seed), budget=12_000)
    got = err.value.report
    assert got.runs_final == want.runs_final > 0
    assert_same_report(got, want)


QUANTILE_CASES = {
    "identity-1e-4": (ModelSpec.identity(1), 1e-4),
    "skewed-1e-5": (ModelSpec.skewed(), 1e-5),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("case", list(QUANTILE_CASES))
def test_quantile_stops_on_the_same_batch(case, seed):
    model, p = QUANTILE_CASES[case]
    want = reference_quantile(model, p, RngStream(seed))
    got, _ = estimate_quantile(model, p, LadderConfig(), RngStream(seed))
    assert got.runs_final == want.runs_final
    assert_same_report(got, want)
