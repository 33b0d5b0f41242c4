import numpy as np
import pytest

import oracles
from tailshift import (DomainError, ModelSpec, NoSurvivors, RngStream,
                       TailSample, draw_tail_sample, estimate_cvar)
from tailshift.multilevel import report_from_sample


def toy_sample(m, seed, gamma=1.5, theta=0.0):
    """Identity-model tail sample under a scalar shift."""
    model = ModelSpec.identity(1)
    return draw_tail_sample(model, gamma, np.array([theta]), m,
                            RngStream(seed, 500))


class TestSelfNormalized:
    def test_constant_survivors_give_the_constant(self):
        sample = TailSample(
            responses=np.array([7.0, 7.0, 0.0, 7.0]),
            log_weights=np.log(np.array([0.3, 1.7, 2.0, 0.4])),
            gamma=5.0,
            theta=np.zeros(1))
        assert estimate_cvar(sample).cvar == pytest.approx(7.0, rel=1e-14)

    def test_toy_value_and_variances(self):
        # unshifted 1-D toy at gamma = 1.5: CVaR = phi(g)/Phi(-g), and the
        # two plug-in variances sit near 2.24 and 54.7
        sample = toy_sample(1_000_000, seed=1)
        report = estimate_cvar(sample)
        cvar_true = oracles.mills_cvar(1.5)
        sigma_sq, sigma_bar_sq = oracles.cvar_toy_variances(1.5)
        assert cvar_true == pytest.approx(1.9387, abs=1e-4)
        se = np.sqrt(report.sigma_sq / sample.size)
        assert abs(report.cvar - cvar_true) <= 3 * se
        assert report.sigma_sq == pytest.approx(sigma_sq, rel=0.10)
        _, bar = oracles.estimate_cvar_unnormalized(sample,
                                                    oracles.normal_tail(1.5))
        assert bar == pytest.approx(sigma_bar_sq, rel=0.10)

    def test_variance_gap_identity(self):
        # at theta = 0 with the same p plugged into both, the gap equals
        # E[Y 1]^2 (1 - p) / p^3 exactly, so it is always nonnegative
        for seed in range(5):
            sample = toy_sample(20_000, seed=seed)
            report = estimate_cvar(sample)
            w = np.exp(sample.log_weights)
            hits = sample.responses >= sample.gamma
            p_hat = float((hits * w).mean())
            ey1 = float((sample.responses * hits * w).mean())
            _, bar = oracles.estimate_cvar_unnormalized(sample, p_hat)
            gap = ey1 ** 2 * (1 - p_hat) / p_hat ** 3
            assert bar - report.sigma_sq == pytest.approx(gap, rel=1e-9)
            assert bar >= report.sigma_sq

    def test_shift_invariance_in_expectation(self):
        # same target estimated at theta = 0 and at a near-optimal shift
        a = estimate_cvar(toy_sample(100_000, seed=3, theta=0.0))
        b = estimate_cvar(toy_sample(100_000, seed=4, theta=1.78))
        pooled = np.sqrt(a.sigma_sq / a.runs + b.sigma_sq / b.runs)
        assert abs(a.cvar - b.cvar) <= 3 * pooled

    def test_zero_hits(self):
        sample = toy_sample(100, seed=5, gamma=10.0)
        with pytest.raises(NoSurvivors):
            estimate_cvar(sample)

    def test_hits_whose_weights_underflow_are_no_survivors(self):
        # 498 rows reach gamma = 40, each with a log weight at most -800,
        # whose exp is 0: no weighted survivor, as report_from_sample's
        # zero_hits reads the same sample
        sample = draw_tail_sample(ModelSpec.identity(1), 40.0,
                                  np.array([40.0]), 1000, RngStream(1, 500))
        hits = sample.responses >= sample.gamma
        assert hits.sum() == 498
        assert sample.log_weights[hits].max() <= -800.0
        assert report_from_sample(sample).zero_hits
        with pytest.raises(NoSurvivors):
            estimate_cvar(sample)

    def test_left_tail_orientation(self):
        model = ModelSpec.identity(1, tail="left")
        sample = draw_tail_sample(model, -1.5, np.array([-1.78]), 100_000,
                                  RngStream(6, 500))
        report = estimate_cvar(sample)
        assert report.cvar == pytest.approx(-oracles.mills_cvar(1.5), abs=0.02)
        assert report.gamma == -1.5
        assert report.cvar <= report.gamma

    def test_right_tail_estimate_at_least_gamma(self):
        report = estimate_cvar(toy_sample(10_000, seed=7))
        assert report.cvar >= report.gamma


class TestUnnormalized:
    def test_single_survivor(self):
        sample = TailSample(responses=np.array([4.2]),
                            log_weights=np.zeros(1), gamma=1.0,
                            theta=np.zeros(1))
        value, _ = oracles.estimate_cvar_unnormalized(sample, 1.0)
        assert value == pytest.approx(4.2, rel=1e-14)

    def test_domain(self):
        sample = toy_sample(100, seed=8)
        with pytest.raises(DomainError):
            oracles.estimate_cvar_unnormalized(sample, 0.0)


class TestExactBias:
    def test_decays_to_zero(self):
        biases = [abs(oracles.cvar_exact_bias(1.9387, 0.0668, n))
                  for n in (1, 5, 50, 500)]
        assert all(a > b for a, b in zip(biases, biases[1:]))
        assert biases[-1] < 1e-14

    def test_p_one_unbiased(self):
        assert oracles.cvar_exact_bias(3.0, 1.0, 7) == 0.0

    def test_replication_mean_matches_closed_form(self):
        # brute-force oracle: 1e5 replications of n = 5, empty replications
        # contribute zero; the mean must match cvar * (1 - (1-p)^n)
        gamma, n, reps = 1.5, 5, 100_000
        p = oracles.normal_tail(gamma)
        cvar = oracles.mills_cvar(gamma)
        draws = RngStream(9, 600).generator.standard_normal((reps, n))
        hits = draws >= gamma
        counts = hits.sum(axis=1)
        sums = np.where(hits, draws, 0.0).sum(axis=1)
        per_rep = np.where(counts > 0, sums / np.maximum(counts, 1), 0.0)
        expected = cvar * (1.0 - (1.0 - p) ** n)
        assert expected == pytest.approx(
            cvar + oracles.cvar_exact_bias(cvar, p, n), rel=1e-12)
        se = per_rep.std() / np.sqrt(reps)
        assert abs(per_rep.mean() - expected) <= 3 * se


class TestUnderflow:
    # the hits of a sample drawn at theta = gamma weigh about p; the plug-in
    # variance divides each weight by p and never forms a power of p, so
    # the CVaR shares the p^2 limit of every estimate, p = 1.5e-154
    def assert_covers(self, gamma):
        report = estimate_cvar(toy_sample(2000, seed=1, gamma=gamma,
                                          theta=gamma))
        half = report.rel_half_width * report.cvar
        assert 0.0 < half <= 0.01
        assert abs(report.cvar - oracles.mills_cvar(gamma)) <= 3 * half

    def test_normal_cube_is_estimated(self):
        self.assert_covers(21.0)

    def test_underflowing_cube_is_estimated(self):
        # p = 2.3e-117: p^3 underflows to zero
        self.assert_covers(23.0)

    def test_underflowing_square_fails_loudly(self):
        sample = toy_sample(2000, seed=1, gamma=30.0, theta=30.0)
        with pytest.raises(DomainError, match=r"p\^2 underflows"):
            estimate_cvar(sample)


class TestSameSampleEconomy:
    def test_cvar_reuses_the_probability_sample(self):
        # estimate_cvar takes only the stored sample, so by construction it
        # costs zero extra model evaluations; check the bookkeeping agrees
        from tailshift import estimate_to_precision
        model = ModelSpec.identity(1)
        report, _, sample = estimate_to_precision(model, 2.0, 0.10,
                                                  RngStream(10))
        cv = estimate_cvar(sample)
        assert cv.runs == report.runs_final
        assert cv.gamma == 2.0
