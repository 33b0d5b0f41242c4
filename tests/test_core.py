import numpy as np
import pytest

import oracles
from tailshift import (DomainError, RngStream, std_normal_cdf,
                       std_normal_quantile)
from tailshift.core import BLOCK_VALUES, block_count


class TestNormalCdf:
    def test_zero_is_half(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_toy_tail_value(self):
        # P(X > 1.5) is about 0.067
        assert 1.0 - std_normal_cdf(1.5) == pytest.approx(0.0668072, abs=5e-8)

    def test_one_in_ten_thousand_tail(self):
        x = oracles.tail_quantile("1e-4")
        assert x == pytest.approx(3.719016, abs=1e-6)
        assert std_normal_cdf(x) == pytest.approx(0.9999, abs=1e-12)

    def test_matches_oracle_on_grid(self):
        xs = np.linspace(-8.0, 8.0, 201)
        for x in xs:
            assert std_normal_cdf(float(x)) == pytest.approx(
                oracles.normal_cdf(float(x)), rel=1e-13, abs=1e-300)

    def test_symmetry(self):
        xs = np.linspace(-10.0, 10.0, 401)
        err = np.abs(std_normal_cdf(-xs) - (1.0 - std_normal_cdf(xs)))
        assert err.max() <= 1e-15

    def test_monotone(self):
        xs = np.linspace(-12.0, 12.0, 2001)
        assert np.all(np.diff(std_normal_cdf(xs)) >= 0.0)


class TestNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_known_values(self):
        assert std_normal_quantile(0.9999) == pytest.approx(
            oracles.normal_quantile("0.9999"), abs=1e-9)
        assert std_normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)

    def test_domain_errors(self):
        for bad in (0.0, 1.0, -0.3, 1.7):
            with pytest.raises(DomainError):
                std_normal_quantile(bad)

    def test_round_trip_relative(self):
        # Phi(Phi^-1(p)) = p to 1e-12 relative across both tails
        ps = np.concatenate([
            np.logspace(-12, -1, 100),
            np.linspace(0.1, 0.9, 50),
            1.0 - np.logspace(-12, -1, 100),
        ])
        back = std_normal_cdf(std_normal_quantile(ps))
        assert np.max(np.abs(back - ps) / ps) <= 1e-12

    def test_inverse_on_x_grid(self):
        # above |x| ~ 5 the float rounding of p near 1 already moves x by
        # ~1e-8, so the well-conditioned range is what the identity can hold
        xs = np.linspace(-5.0, 5.0, 121)
        assert np.max(np.abs(std_normal_quantile(std_normal_cdf(xs)) - xs)) <= 1e-9


class TestRngStream:
    def test_same_key_same_sequence(self):
        a = RngStream(42, 3).generator.standard_normal(2)
        b = RngStream(42, 3).generator.standard_normal(2)
        np.testing.assert_array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 3).generator.standard_normal(100)
        b = RngStream(42, 4).generator.standard_normal(100)
        assert not np.array_equal(a, b)

    def test_draws_advance_within_stream(self):
        rng = RngStream(42, 3)
        a = rng.generator.standard_normal(5)
        b = rng.generator.standard_normal(5)
        assert not np.array_equal(a, b)

    def test_child_stream(self):
        rng = RngStream(9, 2)
        np.testing.assert_array_equal(
            rng.child(7).generator.standard_normal(4),
            RngStream(9, (2 << 23) + 7).generator.standard_normal(4))

    def test_bad_arguments(self):
        with pytest.raises(DomainError):
            RngStream(-1)
        with pytest.raises(DomainError):
            RngStream(2 ** 32)

    def test_stream_ids_are_checked_not_masked(self):
        with pytest.raises(DomainError):
            RngStream(0, -1)
        rng = RngStream(9, 2)
        for bad in (-1, 2 ** 23, 2 ** 64 + 7):
            with pytest.raises(DomainError):
                rng.child(bad)
        assert rng.child(2 ** 23 - 1).stream == (3 << 23) - 1
        # ids past 64 bits stay distinct instead of wrapping
        a = RngStream(9, 2 ** 64 + 5).generator.standard_normal(4)
        b = RngStream(9, 5).generator.standard_normal(4)
        assert not np.array_equal(a, b)

    def test_stream_is_seeded_by_seed_and_stream_words(self):
        want = np.random.Generator(np.random.SFC64(
            np.random.SeedSequence([42, 3]))).standard_normal(5)
        np.testing.assert_array_equal(
            RngStream(42, 3).generator.standard_normal(5), want)

    def test_sample_moments(self):
        # CLT bounds: |mean| <= 4/sqrt(n), variance within 5% of 1
        draws = RngStream(123, 1).generator.standard_normal(100_000)
        assert abs(draws.mean()) <= 4.0 / np.sqrt(100_000)
        assert abs(draws.var() - 1.0) <= 0.05


class TestShiftedNormals:
    @staticmethod
    def theta(d):
        return np.linspace(-1.0, 2.0, d)

    def test_block_rule(self):
        assert block_count(1000, 131) == 1
        assert block_count(1000, 132) == 2
        assert block_count(1000, 1010) == 8
        # never more blocks than rows
        assert block_count(1, 10 * BLOCK_VALUES) == 1

    @staticmethod
    def raw(rng, m, d):
        """The standard normals of rng.shifted_normals(m, .), redrawn from
        ``rng`` itself or, for a batch of several blocks, its block children."""
        blocks = block_count(m, d)
        if blocks == 1:
            return RngStream(rng.seed, rng.stream).generator.standard_normal(
                (m, d))
        bounds = [j * m // blocks for j in range(blocks + 1)]
        return np.concatenate([
            rng.child(j).generator.standard_normal((bounds[j + 1] - bounds[j], d))
            for j in range(blocks)])

    def test_small_batch_is_one_draw_from_its_stream(self):
        m, d = 1000, BLOCK_VALUES // 1000
        theta = self.theta(d)
        points, _ = RngStream(5, 7).shifted_normals(m, theta)
        raw = RngStream(5, 7).generator.standard_normal((m, d))
        np.testing.assert_array_equal(points, raw + theta)

    @pytest.mark.parametrize("m, d", [(1000, 132), (1000, 1010), (7, 40_000)])
    def test_large_batch_is_its_blocks_child_draws(self, m, d):
        theta = self.theta(d)
        rng = RngStream(5, 7)
        points, _ = rng.shifted_normals(m, theta)
        assert block_count(m, d) > 1
        np.testing.assert_array_equal(points, self.raw(rng, m, d) + theta)

    @pytest.mark.parametrize("m, d, blocks", [(1000, 110, 1), (1000, 1010, 8)])
    def test_log_weights_are_one_einsum_at_every_size(self, m, d, blocks):
        theta = self.theta(d)
        rng = RngStream(11, 2)
        _, log_weights = rng.shifted_normals(m, theta)
        assert block_count(m, d) == blocks
        want = (-np.einsum("ij,j->i", self.raw(rng, m, d), theta)
                - 0.5 * (theta @ theta))
        np.testing.assert_array_equal(log_weights, want)

    @pytest.mark.parametrize("m, d", [(500, 3), (1000, 1010)])
    def test_log_weights_read_the_raw_rows(self, m, d):
        theta = self.theta(d)
        points, log_weights = RngStream(11, 2).shifted_normals(m, theta)
        raw = points - theta
        want = -(raw @ theta) - 0.5 * (theta @ theta)
        np.testing.assert_allclose(log_weights, want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())
