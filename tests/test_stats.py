"""Normal quantile and binomial SE against independent scipy references."""

import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats as sstats

from panelvuong import normal_quantile
from panelvuong.errors import OutOfRange
from panelvuong.rng import normals, stream
from panelvuong.stats import binomial_se


class TestNormalQuantile:
    def test_reference_value(self):
        # independently checked against the scipy implementation
        assert normal_quantile(0.975) == pytest.approx(1.959963985, abs=1e-8)
        assert abs(normal_quantile(0.975) - sstats.norm.ppf(0.975)) < 1e-12

    def test_against_scipy(self):
        q = np.linspace(1e-8, 1 - 1e-8, 10001)
        assert np.abs(normal_quantile(q) - sstats.norm.ppf(q)).max() < 1e-8

    @settings(max_examples=200)
    @given(st.floats(1e-9, 1 - 1e-9))
    def test_roundtrip(self, q):
        assert abs(sstats.norm.cdf(normal_quantile(q)) - q) <= 1e-10

    @staticmethod
    def _as241_grid():
        """Probabilities in all three AS241 regimes: both tails down to 1e-300
        and up to 1 - 2**-53, and the centre."""
        return np.concatenate([np.logspace(-300.0, -1.0, 600),
                               np.linspace(0.001, 0.999, 1997),
                               1.0 - 2.0 ** -np.arange(2, 54)])

    def test_relative_accuracy(self):
        q = self._as241_grid()
        ref = special.ndtri(q)
        assert np.all(np.abs(normal_quantile(q) - ref) <= 1e-15 * np.abs(ref))

    def test_matches_statistics_inv_cdf(self):
        q = self._as241_grid()
        ref = np.array([statistics.NormalDist().inv_cdf(float(v)) for v in q])
        assert np.all(np.abs(normal_quantile(q) - ref) <= 4 * np.spacing(np.abs(ref)))

    def test_exact_symmetry(self):
        # u = k * 2**-53 < 0.5, so 1 - u is exact
        k = np.concatenate([np.arange(1, 4097),
                            np.random.default_rng(5).integers(1, 2**52, 20000)])
        u = k * 2.0 ** -53
        assert np.array_equal(normal_quantile(1.0 - u), -normal_quantile(u))

    @pytest.mark.parametrize("q", [0.0, 1.0, -0.2, 1.7])
    def test_out_of_range(self, q):
        with pytest.raises(OutOfRange):
            normal_quantile(q)


class TestKsDistance:
    """The package's own normal draws against scipy's KS distance."""

    def test_exact_normal_sample(self):
        # 95% KS critical value
        draws = normals([stream(99, 0, "noise")], [2000])
        assert sstats.kstest(draws, "norm").statistic < 1.36 / np.sqrt(2000)

    def test_shifted_sample_detected(self):
        draws = normals([stream(99, 1, "noise")], [2000]) + 1.0
        assert sstats.kstest(draws, "norm").statistic > 0.3


class TestBinomialSe:
    def test_half(self):
        assert binomial_se(0.5, 100) == pytest.approx(0.05)

    def test_degenerate_rate(self):
        assert binomial_se(1.0, 50) == 0.0

    def test_bad_count(self):
        with pytest.raises(OutOfRange):
            binomial_se(0.5, 0)


class TestNanPropagates:
    def test_normal_quantile_rejects_nan(self):
        with pytest.raises(OutOfRange):
            normal_quantile(np.array([0.5, np.nan]))
