"""Normal CDF/quantile against independent scipy references."""

import statistics
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats as sstats

from panelvuong import normal_quantile
from panelvuong.errors import NonFinite, OutOfRange
from panelvuong.rng import normals, stream
from panelvuong.stats import binomial_se, erfc, ks_distance, normal_cdf


class TestErfc:
    def test_against_scipy(self):
        x = np.concatenate([np.linspace(-12.0, 12.0, 4001),
                            [-26.0, 26.0, 0.46875, -0.46875, 4.0, -4.0, 0.0]])
        rel = np.abs(erfc(x) - special.erfc(x)) / np.maximum(np.abs(special.erfc(x)), 1e-300)
        assert rel.max() < 1e-13

    def test_scalar_roundtrip(self):
        assert erfc(0.0) == pytest.approx(1.0, abs=1e-15)


class TestNormalCdf:
    def test_at_zero(self):
        assert normal_cdf(0.0) == 0.5

    def test_relative_accuracy(self):
        z = np.linspace(-37.0, 8.0, 3001)
        ref = sstats.norm.cdf(z)
        rel = np.abs(normal_cdf(z) - ref) / ref
        assert rel.max() < 1e-12

    @given(st.floats(-8.0, 8.0, allow_nan=False))
    def test_symmetry(self, z):
        assert abs(normal_cdf(-z) - (1.0 - normal_cdf(z))) < 1e-14


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
        assert abs(normal_cdf(normal_quantile(q)) - q) <= 1e-10

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
    def test_exact_normal_sample(self):
        # draws through the package's own normal stream; 95% KS critical value
        draws = normals(stream(99, 0, "noise"), 2000)
        assert ks_distance(draws) < 1.36 / np.sqrt(2000)

    def test_shifted_sample_detected(self):
        draws = normals(stream(99, 1, "noise"), 2000) + 1.0
        assert ks_distance(draws) > 0.3

    def test_empty_raises(self):
        with pytest.raises(OutOfRange):
            ks_distance([])

    def test_nan_raises(self):
        with pytest.raises(NonFinite):
            ks_distance([0.1, np.nan, -0.4])


class TestBinomialSe:
    def test_half(self):
        assert binomial_se(0.5, 100) == pytest.approx(0.05)

    def test_degenerate_rate(self):
        assert binomial_se(1.0, 50) == 0.0

    def test_bad_count(self):
        with pytest.raises(OutOfRange):
            binomial_se(0.5, 0)


class TestNanPropagates:
    def test_erfc(self):
        assert np.isnan(erfc(np.nan))
        out = erfc(np.array([np.nan, 0.3, -np.nan, 5.0, -1.0]))
        assert np.isnan(out[[0, 2]]).all()
        assert np.isfinite(out[[1, 3, 4]]).all()

    def test_normal_cdf(self):
        assert np.isnan(normal_cdf(np.nan))
        out = normal_cdf(np.array([[np.nan, 0.0], [-40.0, np.nan]]))
        assert out.shape == (2, 2)
        assert np.isnan(out[0, 0]) and np.isnan(out[1, 1])
        assert out[0, 1] == 0.5

    def test_normal_quantile_rejects_nan(self):
        with pytest.raises(OutOfRange):
            normal_quantile(np.array([0.5, np.nan]))


class TestInfinities:
    def test_limits(self):
        assert erfc(np.inf) == 0.0 and erfc(-np.inf) == 2.0
        assert normal_cdf(np.inf) == 1.0 and normal_cdf(-np.inf) == 0.0
        out = normal_cdf(np.array([-np.inf, 5.0, np.inf, np.nan]))
        assert out[0] == 0.0 and out[2] == 1.0
        assert out[1] == normal_cdf(5.0) and np.isnan(out[3])

    def test_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            erfc(np.array([np.inf, -np.inf, 30.0]))
            normal_cdf(np.array([np.inf, -np.inf]))

    def test_ks_distance_with_infinite_point(self):
        # the CDF reaches 1 at the top point, so the distance is 1 - cdf(0.1)
        assert ks_distance([0.1, np.inf]) == pytest.approx(sstats.norm.cdf(0.1))
