"""Normal CDF/quantile against independent scipy references."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats as sstats

from panelvuong import normal_cdf, normal_quantile, ks_distance, binomial_se
from panelvuong.errors import OutOfRange
from panelvuong.rng import normals, stream
from panelvuong.stats import erfc


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
