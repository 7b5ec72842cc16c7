"""Likelihood families and the finite-difference self-check."""

import numpy as np
import pytest

from panelvuong import (LikelihoodFamily, check_derivatives, gaussian_fixed_scale,
                        gaussian_full_scale)
from panelvuong.errors import DomainError

NO_X = np.zeros(0)


def sample_points(rng, family, count):
    pts = []
    for _ in range(count):
        k = family.d_theta - (1 if family.name == "gaussian-full-scale" else 0)
        theta = rng.uniform(-2, 2, size=family.d_theta)
        if family.name == "gaussian-full-scale":
            theta[-1] = rng.uniform(0.5, 3.0)
        pts.append((rng.uniform(-2, 2), rng.uniform(-2, 2, size=k),
                    theta, rng.uniform(-2, 2)))
    return pts


class TestEvalPsi:
    def test_fixed_scale_zero_residual(self):
        fam = gaussian_fixed_scale(0)
        assert fam.psi(1.0, NO_X, np.zeros(0), 1.0) == 0.0

    def test_fixed_scale_residual_two(self):
        fam = gaussian_fixed_scale(1)
        # y=3, x'theta=1, gamma=0 -> -(2)^2/2
        assert fam.psi(3.0, np.array([1.0]), np.array([1.0]), 0.0) == -2.0

    def test_full_scale_zero_residual_unit_variance(self):
        fam = gaussian_full_scale(0)
        assert fam.psi(1.0, NO_X, np.array([1.0]), 1.0) == 0.0

    def test_full_scale_domain_error(self):
        fam = gaussian_full_scale(0)
        with pytest.raises(DomainError):
            fam.psi(1.0, NO_X, np.array([-0.5]), 0.0)

    def test_vectorized_evaluation(self):
        fam = gaussian_fixed_scale(1)
        y = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = np.ones((2, 2, 1))
        out = fam.psi(y, x, np.array([1.0]), 0.0)
        assert out.shape == (2, 2)
        assert out[1, 1] == -4.5


class TestEvalDerivatives:
    def test_fixed_scale_residual_two(self):
        fam = gaussian_fixed_scale(0)
        g = fam.psi_gamma(2.0, NO_X, np.zeros(0), 0.0)
        gg = fam.psi_gammagamma(2.0, NO_X, np.zeros(0), 0.0)
        assert float(g) == 2.0
        assert float(gg) == -1.0

    def test_fixed_scale_stationary(self):
        fam = gaussian_fixed_scale(0)
        g = fam.psi_gamma(1.0, NO_X, np.zeros(0), 1.0)
        assert float(g) == 0.0

    def test_full_scale_hand_derived(self):
        # residual 1 at scale 2: d/dgamma = 1/2, second derivative = -1/2
        fam = gaussian_full_scale(0)
        g = fam.psi_gamma(1.0, NO_X, np.array([2.0]), 0.0)
        gg = fam.psi_gammagamma(1.0, NO_X, np.array([2.0]), 0.0)
        assert float(g) == pytest.approx(0.5)
        assert float(gg) == pytest.approx(-0.5)

    def test_fixed_scale_theta_gradient(self):
        fam = gaussian_fixed_scale(2)
        x = np.array([1.0, -2.0])
        t = fam.psi_theta(5.0, x, np.array([1.0, 1.0]), 0.0)
        # residual = 5 - (1 - 2) = 6
        assert np.allclose(t, x * 6.0)


class TestCheckDerivatives:
    @pytest.mark.parametrize("maker,k", [(gaussian_fixed_scale, 0),
                                         (gaussian_fixed_scale, 2),
                                         (gaussian_full_scale, 0),
                                         (gaussian_full_scale, 2)])
    def test_shipped_families_pass(self, rng, maker, k):
        fam = maker(k)
        assert check_derivatives(fam, sample_points(rng, fam, 100)) < 1e-6

    def test_broken_family_detected(self, rng):
        base = gaussian_fixed_scale(0)
        broken = LikelihoodFamily(
            name="broken", d_theta=0, psi=base.psi,
            psi_theta=base.psi_theta,
            psi_gamma=lambda y, x, t, g: 2.0 * base.psi_gamma(y, x, t, g),
            psi_gammagamma=base.psi_gammagamma)
        err = check_derivatives(broken, sample_points(rng, broken, 100))
        assert err == pytest.approx(1.0, abs=0.05)

    def test_zero_residual_points(self):
        fam = gaussian_fixed_scale(0)
        pts = [(1.0, NO_X, np.zeros(0), 1.0)] * 5
        assert check_derivatives(fam, pts) < 1e-9


class TestShippedFamilyIdentity:
    """One object per K, so fit_model and the nesting rule compare families
    with ==, never by name."""

    @pytest.mark.parametrize("maker", [gaussian_fixed_scale, gaussian_full_scale])
    def test_one_object_per_k(self, maker):
        assert maker(1) is maker(1)
        assert maker(1) == maker(np.int64(1))
        assert maker(1) != maker(2)

    @pytest.mark.parametrize("maker", [gaussian_fixed_scale, gaussian_full_scale])
    def test_keyword_call_refused(self, maker):
        # a keyword call would be a second cache key, hence a second family
        with pytest.raises(TypeError):
            maker(n_covariates=1)

    def test_the_two_families_differ(self):
        assert gaussian_fixed_scale(1) != gaussian_full_scale(0)
