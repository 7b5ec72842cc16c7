"""Components and decisions of the grouped-time vs two-way test."""

import numpy as np
import pytest

from conftest import random_groups, random_panel
from oracles import sigma2_u_regrouped
from panelvuong import (GroupedTimeFit, TwfeFit, bias_hat, fit_grouped_time,
                        fit_twfe, individual_groups, make_panel, omega2_twfe,
                        pooled_groups, qlr_twfe, run_twfe_test, twfe_components)
from panelvuong.errors import GroupingViolation
from panelvuong.panel import GroupMap
from panelvuong.twfe import dof_factors


def fitted_components(panel, gmap):
    return twfe_components(panel, fit_grouped_time(panel, gmap), fit_twfe(panel), gmap)


def residual_components(e1, e2, gmap):
    """Components of two prescribed residual arrays, for testing the moment
    operations in isolation."""
    n, T = e1.shape
    fit_1 = GroupedTimeFit(theta=np.zeros(0), gamma_gt=np.zeros((gmap.G, T)),
                           residuals=e1, gmap=gmap)
    fit_2 = TwfeFit(theta=np.zeros(0), alpha=np.zeros(n), delta=np.zeros(T),
                    residuals=e2)
    return twfe_components(make_panel(np.zeros((n, T))), fit_1, fit_2, gmap)


def scaled_moments(comp, gmap):
    """Dof-rescaled per-unit (sigma2_1, sigma2_2, sigma12) of a report."""
    a, b = dof_factors(gmap, comp.n, comp.T)
    return comp.sigma2_1 * a, comp.sigma2_2 * b, comp.sigma12 * np.sqrt(a * b)


class TestResiduals:
    def test_additive_truth_both_zero(self, rng):
        a = rng.normal(size=8)
        b = rng.normal(size=6)
        gmap = random_groups(rng, 8, 3)
        panel = make_panel(a[gmap.codes][:, None] + b[None, :])
        comp = fitted_components(panel, gmap)
        assert np.allclose(comp.resid_1, 0, atol=1e-13)
        assert np.allclose(comp.resid_2, 0, atol=1e-13)

    def test_saturated_grouping_zero(self, rng):
        panel = random_panel(rng, 6, 5, 0)
        fit = fit_grouped_time(panel, individual_groups(6))
        assert np.allclose(fit.residuals, 0.0, atol=1e-14)

    def test_zero_sum_identities(self, rng):
        panel = random_panel(rng, 10, 7, 1)
        gmap = random_groups(rng, 10, 3)
        comp = fitted_components(panel, gmap)
        e1, e2 = comp.resid_1, comp.resid_2
        scale = max(1.0, np.abs(panel.y).max())
        for g in range(3):
            assert np.max(np.abs(e1[gmap.members(g)].sum(axis=0))) < 1e-12 * scale
        assert np.max(np.abs(e2.sum(axis=0))) < 1e-11 * scale
        assert np.max(np.abs(e2.sum(axis=1))) < 1e-11 * scale

    def test_shape_mismatch_rejected(self, rng):
        panel = random_panel(rng, 6, 5, 0)
        other = random_panel(rng, 4, 5, 0)
        gmap = pooled_groups(6)
        with pytest.raises(GroupingViolation, match="do not match panel"):
            twfe_components(panel, fit_grouped_time(panel, gmap), fit_twfe(other), gmap)
        with pytest.raises(GroupingViolation, match="do not match panel"):
            twfe_components(panel, fit_grouped_time(other, pooled_groups(4)),
                            fit_twfe(panel), gmap)


class TestQlr:
    def test_identical_residuals_zero(self, rng):
        e = rng.normal(size=(5, 4))
        assert qlr_twfe(e, e) == 0.0

    def test_direct_arithmetic(self):
        e1 = np.zeros((2, 2))
        e2 = np.full((2, 2), np.sqrt(2.0))   # sum of squares = 8
        assert qlr_twfe(e1, e2) == pytest.approx(2.0)

    def test_antisymmetry(self, rng):
        e1 = rng.normal(size=(6, 5))
        e2 = rng.normal(size=(6, 5))
        assert qlr_twfe(e1, e2) == pytest.approx(-qlr_twfe(e2, e1))


class TestBiasHat:
    def test_equal_variances_closed_form(self):
        # all unit variances 1, n = T, equal group sizes
        n = T = 8
        G = 2
        gmap = GroupMap(codes=np.repeat(np.arange(G), n // G), G=G)
        ones = np.ones(n)
        got = bias_hat(ones, ones, gmap, T)
        expected = (T * G - n - T + 1) / (2.0 * np.sqrt(n * T))
        assert got == pytest.approx(expected)

    def test_zero_variances(self):
        gmap = GroupMap(codes=np.array([0, 0, 1, 1]), G=2)
        assert bias_hat(np.zeros(4), np.zeros(4), gmap, 4) == 0.0

    def test_mqlr_not_antisymmetric(self, rng):
        # the raw contrast flips sign under a label swap; the corrected one
        # does not, because the bias term is model-specific and nonzero
        panel = random_panel(rng, 12, 10, 0)
        gmap = random_groups(rng, 12, 3)
        comp = fitted_components(panel, gmap)
        assert comp.mqlr == pytest.approx(comp.qlr - comp.bias)
        assert abs(comp.bias) > 1e-6   # so -(swapped MQLR) differs from MQLR


class TestVarianceComponents:
    def test_identical_residual_arrays_nonnegative(self, rng):
        e = rng.normal(size=(12, 8))
        gmap = random_groups(rng, 12, 3)
        comp = residual_components(e, e, gmap)
        s_u = comp.sigma2_u_raw
        # with identical residuals the per-group bracket collapses to the
        # squared difference of scaled group sums, so the total stays >= 0
        v = comp.sigma2_1
        ng = gmap.sizes.astype(float)
        s_g = np.bincount(gmap.codes, weights=v, minlength=3)
        n, T = e.shape
        cross = (s_g.sum() ** 2 - (s_g ** 2).sum()) / 2.0
        expected = ((v ** 2).sum() / (2 * n * T) + cross / n ** 3
                    + ((s_g / ng - s_g / n) ** 2).sum() / (2 * n))
        assert s_u == pytest.approx(expected)
        assert s_u >= 0.0

    def test_zero_residuals(self):
        e = np.zeros((4, 3))
        gmap = GroupMap(codes=np.array([0, 0, 1, 1]), G=2)
        comp = residual_components(e, e, gmap)
        assert (comp.sigma2_nt, comp.sigma2_u) == (0.0, 0.0)

    @pytest.mark.parametrize("corrected", [False, True])
    def test_direct_equals_regrouped(self, rng, corrected):
        panel = random_panel(rng, 40, 40, 1)
        gmap = random_groups(rng, 40, 5)
        comp = fitted_components(panel, gmap)
        if corrected:
            v1, v2, v12 = scaled_moments(comp, gmap)
            direct = comp.sigma2_u
        else:
            v1, v2, v12 = comp.sigma2_1, comp.sigma2_2, comp.sigma12
            direct = comp.sigma2_u_raw
        regrouped = sigma2_u_regrouped(v1, v2, v12, gmap, panel.T)
        assert direct == pytest.approx(regrouped, rel=1e-12, abs=1e-12)

    def test_lower_bound_holds(self, rng):
        panel = random_panel(rng, 20, 15, 0)
        gmap = random_groups(rng, 20, 4)
        comp = fitted_components(panel, gmap)
        _, v2, _ = scaled_moments(comp, gmap)
        s_u = comp.sigma2_u
        n, T = panel.n, panel.T
        s2_g = np.bincount(gmap.codes, weights=v2, minlength=4)
        cross = (s2_g.sum() ** 2 - (s2_g ** 2).sum()) / 2.0
        bound = (v2 ** 2).sum() / (2 * n * T) + cross / n ** 3
        assert s_u >= bound - 1e-15


class TestDofFactors:
    def test_values(self):
        gmap = GroupMap(codes=np.array([0, 0, 0, 1]), G=2)
        a, b = dof_factors(gmap, 4, 5)
        assert np.allclose(a, [1.5, 1.5, 1.5, 1.0])   # singleton group -> 1
        assert b == pytest.approx(20.0 / 12.0)

    def test_cross_scaling_preserves_cauchy_schwarz(self, rng):
        panel = random_panel(rng, 15, 10, 0)
        gmap = random_groups(rng, 15, 3)
        v1, v2, v12 = scaled_moments(fitted_components(panel, gmap), gmap)
        assert np.all(v12 ** 2 <= v1 * v2 * (1 + 1e-12) + 1e-15)


class TestOmega2:
    def test_subtraction_branch(self):
        assert omega2_twfe(1.0, 0.3) == pytest.approx(0.7)

    def test_max_binds(self):
        assert omega2_twfe(0.1, 0.3) == pytest.approx(0.3)

    def test_zero(self):
        assert omega2_twfe(0.0, 0.0) == 0.0


class TestRunTwfeTest:
    def test_saturated_grouping_report(self, rng):
        panel = random_panel(rng, 5, 5, 0)
        report = run_twfe_test(panel, individual_groups(5))
        assert np.isfinite(report.mqlr)
        assert report.omega2_hat >= 0.0
        assert any("own group" in w for w in report.warnings)
        # model-1 residuals vanish, so the contrast is the model-2 fit
        comp = report.components
        assert np.allclose(comp.sigma2_1, 0.0, atol=1e-14)

    def test_time_permutation_invariance(self, rng):
        panel = random_panel(rng, 10, 8, 0)
        gmap = random_groups(rng, 10, 3)
        comp = fitted_components(panel, gmap)
        perm = rng.permutation(8)
        panel_p = make_panel(panel.y[:, perm])
        comp_p = fitted_components(panel_p, gmap)
        for name in ("qlr", "bias", "mqlr", "sigma2_nt", "sigma2_u", "omega2"):
            assert getattr(comp, name) == pytest.approx(getattr(comp_p, name),
                                                        abs=1e-10)

    def test_degenerate_on_additive_data(self, rng):
        a = rng.normal(size=6)
        b = rng.normal(size=5)
        gmap = random_groups(rng, 6, 2)
        panel = make_panel(a[gmap.codes][:, None] + b[None, :])
        report = run_twfe_test(panel, gmap)
        assert report.degenerate

    def test_group_map_size_mismatch(self, rng):
        panel = random_panel(rng, 6, 5, 0)
        with pytest.raises(GroupingViolation):
            run_twfe_test(panel, individual_groups(5))

    def test_positivity_random_panels(self, rng):
        for _ in range(50):
            n = int(rng.integers(6, 20))
            T = int(rng.integers(4, 16))
            panel = random_panel(rng, n, T, int(rng.integers(0, 2)))
            gmap = random_groups(rng, n, int(rng.integers(1, 5)))
            report = run_twfe_test(panel, gmap)
            comp = report.components
            assert comp.sigma2_u >= -1e-14
            assert comp.sigma2_u_raw >= -1e-14
            assert comp.omega2 >= comp.sigma2_u - 1e-14
            assert np.all(comp.sigma12 ** 2
                          <= comp.sigma2_1 * comp.sigma2_2 * (1 + 1e-12) + 1e-15)

    def test_pooled_grouping_allowed(self, rng):
        panel = random_panel(rng, 8, 6, 0)
        report = run_twfe_test(panel, pooled_groups(8))
        assert np.isfinite(report.mqlr)
