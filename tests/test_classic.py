"""Components and decisions of the individual-vs-grouped effects test."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import blocks_from_sizes, pooled_groups, random_groups, random_panel
from oracles import (bias_correction, mqlr_classic, s2_gamma_unit,
                     sigma2_cross_unit, sigma2_gamma_unit, variance_components,
                     variance_u_regrouped)
from panelvuong import (DgpConfig, LikelihoodFamily, ModelSpec, classic_components,
                        fit_model, fit_profile_mle, gaussian_fixed_scale,
                        gaussian_full_scale, generate, individual_groups, make_panel,
                        run_classic_test)
from panelvuong.classic import MAX_RULE_NOTE, NESTED_NOTE, dof_factor, omega2_hybrid
from panelvuong import normal_quantile
from panelvuong.cli import main
from panelvuong.errors import DomainError, GroupingViolation, TooSmall
from panelvuong.panel import GroupMap
from test_cli import write_panel_csv


def fit_pair(panel, gmap2):
    """(individual-effects fit, grouped fit) under the unit-scale family."""
    spec1 = ModelSpec(gaussian_fixed_scale(panel.K), individual_groups(panel.n))
    spec2 = ModelSpec(gaussian_fixed_scale(panel.K), gmap2)
    return fit_model(panel, spec1), fit_model(panel, spec2)


def plus_minus_panel(n, base=0.0):
    """Each unit's outcomes are (c_i + 1, c_i - 1): unit residuals (1, -1)."""
    levels = base + np.arange(n, dtype=float)
    return make_panel(np.column_stack([levels + 1.0, levels - 1.0]))


def synthetic_fit(scores, gmap):
    """A fit object with prescribed score array, for testing the component
    operations in isolation (unit information fixed at -1)."""
    from panelvuong import FitResult

    scores = np.asarray(scores, dtype=float)
    return FitResult(theta=np.zeros(0), gamma=np.zeros((gmap.G, 1)), loglik=0.0,
                     loglik_obs=np.zeros_like(scores), score_gamma=scores,
                     info_gamma=np.full((gmap.G, 1), -1.0),
                     iterations=0, spec=ModelSpec(gaussian_fixed_scale(0), gmap))


class TestPerUnitComponents:
    def test_sigma2_plus_minus_residuals(self):
        panel = plus_minus_panel(4)
        fit1, fit2 = fit_pair(panel, pooled_groups(4))
        comp = classic_components(fit1, fit2)
        for i in range(4):
            assert sigma2_gamma_unit(fit1, i) == pytest.approx(1.0)
            assert sigma2_gamma_unit(fit1, i) == pytest.approx(comp.sigma2_1[i])

    def test_sigma2_constant_residuals(self):
        panel = make_panel(np.outer(np.arange(4.0), np.ones(3)))
        fit1, fit2 = fit_pair(panel, pooled_groups(4))
        comp = classic_components(fit1, fit2)
        for i in range(4):
            assert sigma2_gamma_unit(fit1, i) == 0.0
            assert comp.sigma2_1[i] == 0.0

    def test_model1_foc_makes_s2_equal_sigma2(self, rng):
        panel = random_panel(rng, 6, 5, 0)
        fit1, _ = fit_pair(panel, pooled_groups(6))
        # model 1 in the model-2 slot: the report's s2_2 and sigma2_2 are its
        comp = classic_components(fit1, fit1)
        for i in range(6):
            assert s2_gamma_unit(fit1, i) == pytest.approx(comp.s2_2[i])
            assert comp.s2_2[i] == pytest.approx(comp.sigma2_2[i])
            assert sigma2_gamma_unit(fit1, i) == pytest.approx(comp.sigma2_2[i])

    def test_s2_gap_from_nonzero_mean(self):
        # group mean zero but unit means +-1: model-2 scores (1,1) and (-1,-1)
        panel = make_panel(np.array([[1.0, 1.0], [-1.0, -1.0]]))
        fit1, fit2 = fit_pair(panel, pooled_groups(2))
        comp = classic_components(fit1, fit2)
        assert s2_gamma_unit(fit2, 0) == pytest.approx(1.0)
        assert sigma2_gamma_unit(fit2, 0) == pytest.approx(0.0)
        assert s2_gamma_unit(fit2, 0) == pytest.approx(comp.s2_2[0])
        assert sigma2_gamma_unit(fit2, 0) == pytest.approx(comp.sigma2_2[0], abs=1e-15)

    def test_s2_all_zero(self):
        panel = make_panel(np.outer(np.arange(3.0), np.ones(3)))
        fit1, _ = fit_pair(panel, individual_groups(3))
        assert s2_gamma_unit(fit1, 0) == 0.0
        assert classic_components(fit1, fit1).s2_2[0] == 0.0

    def test_cross_identical_fits_is_sigma4(self, rng):
        panel = random_panel(rng, 5, 6, 0)
        fit1, fit2 = fit_pair(panel, individual_groups(5))
        comp = classic_components(fit1, fit2)
        for i in range(5):
            assert sigma2_cross_unit(fit1, fit2, i) == pytest.approx(
                sigma2_gamma_unit(fit1, i) ** 2)
            assert sigma2_cross_unit(fit1, fit2, i) == pytest.approx(comp.sigma2_12[i])
            assert comp.sigma2_12[i] == pytest.approx(comp.sigma2_1[i] ** 2)

    def test_cross_orthogonal_scores(self):
        # score sequences (1,-1) and (1,1) have inner product zero
        fit1 = synthetic_fit([[1.0, -1.0], [-1.0, 1.0]], individual_groups(2))
        fit2 = synthetic_fit([[1.0, 1.0], [-1.0, -1.0]], pooled_groups(2))
        assert sigma2_cross_unit(fit1, fit2, 0) == pytest.approx(0.0)
        assert classic_components(fit1, fit2).sigma2_12[0] == pytest.approx(0.0)

    def test_cross_zero_scores(self):
        panel = make_panel(np.outer(np.arange(3.0), np.ones(2)))
        fit1, fit2 = fit_pair(panel, individual_groups(3))
        assert sigma2_cross_unit(fit1, fit2, 0) == 0.0
        assert classic_components(fit1, fit2).sigma2_12[0] == 0.0


class TestBiasCorrection:
    def test_individual_model_half_sum(self):
        panel = plus_minus_panel(10)
        fit1, fit2 = fit_pair(panel, pooled_groups(10))
        # all per-unit variances are 1, so the sum is n/2
        assert bias_correction(fit1) == pytest.approx(5.0)
        comp = classic_components(fit1, fit2)
        assert comp.bias_1 == pytest.approx(dof_factor(fit1) * bias_correction(fit1), rel=1e-12)

    def test_single_group_of_size_n(self):
        panel = plus_minus_panel(10)
        fit1, fit2 = fit_pair(panel, pooled_groups(10))
        assert np.allclose([sigma2_gamma_unit(fit2, i) for i in range(10)], 1.0)
        assert bias_correction(fit2) == pytest.approx(0.5)
        comp = classic_components(fit1, fit2)
        assert np.allclose(comp.sigma2_2, 1.0)
        assert comp.bias_2 == pytest.approx(dof_factor(fit2) * bias_correction(fit2), rel=1e-12)

    def test_zero_residual_panel(self):
        panel = make_panel(np.outer(np.arange(4.0), np.ones(3)))
        fit1, fit2 = fit_pair(panel, individual_groups(4))
        assert bias_correction(fit1) == 0.0
        assert classic_components(fit1, fit2).bias_1 == 0.0


class TestMqlr:
    def test_identical_models_exact_zero(self, rng):
        panel = random_panel(rng, 6, 5, 0)
        fit1, fit2 = fit_pair(panel, individual_groups(6))
        assert mqlr_classic(fit1, fit2) == 0.0
        assert classic_components(fit1, fit2).mqlr == 0.0

    def test_grouping_violation(self, rng):
        panel = random_panel(rng, 6, 5, 0)
        fit_coarse = fit_model(panel, ModelSpec(gaussian_fixed_scale(0),
                                                pooled_groups(6)))
        fit2 = fit_model(panel, ModelSpec(gaussian_fixed_scale(0),
                                          individual_groups(6)))
        with pytest.raises(GroupingViolation):
            mqlr_classic(fit_coarse, fit2)
        with pytest.raises(GroupingViolation):
            classic_components(fit_coarse, fit2)

    @pytest.mark.parametrize("shape_2", [(12, 7), (10, 8)], ids=["other_T", "other_n"])
    def test_fits_of_two_panels_rejected(self, rng, shape_2):
        # a typed error, not a numpy broadcast error
        fit1, _ = fit_pair(random_panel(rng, 12, 8, 0), pooled_groups(12))
        _, fit2 = fit_pair(random_panel(rng, *shape_2, 0), pooled_groups(shape_2[0]))
        with pytest.raises(GroupingViolation, match="not of one panel"):
            classic_components(fit1, fit2)

    @pytest.mark.parametrize("slot", ["model 1", "model 2"])
    def test_time_blocked_fit_rejected(self, rng, slot):
        # the statistic assumes one effect per group (M = 1); fits with
        # time blocks used to get one built as if M = 1
        panel = random_panel(rng, 6, 6, 0)
        blocks = blocks_from_sizes([3, 3])
        fit1, fit2 = fit_pair(panel, pooled_groups(6))
        if slot == "model 1":
            fit1 = fit_model(panel, ModelSpec(gaussian_fixed_scale(0),
                                              individual_groups(6), blocks))
        else:
            fit2 = fit_model(panel, ModelSpec(gaussian_fixed_scale(0),
                                              pooled_groups(6), blocks))
        with pytest.raises(GroupingViolation, match=f"{slot} uses 2 time blocks"):
            classic_components(fit1, fit2)

    def test_sign_favors_model_one_under_heterogeneity(self, rng):
        # strong within-group heterogeneity: the individual model fits better
        n, T = 40, 40
        alpha = rng.normal(0, 2.0, n)
        y = alpha[:, None] + rng.normal(0, 1.0, (n, T))
        fit1, fit2 = fit_pair(make_panel(y), random_groups(rng, n, 4))
        assert mqlr_classic(fit1, fit2) > 0
        assert classic_components(fit1, fit2).mqlr == mqlr_classic(fit1, fit2)


class TestVarianceComponents:
    def test_identical_models_all_zero(self, rng):
        panel = random_panel(rng, 6, 5, 0)
        fit1, fit2 = fit_pair(panel, individual_groups(6))
        comp = classic_components(fit1, fit2)
        s_nt, s_u, s_s = variance_components(fit1, fit2, comp.mqlr)
        assert s_nt == pytest.approx(0.0, abs=1e-14)
        assert s_u == pytest.approx(0.0, abs=1e-14)
        assert s_s == pytest.approx(0.0, abs=1e-14)
        assert comp.sigma2_nt == s_nt
        for value in (comp.sigma2_u, comp.sigma2_u_raw, comp.sigma2_s):
            assert value == pytest.approx(0.0, abs=1e-14)

    def test_regrouped_identity(self, rng):
        panel = random_panel(rng, 50, 50, 0)
        fit1, fit2 = fit_pair(panel, random_groups(rng, 50, 6))
        comp = classic_components(fit1, fit2)
        assert variance_u_regrouped(fit1, fit2) == pytest.approx(
            comp.sigma2_u_raw, abs=1e-12, rel=1e-12)

    def test_orthogonal_scores_s_formula(self):
        # per-unit score sequences orthogonal across models: the cross terms
        # vanish and sigma2_s reduces to the direct two-term sum
        scores1 = np.array([[1.0, -1.0], [-2.0, 2.0], [1.0, -1.0], [-1.0, 1.0]])
        scores2 = np.array([[1.0, 1.0], [2.0, 2.0], [-1.0, -1.0], [3.0, 3.0]])
        gmap2 = GroupMap(codes=np.array([0, 0, 1, 1]))
        fit1 = synthetic_fit(scores1, individual_groups(4))
        fit2 = synthetic_fit(scores2, gmap2)
        cross = np.array([sigma2_cross_unit(fit1, fit2, i) for i in range(4)])
        assert np.allclose(cross, 0.0, atol=1e-14)
        comp = classic_components(fit1, fit2)
        _, _, s_s = variance_components(fit1, fit2, 0.0)
        n, T = 4, 2
        v1 = np.array([sigma2_gamma_unit(fit1, i) for i in range(4)])
        s2 = np.array([s2_gamma_unit(fit2, i) for i in range(4)])
        v2 = np.array([sigma2_gamma_unit(fit2, i) for i in range(4)])
        sizes = np.array([2.0, 2.0, 2.0, 2.0])
        group_s2 = np.array([s2[:2].sum(), s2[:2].sum(), s2[2:].sum(), s2[2:].sum()])
        expected = (v1 ** 2 + v2 * group_s2 / sizes ** 2).sum() / (2 * n * T)
        assert s_s == pytest.approx(expected)
        # the report's sigma2_s carries each fit's dof factor
        a, b = dof_factor(fit1), dof_factor(fit2)
        expected = ((a * v1) ** 2 + b ** 2 * v2 * group_s2 / sizes ** 2).sum() / (2 * n * T)
        assert comp.sigma2_s == pytest.approx(expected)


class TestOmega2Hybrid:
    def test_max_rule_binding(self):
        assert omega2_hybrid(0.5, 0.2, 0.5) == pytest.approx(0.2)

    def test_first_branch(self):
        assert omega2_hybrid(1.0, 0.1, 0.1) == pytest.approx(0.9)

    def test_all_zero(self):
        assert omega2_hybrid(0.0, 0.0, 0.0) == 0.0

    @given(st.floats(-1, 2), st.floats(0, 2), st.floats(0, 2))
    def test_never_below_sigma_u(self, s_nt, s_u, s_s):
        assert omega2_hybrid(s_nt, s_u, s_s) >= s_u


class TestRunClassicTest:
    def test_identical_models_degenerate(self, rng):
        panel = random_panel(rng, 6, 5, 0)
        spec = ModelSpec(gaussian_fixed_scale(0), individual_groups(6))
        report = run_classic_test(panel, spec, spec)
        assert report.degenerate
        assert report.degenerate_reason == "models indistinguishable"
        assert report.statistic is None
        assert report.reject_two is None

    def test_time_blocks_rejected(self, rng):
        panel = random_panel(rng, 6, 6, 0)
        spec1 = ModelSpec(gaussian_fixed_scale(0), individual_groups(6))
        spec2 = ModelSpec(gaussian_fixed_scale(0), pooled_groups(6),
                          blocks_from_sizes([3, 3]))
        with pytest.raises(GroupingViolation):
            run_classic_test(panel, spec1, spec2)

    def test_coarse_model1_rejected(self, rng):
        panel = random_panel(rng, 6, 5, 0)
        spec1 = ModelSpec(gaussian_fixed_scale(0), pooled_groups(6))
        with pytest.raises(GroupingViolation, match="model 1 must give each unit its own group"):
            run_classic_test(panel, spec1, spec1)

    def test_pvalues_match_statistic(self, rng):
        panel = random_panel(rng, 20, 15, 1)
        spec1 = ModelSpec(gaussian_fixed_scale(1), individual_groups(20))
        spec2 = ModelSpec(gaussian_fixed_scale(1), random_groups(rng, 20, 4))
        report = run_classic_test(panel, spec1, spec2, level=0.05)
        assert 0.0 <= report.p_two_sided <= 1.0
        assert report.reject_two == (abs(report.statistic) > normal_quantile(0.975))
        assert report.reject_one == (report.statistic > normal_quantile(0.95))

    @pytest.mark.parametrize("K", [0, 1])
    def test_group_effects_absorbed(self, rng, K):
        # both models absorb a_g(i), so no scale of it moves the test; this is
        # why the simulated effects carry no scale setting
        panel = random_panel(rng, 30, 20, K)
        gmap = random_groups(rng, 30, 4)
        a = 1e3 * rng.normal(size=4)
        shifted = make_panel(panel.y + a[gmap.codes][:, None], panel.x if K else None)
        spec1 = ModelSpec(gaussian_fixed_scale(K), individual_groups(30))
        spec2 = ModelSpec(gaussian_fixed_scale(K), gmap)
        base = run_classic_test(panel, spec1, spec2)
        moved = run_classic_test(shifted, spec1, spec2)
        assert abs(moved.statistic - base.statistic) <= 1e-9
        assert (moved.reject_two, moved.reject_one) == (base.reject_two, base.reject_one)

    def test_label_invariance_within_groups(self, rng):
        panel = random_panel(rng, 8, 6, 0)
        gmap = GroupMap(codes=np.array([0, 0, 0, 0, 1, 1, 1, 1]))
        fit1, fit2 = fit_pair(panel, gmap)
        comp = classic_components(fit1, fit2)
        perm = np.array([2, 3, 0, 1, 7, 6, 5, 4])   # shuffles within groups
        panel_p = make_panel(panel.y[perm])
        fit1p, fit2p = fit_pair(panel_p, gmap)
        comp_p = classic_components(fit1p, fit2p)
        for name in ("loglik_1", "loglik_2", "bias_1", "bias_2", "qlr", "mqlr",
                     "sigma2_nt", "sigma2_u", "sigma2_s", "omega2"):
            assert getattr(comp, name) == pytest.approx(getattr(comp_p, name),
                                                        abs=1e-10)

    def test_decision_monotone_in_level(self, rng):
        panel = random_panel(rng, 15, 10, 0)
        spec1 = ModelSpec(gaussian_fixed_scale(0), individual_groups(15))
        spec2 = ModelSpec(gaussian_fixed_scale(0), random_groups(rng, 15, 3))
        reports = [run_classic_test(panel, spec1, spec2, level=p)
                   for p in (0.01, 0.05, 0.10, 0.20)]
        for tighter, looser in zip(reports, reports[1:]):
            if tighter.reject_two:
                assert looser.reject_two

    def test_positivity_on_random_panels(self, rng):
        for _ in range(50):
            n = int(rng.integers(6, 20))
            T = int(rng.integers(4, 16))
            panel = random_panel(rng, n, T, int(rng.integers(0, 2)))
            gmap = random_groups(rng, n, int(rng.integers(1, 5)))
            fit1, fit2 = fit_pair(panel, gmap)
            comp = classic_components(fit1, fit2)
            assert comp.sigma2_u >= -1e-14
            assert comp.sigma2_s >= -1e-14
            assert comp.omega2 >= comp.sigma2_u - 1e-14
            assert np.all(comp.s2_2 >= comp.sigma2_2 - 1e-12)
            assert np.all(comp.sigma2_12 <= comp.sigma2_1 * comp.sigma2_2
                          + 1e-14 * np.maximum(1.0, comp.sigma2_1 * comp.sigma2_2))

    def test_warning_records_independence_assumption(self, rng):
        panel = random_panel(rng, 8, 6, 0)
        spec1 = ModelSpec(gaussian_fixed_scale(0), individual_groups(8))
        spec2 = ModelSpec(gaussian_fixed_scale(0), pooled_groups(8))
        report = run_classic_test(panel, spec1, spec2)
        assert any("serially independent" in w for w in report.warnings)


class TestNestedVariance:
    """Same-family pairs are nested: omega2 is the dof-rescaled sigma2_u."""

    def test_same_family_omega2_is_dof_scaled_sigma2_u(self, rng):
        # within-group heterogeneity makes the max rule's first branch bind,
        # so the nested rule is what sets omega2 here
        n, T, K = 24, 12, 1
        x = rng.normal(size=(n, T, K))
        y = rng.normal(0.0, 1.0, n)[:, None] + x[..., 0] + rng.normal(size=(n, T))
        panel = make_panel(y, x)
        gmap = random_groups(rng, n, 4)
        spec1 = ModelSpec(gaussian_fixed_scale(K), individual_groups(n))
        spec2 = ModelSpec(gaussian_fixed_scale(K), gmap)
        report = run_classic_test(panel, spec1, spec2)
        comp = report.components

        # term-by-term sigma2_u from the raw per-unit moments and the exact
        # residual dof of each projection
        a = b = n * T / (n * (T - 1) - K)
        ng = gmap.sizes.astype(float)[gmap.codes]
        group_v2 = np.bincount(gmap.codes, weights=comp.sigma2_2)[gmap.codes]
        expected = ((a * comp.sigma2_1) ** 2
                    + b ** 2 * comp.sigma2_2 * group_v2 / ng ** 2
                    - 2.0 * a * b * comp.sigma2_12 / ng).sum() / (2.0 * n * T)
        assert comp.nested
        assert comp.sigma2_nt + comp.sigma2_u - 2.0 * comp.sigma2_s > comp.sigma2_u
        assert comp.sigma2_u == pytest.approx(expected, rel=1e-12)
        assert comp.omega2 == comp.sigma2_u
        assert report.omega2_hat == comp.sigma2_u
        assert NESTED_NOTE in report.warnings
        assert MAX_RULE_NOTE not in report.warnings

    def test_dof_scaled_helpers_match_components(self, rng):
        n, T, K = 20, 8, 1
        panel = random_panel(rng, n, T, K)
        fit1, fit2 = fit_pair(panel, random_groups(rng, n, 3))
        comp = classic_components(fit1, fit2)
        factor = n * T / (n * (T - 1) - K)
        assert dof_factor(fit1) == dof_factor(fit2) == pytest.approx(factor)
        assert comp.bias_1 == pytest.approx(factor * bias_correction(fit1), rel=1e-12)
        assert comp.bias_2 == pytest.approx(factor * bias_correction(fit2), rel=1e-12)
        assert comp.mqlr == pytest.approx(
            ((fit1.loglik - comp.bias_1) - (fit2.loglik - comp.bias_2)) / np.sqrt(n * T),
            rel=1e-12, abs=1e-14)
        assert mqlr_classic(fit1, fit2) == comp.mqlr
        _, s_u_raw, _ = variance_components(fit1, fit2, comp.mqlr)
        assert comp.sigma2_u_raw == pytest.approx(s_u_raw, rel=1e-12, abs=1e-14)
        assert comp.sigma2_u > comp.sigma2_u_raw

    def test_different_families_keep_max_rule(self, rng):
        n, T = 16, 10
        panel = random_panel(rng, n, T, 1)
        spec1 = ModelSpec(gaussian_fixed_scale(1), individual_groups(n))
        spec2 = ModelSpec(gaussian_full_scale(1), random_groups(rng, n, 4))
        report = run_classic_test(panel, spec1, spec2)
        comp = report.components
        first = comp.sigma2_nt + comp.sigma2_u - 2.0 * comp.sigma2_s
        assert not comp.nested
        assert comp.omega2 == max(first, comp.sigma2_u)
        assert comp.omega2 == omega2_hybrid(comp.sigma2_nt, comp.sigma2_u, comp.sigma2_s)
        assert NESTED_NOTE not in report.warnings
        assert (MAX_RULE_NOTE in report.warnings) == (comp.sigma2_u > first)

    def test_full_scale_plug_ins_stay_raw(self, rng):
        # the full-scale scores are divided by RSS/(nT), so the derived dof
        # factor is 1 and the test uses the raw moments
        n, T = 16, 10
        panel = random_panel(rng, n, T, 1)
        fit1 = fit_model(panel, ModelSpec(gaussian_full_scale(1), individual_groups(n)))
        fit2 = fit_model(panel, ModelSpec(gaussian_full_scale(1), random_groups(rng, n, 4)))
        comp = classic_components(fit1, fit2)
        assert dof_factor(fit1) == dof_factor(fit2) == 1.0
        assert comp.nested
        assert comp.bias_1 == bias_correction(fit1)
        assert comp.sigma2_u == comp.sigma2_u_raw
        assert comp.mqlr == mqlr_classic(fit1, fit2)

    def test_closed_form_fit_keeps_the_callers_spec(self, rng):
        # a unit-scale family with the factor switched off must not come back
        # with it on from the closed-form path
        n, T = 16, 10
        panel = random_panel(rng, n, T, 1)
        family = dataclasses.replace(gaussian_fixed_scale(1), dof_rescaled=False)
        spec = ModelSpec(family, random_groups(rng, n, 4))
        fit = fit_model(panel, spec)
        assert fit.spec is spec
        assert fit.iterations == 0   # the closed form: profile-Newton takes a step
        assert dof_factor(fit) == dof_factor(fit_profile_mle(panel, spec)) == 1.0
        fit_1 = fit_model(panel, ModelSpec(gaussian_fixed_scale(1), individual_groups(n)))
        assert classic_components(fit_1, fit).nested

    def test_custom_families_sharing_a_name_keep_max_rule(self, rng):
        # two different likelihoods under one name and d_theta: the name does
        # not make them one family, so nothing certifies the nesting
        def gaussian(scale):
            def psi(y, x, theta, gamma):
                return -0.5 * (y - x[..., 0] * theta[0] - gamma) ** 2 / scale

            def psi_theta(y, x, theta, gamma):
                return x * ((y - x[..., 0] * theta[0] - gamma) / scale)[..., None]

            def psi_gamma(y, x, theta, gamma):
                return (y - x[..., 0] * theta[0] - gamma) / scale

            def psi_gammagamma(y, x, theta, gamma):
                return np.full(np.shape(y), -1.0 / scale)
            return LikelihoodFamily("gaussian", 1, psi, psi_theta, psi_gamma, psi_gammagamma)

        n, T = 16, 10
        panel = random_panel(rng, n, T, 1)
        spec1 = ModelSpec(gaussian(1.0), individual_groups(n))
        spec2 = ModelSpec(gaussian(2.0), random_groups(rng, n, 4))
        report = run_classic_test(panel, spec1, spec2)
        comp = report.components
        assert not comp.nested
        assert comp.omega2 == omega2_hybrid(comp.sigma2_nt, comp.sigma2_u, comp.sigma2_s)
        assert NESTED_NOTE not in report.warnings

    def test_shipped_family_of_another_k_rejected(self, rng):
        # gaussian_fixed_scale(2) on a K = 1 panel would otherwise be fitted
        # with one slope and take the dof factor of two
        panel = random_panel(rng, 8, 6, 1)
        family = gaussian_fixed_scale(2)
        spec1 = ModelSpec(family, individual_groups(8))
        spec2 = ModelSpec(family, random_groups(rng, 8, 2))
        with pytest.raises(DomainError, match=r"shape \(1,\), expected \(2,\)"):
            run_classic_test(panel, spec1, spec2)

    def test_identical_specs_with_covariates_degenerate(self, rng):
        # identical specs get identical dof factors, so the statistic and
        # sigma2_u vanish exactly even with estimated common parameters
        panel = random_panel(rng, 7, 5, 1)
        spec = ModelSpec(gaussian_fixed_scale(1), individual_groups(7))
        report = run_classic_test(panel, spec, spec)
        assert report.components.mqlr == 0.0
        assert report.components.sigma2_u == pytest.approx(0.0, abs=1e-14)
        assert report.degenerate
        assert report.degenerate_reason == "models indistinguishable"

    def test_no_residual_dof_rejected_before_fitting(self, rng):
        # n(T - 1) = K: the dof factor would divide by zero
        panel = random_panel(rng, 2, 2, 2)
        spec1 = ModelSpec(gaussian_fixed_scale(2), individual_groups(2))
        spec2 = ModelSpec(gaussian_fixed_scale(2), pooled_groups(2))
        with pytest.raises(TooSmall, match="no residual degrees of freedom"):
            run_classic_test(panel, spec1, spec2)

    def test_cli_default_families_take_nested_path(self, tmp_path, capsys, rng):
        n, T = 8, 6
        x = rng.normal(size=(n, T, 1))
        y = rng.normal(0.0, 1.0, n)[:, None] + x[..., 0] + rng.normal(size=(n, T))
        path = tmp_path / "panel.csv"
        write_panel_csv(path, y, x, groups=["a", "a", "a", "b", "b", "c", "c", "c"])
        args = ["test", "classic", "--input", str(path), "--x-cols", "x1",
                "--model2-group-col", "region"]
        assert main(args) == 0
        first = capsys.readouterr().out
        doc = json.loads(first)
        comp = doc["components"]
        assert NESTED_NOTE in doc["warnings"]
        assert comp["sigma2_nt"] + comp["sigma2_u"] - 2.0 * comp["sigma2_s"] > comp["sigma2_u"]
        assert comp["omega2"] == comp["sigma2_u"]
        assert doc["test"]["omega2_hat"] == comp["sigma2_u"]
        assert main(args) == 0
        assert capsys.readouterr().out == first


    def test_cli_full_scale_where_profile_newton_diverges(self, tmp_path, capsys):
        # kind C, seed 1, rep 0 at n=T=100: profile-Newton diverges on model 1
        # (ROADMAP D1), the closed form does not
        config = DgpConfig(kind="C", n=100, T=100, G=10, K=1, master_seed=1)
        panel, gmap = generate(config, 0)
        path = tmp_path / "panel.csv"
        write_panel_csv(path, panel.y, panel.x, groups=[f"g{c}" for c in gmap.codes])
        assert main(["test", "classic", "--input", str(path), "--x-cols", "x1",
                     "--model2-group-col", "region", "--model1-family", "gaussian-full-scale",
                     "--model2-family", "gaussian-full-scale"]) == 0
        family = gaussian_full_scale(1)
        expected = run_classic_test(panel, ModelSpec(family, individual_groups(100)),
                                    ModelSpec(family, gmap))
        assert json.loads(capsys.readouterr().out)["test"]["statistic"] == expected.statistic


class TestFullScaleCentering:
    def test_mean_numerator_within_three_se(self):
        # the bias-corrected numerator mqlr * sqrt(nT) of the full-scale
        # family, with dof factor 1, is centered on the kind-C null: every
        # replication is fitted (the closed form never diverges), and the
        # seed, R and bound were fixed before the first run
        n, R = 50, 3000
        config = DgpConfig(kind="C", n=n, T=n, G=10, K=1, master_seed=778)
        family = gaussian_full_scale(1)
        spec_1 = ModelSpec(family, individual_groups(n))
        numerators = np.empty(R)
        for rep in range(R):
            panel, gmap = generate(config, rep)
            report = run_classic_test(panel, spec_1, ModelSpec(family, gmap))
            numerators[rep] = report.components.mqlr * np.sqrt(n * n)
        mean, se = numerators.mean(), numerators.std(ddof=1) / np.sqrt(R)
        assert abs(mean) <= 3.0 * se, f"mean {mean:+.4f}, se {se:.4f}"
