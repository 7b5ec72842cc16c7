"""Closed-form estimators against brute-force dummy regressions, and the
profile-Newton path against the closed forms."""

import dataclasses
import warnings

import numpy as np
import pytest

from conftest import (blocks_from_sizes, dummy_ols_cells, dummy_ols_twfe, pooled_groups,
                      random_groups, random_panel)
from oracles import foc_residuals
from panelvuong import estimation
from panelvuong import (DgpConfig, LikelihoodFamily, ModelSpec, TimeGroupMap, block_groups,
                        fit_grouped_time, fit_linear_cells, fit_model, fit_profile_mle,
                        fit_twfe, gaussian_fixed_scale, gaussian_full_scale, generate,
                        individual_groups, make_panel, run_twfe_test)
from panelvuong.errors import (DomainError, GroupingViolation, NoConvergence,
                               RankDeficient, SingularInformation)
from panelvuong.panel import GroupMap, single_block


def rel_gap(a, b):
    return np.max(np.abs(np.asarray(a) - np.asarray(b))) / max(
        1.0, np.max(np.abs(np.asarray(b))) if np.asarray(b).size else 1.0)


class TestFitLinearCells:
    def test_within_estimator_reduction(self, rng):
        # G = n, M = 1 reduces to the within estimator
        panel = random_panel(rng, 8, 6, 1)
        fit = fit_linear_cells(panel, individual_groups(8))
        xbar = panel.x.mean(axis=1)
        ybar = panel.y.mean(axis=1)
        assert np.allclose(fit.gamma[:, 0], ybar - xbar @ fit.theta, atol=1e-12)

    def test_time_effect_reduction(self, rng):
        # G = 1, M = T gives one effect per period
        panel = random_panel(rng, 8, 6, 1)
        mmap = TimeGroupMap(codes=np.arange(6))
        fit = fit_linear_cells(panel, pooled_groups(8), mmap)
        xbar = panel.x.mean(axis=0)
        ybar = panel.y.mean(axis=0)
        assert np.allclose(fit.gamma[0, :], ybar - xbar @ fit.theta, atol=1e-12)

    def test_rank_deficient_constant_covariate(self, rng):
        # x constant within every cell has no within variation
        gmap = GroupMap(codes=np.array([0, 0, 1, 1]))
        x = np.ones((4, 2, 1)) * gmap.codes[:, None, None]
        panel = make_panel(rng.normal(size=(4, 2)), x)
        with pytest.raises(RankDeficient):
            fit_linear_cells(panel, gmap)

    def test_matches_dummy_ols(self, rng):
        for _ in range(10):
            n, T, K = rng.integers(4, 12), rng.integers(3, 9), rng.integers(1, 3)
            panel = random_panel(rng, n, T, K)
            gmap = random_groups(rng, n, rng.integers(1, 4))
            mmap = blocks_from_sizes([T // 2, T - T // 2])
            fit = fit_linear_cells(panel, gmap, mmap)
            theta, gamma, resid = dummy_ols_cells(panel, gmap, mmap)
            assert rel_gap(fit.theta, theta) < 1e-8
            assert rel_gap(fit.gamma, gamma) < 1e-8

    def test_foc_exact(self, rng):
        panel = random_panel(rng, 10, 5, 2)
        gmap = random_groups(rng, 10, 3)
        fit = fit_linear_cells(panel, gmap)
        t_norm, c_norm = foc_residuals(panel, fit)
        assert t_norm < 1e-9
        assert c_norm < 1e-9

    def test_info_is_minus_one(self, rng):
        panel = random_panel(rng, 6, 4, 0)
        fit = fit_linear_cells(panel, pooled_groups(6))
        assert np.all(fit.info_gamma == -1.0)


class TestFitGroupedTime:
    def test_no_covariates_cell_means(self, rng):
        panel = random_panel(rng, 9, 5, 0)
        gmap = random_groups(rng, 9, 3)
        fit = fit_grouped_time(panel, gmap)
        for g in range(3):
            members = np.flatnonzero(gmap.codes == g)
            assert np.allclose(fit.gamma_gt[g], panel.y[members].mean(axis=0))

    def test_saturated_zero_residuals(self, rng):
        panel = random_panel(rng, 6, 4, 0)
        fit = fit_grouped_time(panel, individual_groups(6))
        assert np.allclose(fit.residuals, 0.0, atol=1e-14)

    def test_matches_linear_cells_with_time_identity(self, rng):
        panel = random_panel(rng, 10, 6, 1)
        gmap = random_groups(rng, 10, 3)
        mmap = TimeGroupMap(codes=np.arange(6))
        fit_a = fit_grouped_time(panel, gmap)
        fit_b = fit_linear_cells(panel, gmap, mmap)
        assert rel_gap(fit_a.theta, fit_b.theta) < 1e-10
        assert rel_gap(fit_a.gamma_gt, fit_b.gamma) < 1e-10

    def test_residual_zero_sum_per_cell(self, rng):
        panel = random_panel(rng, 12, 5, 2)
        gmap = random_groups(rng, 12, 4)
        fit = fit_grouped_time(panel, gmap)
        for g in range(4):
            sums = fit.residuals[np.flatnonzero(gmap.codes == g)].sum(axis=0)
            assert np.max(np.abs(sums)) < 1e-12 * max(1.0, np.abs(panel.y).max())


class TestFitTwfe:
    def test_additive_data_fit_exactly(self, rng):
        a = rng.normal(size=6)[:, None]
        b = rng.normal(size=5)[None, :]
        fit = fit_twfe(make_panel(a + b))
        assert np.allclose(fit.residuals, 0.0, atol=1e-13)

    def test_hand_computed_two_by_two(self):
        fit = fit_twfe(make_panel([[1.0, 2.0], [3.0, 4.0]]))
        assert np.allclose(fit.alpha, [1.5, 3.5])
        assert np.allclose(fit.delta, [-0.5, 0.5])
        assert np.allclose(fit.residuals, 0.0, atol=1e-14)

    def test_matches_dummy_ols(self, rng):
        for _ in range(10):
            n, T, K = rng.integers(4, 12), rng.integers(3, 9), rng.integers(1, 3)
            panel = random_panel(rng, n, T, K)
            fit = fit_twfe(panel)
            theta, alpha, delta, resid = dummy_ols_twfe(panel)
            assert rel_gap(fit.theta, theta) < 1e-8
            assert rel_gap(fit.alpha, alpha) < 1e-8
            assert rel_gap(fit.delta, delta) < 1e-8

    def test_normalization_and_zero_sums(self, rng):
        panel = random_panel(rng, 9, 7, 1)
        fit = fit_twfe(panel)
        scale = max(1.0, np.abs(panel.y).max())
        assert abs(fit.delta.sum()) < 1e-12 * scale
        assert np.max(np.abs(fit.residuals.sum(axis=1))) < 1e-11 * scale
        assert np.max(np.abs(fit.residuals.sum(axis=0))) < 1e-11 * scale


class TestFitProfileMle:
    def test_individual_effects_no_covariates(self, rng):
        panel = random_panel(rng, 7, 5, 0)
        spec = ModelSpec(gaussian_fixed_scale(0), individual_groups(7))
        fit = fit_profile_mle(panel, spec)
        ybar = panel.y.mean(axis=1)
        assert np.allclose(fit.gamma[:, 0], ybar, atol=1e-12)
        assert fit.loglik == pytest.approx(-0.5 * ((panel.y - ybar[:, None]) ** 2).sum())

    def test_matches_dummy_ols_with_covariate(self, rng):
        panel = random_panel(rng, 8, 6, 1)
        gmap = random_groups(rng, 8, 3)
        spec = ModelSpec(gaussian_fixed_scale(1), gmap)
        fit = fit_profile_mle(panel, spec)
        theta, gamma, _ = dummy_ols_cells(panel, gmap, single_block(6))
        assert rel_gap(fit.theta, theta) < 1e-8
        assert rel_gap(fit.gamma, gamma) < 1e-8

    def test_foc_within_tolerance(self, rng):
        panel = random_panel(rng, 8, 6, 2)
        spec = ModelSpec(gaussian_fixed_scale(2), random_groups(rng, 8, 3))
        fit = fit_profile_mle(panel, spec)
        t_norm, c_norm = foc_residuals(panel, fit)
        assert t_norm <= 1e-10
        assert c_norm <= 1e-10

    def test_full_scale_matches_closed_form(self, rng):
        panel = random_panel(rng, 8, 6, 1)
        gmap = random_groups(rng, 8, 3)
        full = fit_profile_mle(panel, ModelSpec(gaussian_full_scale(1), gmap))
        cells = fit_linear_cells(panel, gmap)
        # beta agrees with the unit-scale fit; the scale is the mean squared residual
        assert rel_gap(full.theta[:-1], cells.theta) < 1e-7
        sigma2 = ((-2.0) * cells.loglik) / (panel.n * panel.T)
        assert full.theta[-1] == pytest.approx(sigma2, rel=1e-7)

    def test_time_blocks(self, rng):
        panel = random_panel(rng, 6, 6, 0)
        mmap = blocks_from_sizes([3, 3])
        spec = ModelSpec(gaussian_fixed_scale(0), pooled_groups(6), mmap)
        fit = fit_profile_mle(panel, spec)
        assert fit.gamma.shape == (1, 2)
        assert fit.gamma[0, 0] == pytest.approx(panel.y[:, :3].mean())

    def test_degenerate_scale_raises(self):
        # an exactly fitted panel sends the scale estimate s² to 0
        y = np.outer(np.arange(4.0), np.ones(4))
        panel = make_panel(y)
        spec = ModelSpec(gaussian_full_scale(0), individual_groups(4))
        with pytest.raises((SingularInformation, NoConvergence)):
            fit_profile_mle(panel, spec)

    def test_unit_permutation_invariance(self, rng):
        panel = random_panel(rng, 8, 5, 1)
        gmap = GroupMap(codes=np.array([0, 0, 0, 0, 1, 1, 1, 1]))
        spec = ModelSpec(gaussian_fixed_scale(1), gmap)
        fit = fit_profile_mle(panel, spec)
        # swap two units inside group 0 and two inside group 1
        perm = np.array([1, 0, 2, 3, 5, 4, 6, 7])
        permuted = make_panel(panel.y[perm], panel.x[perm])
        fit_p = fit_profile_mle(permuted, spec)
        assert np.allclose(fit.theta, fit_p.theta, atol=1e-10)
        assert fit.loglik == pytest.approx(fit_p.loglik, abs=1e-8)
        assert np.allclose(fit.gamma, fit_p.gamma, atol=1e-10)

    def test_group_label_permutation(self, rng):
        panel = random_panel(rng, 6, 4, 0)
        gmap = GroupMap(codes=np.array([0, 0, 1, 1, 2, 2]))
        relabeled = GroupMap(codes=np.array([2, 2, 0, 0, 1, 1]))
        fit = fit_profile_mle(panel, ModelSpec(gaussian_fixed_scale(0), gmap))
        fit_r = fit_profile_mle(panel, ModelSpec(gaussian_fixed_scale(0), relabeled))
        assert fit.loglik == pytest.approx(fit_r.loglik, abs=1e-10)
        assert np.allclose(fit.gamma[[0, 1, 2]], fit_r.gamma[[2, 0, 1]], atol=1e-12)

    def test_info_strictly_negative(self, rng):
        panel = random_panel(rng, 6, 5, 1)
        fit = fit_profile_mle(panel, ModelSpec(gaussian_fixed_scale(1),
                                               random_groups(rng, 6, 2)))
        assert np.all(fit.info_gamma < 0)
        assert np.allclose(fit.info_gamma, -1.0)

    def test_step_on_last_iteration_counts(self, rng, monkeypatch):
        # the unit-scale objective is quadratic in theta, so one Newton step
        # converges; a budget of one outer iteration must accept that step
        panel = random_panel(rng, 20, 8, 1)
        gmap = block_groups(20, 4)
        monkeypatch.setattr(estimation, "MAX_ITER", 1)
        fit = fit_profile_mle(panel, ModelSpec(gaussian_fixed_scale(1), gmap))
        assert rel_gap(fit.theta, fit_linear_cells(panel, gmap).theta) < 1e-8
        assert fit.iterations == 1

    @pytest.mark.parametrize("budget", [1, 100])
    def test_iterations_count_newton_steps(self, rng, monkeypatch, budget):
        # one step solves the quadratic objective whatever the budget, and a
        # start at the optimum takes none
        panel = random_panel(rng, 20, 8, 1)
        gmap = block_groups(20, 4)
        monkeypatch.setattr(estimation, "MAX_ITER", budget)
        family = gaussian_fixed_scale(1)
        assert fit_profile_mle(panel, ModelSpec(family, gmap)).iterations == 1
        exact = fit_linear_cells(panel, gmap).theta
        at_optimum = dataclasses.replace(family, init_theta=lambda _: exact)
        assert fit_profile_mle(panel, ModelSpec(at_optimum, gmap)).iterations == 0

    def test_profiled_effect_is_cell_mean_residual(self, rng):
        # the unit-scale family maximizes at the mean residual of each cell
        panel = random_panel(rng, 6, 4, 1)
        gmap = random_groups(rng, 6, 2)
        fit = fit_profile_mle(panel, ModelSpec(gaussian_fixed_scale(1), gmap))
        work = panel.y - panel.x @ fit.theta
        for g in range(2):
            assert fit.gamma[g, 0] == pytest.approx(work[np.flatnonzero(gmap.codes == g)].mean())


class TestProfileFailures:
    """Each failure branch of fit_profile_mle raises its typed error."""

    def test_convex_family_not_negative(self, rng):
        # psi = +(y - gamma)^2 / 2 has a stationary point at each cell mean,
        # a minimum, which the final pass must refuse
        family = LikelihoodFamily(
            "convex", 0, lambda y, x, th, g: 0.5 * (y - g) ** 2,
            lambda y, x, th, g: np.zeros(np.shape(y) + (0,)),
            lambda y, x, th, g: g - y, lambda y, x, th, g: np.ones(np.shape(y)))
        panel = random_panel(rng, 6, 4, 0)
        with pytest.raises(SingularInformation, match="not negative"):
            fit_profile_mle(panel, ModelSpec(family, random_groups(rng, 6, 2)))

    def test_init_theta_of_wrong_shape(self, rng):
        family = dataclasses.replace(gaussian_fixed_scale(1), init_theta=lambda _: np.zeros(2))
        with pytest.raises(DomainError, match=r"shape \(2,\), expected \(1,\)"):
            fit_profile_mle(random_panel(rng, 6, 4, 1), ModelSpec(family, random_groups(rng, 6, 2)))

    def test_outer_iteration_limit(self, rng, monkeypatch):
        # the full-scale objective needs more than one Newton step on theta
        monkeypatch.setattr(estimation, "MAX_ITER", 1)
        spec = ModelSpec(gaussian_full_scale(1), block_groups(20, 4))
        with pytest.raises(NoConvergence, match="outer iteration limit 1 reached"):
            fit_profile_mle(random_panel(rng, 20, 8, 1), spec)

    def test_no_improving_step(self, rng, monkeypatch):
        # the start profile converges at its seed without halving; the first
        # theta step then has no halvings to try
        monkeypatch.setattr(estimation, "MAX_HALVINGS", 0)
        spec = ModelSpec(gaussian_fixed_scale(1), block_groups(20, 4))
        with pytest.raises(NoConvergence, match="no improving step after 0 halvings"):
            fit_profile_mle(random_panel(rng, 20, 8, 1), spec)


def kind_c_panel(rep):
    """Replication ``rep`` of the kind-C null at n=T=100, G=10, K=1, seed 1."""
    return generate(DgpConfig(kind="C", n=100, T=100, G=10, K=1, master_seed=1), rep)


def rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)) / np.abs(np.asarray(b))))


class TestFitModel:
    """fit_model: both shipped Gaussian families in closed form, chosen by
    family identity; every other family by profile-Newton."""

    @pytest.fixture
    def no_profile(self, monkeypatch):
        def refuse(panel, spec):
            raise AssertionError("fit_model called fit_profile_mle")
        monkeypatch.setattr(estimation, "fit_profile_mle", refuse)

    @pytest.mark.parametrize("K", [0, 1, 2])
    @pytest.mark.parametrize("blocks", [None, [3, 4]], ids=["M1", "M2"])
    @pytest.mark.parametrize("maker", [gaussian_fixed_scale, gaussian_full_scale])
    def test_shipped_families_take_the_closed_form(self, rng, no_profile, maker, blocks, K):
        panel = random_panel(rng, 10, 7, K)
        mmap = None if blocks is None else blocks_from_sizes(blocks)
        fit = fit_model(panel, ModelSpec(maker(K), random_groups(rng, 10, 3), mmap))
        assert fit.iterations == 0
        assert fit.theta.shape == (maker(K).d_theta,)

    @pytest.mark.parametrize("K, blocks", [(0, None), (1, None), (2, [3, 4]), (1, [2, 2, 3])])
    def test_full_scale_matches_profile_newton(self, rng, K, blocks):
        # the closed form's first-order conditions hold to rounding, while
        # profile-Newton stops once its theta score is below TOL = 1e-10: on
        # 70 observations that leaves its theta up to ~1e-12 relative off
        # (1.1e-12 with three time blocks), so theta is compared at 1e-10
        panel = random_panel(rng, 10, 7, K)
        mmap = None if blocks is None else blocks_from_sizes(blocks)
        spec = ModelSpec(gaussian_full_scale(K), random_groups(rng, 10, 3), mmap)
        closed, profiled = fit_model(panel, spec), fit_profile_mle(panel, spec)
        assert max(foc_residuals(panel, closed)) < 1e-12
        assert rel(closed.theta, profiled.theta) < 1e-10
        assert rel(closed.loglik, profiled.loglik) < 1e-12

    @pytest.mark.parametrize("rep", [2, 3])
    def test_full_scale_on_kind_c(self, rep):
        # profile-Newton converges on both models of these replications
        panel, gmap = kind_c_panel(rep)
        for g in (individual_groups(100), gmap):
            spec = ModelSpec(gaussian_full_scale(1), g)
            closed, profiled = fit_model(panel, spec), fit_profile_mle(panel, spec)
            assert rel(closed.theta, profiled.theta) < 1e-12
            assert rel(closed.loglik, profiled.loglik) < 1e-12

    def test_full_scale_where_profile_newton_diverges(self):
        # rep 0, individual effects: profile-Newton escapes to infinity
        # (ROADMAP D1); the closed form answers with beta of the unit-scale
        # fit, s^2 = RSS / (nT) and first-order conditions at rounding level
        panel, _ = kind_c_panel(0)
        spec = ModelSpec(gaussian_full_scale(1), individual_groups(100))
        with pytest.raises(SingularInformation, match="parameters diverging"):
            fit_profile_mle(panel, spec)
        fit = fit_model(panel, spec)
        fixed = fit_linear_cells(panel, individual_groups(100))
        assert fit.theta[0] == fixed.theta[0]
        assert fit.theta[1] == np.sum(fixed.score_gamma ** 2) / (100 * 100)
        assert np.allclose(fit.info_gamma, -1.0 / fit.theta[1], rtol=1e-14, atol=0.0)
        t_norm, c_norm = foc_residuals(panel, fit)
        assert t_norm < 1e-9 and c_norm < 1e-9

    def test_exactly_fitted_panel_raises(self):
        panel = make_panel(np.outer(np.arange(4.0), np.ones(4)))
        spec = ModelSpec(gaussian_full_scale(0), individual_groups(4))
        with pytest.raises(SingularInformation, match="RSS = 0"):
            fit_model(panel, spec)

    def test_custom_family_named_like_a_shipped_one_takes_profile_newton(self):
        # the Poisson-type family under the fixed-scale Gaussian's name: least
        # squares would report -45.6, the Poisson profile maximum is 17.5
        family = dataclasses.replace(poisson_family(0), name="gaussian-fixed-scale")
        panel = make_panel(np.random.default_rng(0).poisson(3, size=(6, 5)).astype(float))
        spec = ModelSpec(family, individual_groups(6))
        fit = fit_model(panel, spec)
        assert fit.loglik == fit_profile_mle(panel, spec).loglik
        assert fit.loglik == pytest.approx(17.4897, abs=1e-4)
        assert fit_linear_cells(panel, individual_groups(6)).loglik == pytest.approx(-45.6)

    def test_shipped_family_of_another_k_takes_profile_newton(self, rng):
        # gaussian_fixed_scale(2) on a K = 1 panel is not the panel's family:
        # profile-Newton refuses its one-entry start for d_theta = 2
        spec = ModelSpec(gaussian_fixed_scale(2), individual_groups(8))
        with pytest.raises(DomainError, match=r"shape \(1,\), expected \(2,\)"):
            fit_model(random_panel(rng, 8, 6, 1), spec)


def scalar_profile_mle(panel, spec, tol=1e-10, max_iter=100, inner_tol=1e-12,
                       max_halvings=30):
    """Oracle: profile-Newton with a scalar safeguarded Newton per cell.

    Each (group, block) cell is sliced out with ``np.ix_`` and its effect
    solved on its own, with the same convergence floor, float-spacing stop,
    curvature check, budgets and acceptance rule as ``fit_profile_mle``; a
    ``DomainError`` halves the step of that one cell.  The theta Jacobian
    keeps the direct form: central differences of the profiled score, the
    profile re-solved at theta +- h, where ``fit_profile_mle`` takes the
    implicit-function form at fixed effects.  Returns (theta, gamma).
    """
    family, gmap = spec.family, spec.gmap
    mmap = spec.time_map(panel.T)
    eps = np.finfo(float).eps
    cells = [[(np.flatnonzero(gmap.codes == g), np.where(mmap.codes == m)[0])
              for m in range(mmap.M)] for g in range(gmap.G)]

    def solve_cell(yc, xc, th, gam):
        scores = family.psi_gamma(yc, xc, th, gam)
        s = float(scores.sum())
        for _ in range(100):
            floor = max(inner_tol, 8.0 * eps * float(np.abs(scores).sum()))
            if abs(s) <= floor:
                return gam
            h = float(family.psi_gammagamma(yc, xc, th, gam).sum())
            if abs(h) / yc.size < 1e-12:
                raise SingularInformation("cell curvature below tolerance")
            step = -s / h
            if abs(step) <= 4.0 * eps * max(1.0, abs(gam)):
                return gam
            lam = 1.0
            for _ in range(max_halvings):
                try:
                    scores_new = family.psi_gamma(yc, xc, th, gam + lam * step)
                except DomainError:
                    lam *= 0.5
                    continue
                s_new = float(scores_new.sum())
                if abs(s_new) < abs(s) or abs(s_new) <= floor:
                    gam += lam * step
                    scores, s = scores_new, s_new
                    break
                lam *= 0.5
            else:
                raise NoConvergence("cell effect stalled")
        raise NoConvergence("cell effect did not reach tolerance")

    def profile(th, gam_start):
        gam = np.empty_like(gam_start)
        for g in range(gmap.G):
            for m in range(mmap.M):
                ix = np.ix_(*cells[g][m])
                gam[g, m] = solve_cell(panel.y[ix], panel.x[ix], th, float(gam_start[g, m]))
        return gam

    def theta_score(th, gam):
        st = family.psi_theta(panel.y, panel.x, th, gam[gmap.codes[:, None], mmap.codes[None, :]])
        return st.reshape(-1, family.d_theta).sum(axis=0)

    theta = (np.asarray(family.init_theta(panel), float) if family.init_theta
             else np.zeros(family.d_theta))
    gamma = np.zeros((gmap.G, mmap.M))
    if family.working_residual is not None:
        work = family.working_residual(panel.y, panel.x, theta)
        for g in range(gmap.G):
            for m in range(mmap.M):
                gamma[g, m] = work[np.ix_(*cells[g][m])].mean()
    gamma = profile(theta, gamma)
    if not family.d_theta:
        return theta, gamma
    score = theta_score(theta, gamma)
    for _ in range(max_iter):
        st = family.psi_theta(panel.y, panel.x, theta,
                              gamma[gmap.codes[:, None], mmap.codes[None, :]])
        floor = 8.0 * eps * float(np.abs(st.reshape(-1, family.d_theta)).sum(axis=0).max())
        if np.max(np.abs(score)) <= max(tol, floor):
            return theta, gamma
        jac = np.empty((family.d_theta, family.d_theta))
        for k in range(family.d_theta):
            dk = np.zeros_like(theta)
            dk[k] = 1e-6 * max(1.0, abs(theta[k]))
            jac[:, k] = (theta_score(theta + dk, profile(theta + dk, gamma))
                         - theta_score(theta - dk, profile(theta - dk, gamma))) / (2.0 * dk[k])
        step = np.linalg.solve(jac, -score)
        lam = 1.0
        for _ in range(max_halvings):
            try:
                theta_new = theta + lam * step
                gamma_new = profile(theta_new, gamma)
                score_new = theta_score(theta_new, gamma_new)
            except DomainError:
                lam *= 0.5
                continue
            if np.max(np.abs(score_new)) < np.max(np.abs(score)) \
                    or np.max(np.abs(score_new)) <= tol:
                theta, gamma, score = theta_new, gamma_new, score_new
                break
            lam *= 0.5
        else:
            raise NoConvergence("no improving step")
    raise NoConvergence("outer iteration limit reached")


def poisson_family(K, gamma_cap=None, domain_errors=None):
    """psi = y * eta - exp(eta), eta = x'theta + gamma, effects seeded at 0.

    With ``gamma_cap`` every callable raises ``DomainError`` when some effect
    exceeds the cap; each raise is appended to ``domain_errors``.
    """
    def eta(x, theta, gamma):
        if gamma_cap is not None and np.max(gamma) > gamma_cap:
            domain_errors.append(float(np.max(gamma)))
            raise DomainError(f"effect above {gamma_cap}")
        return (x @ theta if K else np.zeros(x.shape[:-1])) + gamma

    def psi(y, x, theta, gamma):
        e = eta(x, theta, gamma)
        return y * e - np.exp(e)

    def psi_theta(y, x, theta, gamma):
        return x * (y - np.exp(eta(x, theta, gamma)))[..., None]

    def psi_gamma(y, x, theta, gamma):
        return y - np.exp(eta(x, theta, gamma))

    def psi_gammagamma(y, x, theta, gamma):
        return -np.exp(eta(x, theta, gamma))

    return LikelihoodFamily("poisson-test", K, psi, psi_theta, psi_gamma, psi_gammagamma)


def poisson_panel(rng, gmap, mmap, T, K, levels):
    """Counts with the cell log-rates ``levels``, repeated over the cells in
    order, and slope 0.3."""
    x = rng.normal(size=(gmap.n, T, K)) * 0.5
    gamma = np.resize(levels, (gmap.G, mmap.M))
    eta = gamma[gmap.codes[:, None], mmap.codes[None, :]] + (x @ np.full(K, 0.3) if K else 0.0)
    return make_panel(rng.poisson(np.exp(eta)).astype(float), x)


class TestScalarOracle:
    """The all-cells solver against the per-cell scalar solver it replaced."""

    def assert_matches_oracle(self, panel, spec):
        fit = fit_profile_mle(panel, spec)
        theta, gamma = scalar_profile_mle(panel, spec)
        if theta.size:
            assert rel_gap(fit.theta, theta) < 1e-10
        assert rel_gap(fit.gamma, gamma) < 1e-10
        return fit

    def test_time_blocks(self, rng):
        panel = random_panel(rng, 10, 7, 1)
        self.assert_matches_oracle(panel, ModelSpec(
            gaussian_fixed_scale(1), random_groups(rng, 10, 3), blocks_from_sizes([3, 4])))

    def test_no_covariates(self, rng):
        gmap, mmap = random_groups(rng, 9, 3), blocks_from_sizes([4, 4])
        panel = poisson_panel(rng, gmap, mmap, 8, 0, [0.3, 1.0, 2.0])
        fit = self.assert_matches_oracle(panel, ModelSpec(poisson_family(0), gmap, mmap))
        assert fit.theta.shape == (0,)

    def test_unequal_group_sizes(self, rng):
        panel = random_panel(rng, 10, 5, 2)
        gmap = GroupMap(codes=np.array([2, 1, 2, 2, 0, 2, 1, 2, 1, 2]))
        self.assert_matches_oracle(panel, ModelSpec(gaussian_fixed_scale(2), gmap))

    def test_full_scale(self, rng):
        panel = random_panel(rng, 8, 6, 1)
        self.assert_matches_oracle(panel, ModelSpec(gaussian_full_scale(1),
                                                    random_groups(rng, 8, 3)))

    def test_full_scale_two_covariates_time_blocks(self, rng):
        # two slopes give A and B cross terms; B's scale column is 0 at profiled effects
        panel = random_panel(rng, 10, 7, 2)
        self.assert_matches_oracle(panel, ModelSpec(
            gaussian_full_scale(2), random_groups(rng, 10, 3), blocks_from_sizes([3, 4])))

    def test_poisson_two_covariates_unequal_groups(self, rng):
        # each cell's curvature depends on theta, so A, B and H all move
        gmap = GroupMap(codes=np.array([2, 1, 2, 2, 0, 2, 1, 2, 1, 2, 0, 2]))
        panel = poisson_panel(rng, gmap, single_block(8), 8, 2, [0.3, 1.0, 1.8])
        fit = self.assert_matches_oracle(panel, ModelSpec(poisson_family(2), gmap))
        assert fit.iterations >= 2

    def test_poisson_cells_take_different_rounds(self, rng):
        gmap, mmap = random_groups(rng, 12, 3), blocks_from_sizes([5, 5])
        panel = poisson_panel(rng, gmap, mmap, 10, 1, [-0.5, 0.5, 1.5, 2.0])
        fit = self.assert_matches_oracle(panel, ModelSpec(poisson_family(1), gmap, mmap))
        assert fit.iterations >= 2

    def test_domain_error_on_part_of_the_range(self, rng):
        gmap = random_groups(rng, 12, 4)
        panel = poisson_panel(rng, gmap, single_block(8), 8, 1, [0.2, 1.0, 2.0])
        raised = []
        spec = ModelSpec(poisson_family(1, gamma_cap=3.0, domain_errors=raised), gmap)
        self.assert_matches_oracle(panel, spec)
        assert raised   # the first Newton step overshoots the cap

    @pytest.mark.parametrize("y_in_cell, d_theta", [(0.0, 0), (1.0, 0), (0.0, 1)],
                             ids=["0.0", "1.0", "0.0-theta"])
    def test_zero_curvature_cell_named(self, y_in_cell, d_theta):
        # psi = -w (y - theta z - gamma)^2 / 2 + (1 - w) y gamma, with x = (w, z)
        # and theta only when d_theta = 1: cell (2, 1) has w = 0, so its
        # curvature is 0.  With y = 1 there its score is nonzero and the solver
        # meets the flat cell; with y = 0 the cell starts converged, and the
        # theta Jacobian meets it (d_theta = 1, where dividing by the curvature
        # would warn 0/0) or else the final curvature check does
        def resid(y, x, theta, gamma):
            return y - (theta[0] * x[..., 1] if d_theta else 0.0) - gamma

        def psi(y, x, theta, gamma):
            w = x[..., 0]
            return -0.5 * w * resid(y, x, theta, gamma) ** 2 + (1.0 - w) * y * gamma

        def psi_theta(y, x, theta, gamma):
            score = x[..., 0] * x[..., 1] * resid(y, x, theta, gamma)
            return score[..., None][..., :d_theta]

        def psi_gamma(y, x, theta, gamma):
            w = x[..., 0]
            return w * resid(y, x, theta, gamma) + (1.0 - w) * y

        family = LikelihoodFamily("flat-cell", d_theta, psi, psi_theta, psi_gamma,
                                  lambda y, x, th, g: -x[..., 0] + 0.0 * g)
        gmap = GroupMap(codes=np.array([0, 0, 1, 1, 2, 2]))
        y = np.arange(18.0).reshape(6, 3)
        y[2:4] = y_in_cell
        x = np.stack([np.ones((6, 3)), np.linspace(-1.0, 2.0, 18).reshape(6, 3)], axis=-1)
        x[2:4, :, 0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularInformation, match=r"cell \(2, 1\)"):
                fit_profile_mle(make_panel(y, x), ModelSpec(family, gmap))


def counted(family, calls):
    """The family with psi_gamma and psi_gammagamma counting their calls."""
    def wrap(name):
        inner = getattr(family, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)
        return call
    return dataclasses.replace(family, psi_gamma=wrap("psi_gamma"),
                               psi_gammagamma=wrap("psi_gammagamma"))


class TestCellSizes:
    @pytest.mark.parametrize("sizes", [None, [3, 4], [1, 1, 5]], ids=["M1", "M2", "M3"])
    def test_sizes_match_bincount_of_ids(self, rng, sizes):
        for n, G in ((7, 1), (12, 3), (30, 6), (40, 9)):
            panel = random_panel(rng, n, 7, 0)
            mmap = single_block(7) if sizes is None else blocks_from_sizes(sizes)
            cells = estimation._Cells(panel, random_groups(rng, n, G), mmap)
            oracle = np.bincount(cells.ids.ravel(), minlength=cells.count)
            assert cells.size.tolist() == oracle.tolist()


class TestCellCountIndependence:
    def test_family_calls_do_not_grow_with_cells(self, rng):
        # deterministic guard on the cost: one pass per Newton round, not per cell
        panel = random_panel(rng, 50, 8, 1)
        per_g = {}
        for G in (5, 50):
            calls = {"psi_gamma": 0, "psi_gammagamma": 0}
            spec = ModelSpec(counted(gaussian_fixed_scale(1), calls), block_groups(50, G))
            fit = fit_profile_mle(panel, spec)
            per_g[G] = (fit.iterations, calls)
        assert per_g[5] == per_g[50]


class TestJacobianCost:
    def test_fixed_scale_fit_family_calls(self, rng):
        # deterministic guard on the cost: the unit-scale objective is
        # quadratic in theta, so the fit takes one Newton step, and each step
        # costs one Jacobian pass plus one trial profile:
        #   start profile, converged at its working-residual seed: 1 psi_gamma
        #   Jacobian pass, at fixed effects: 2 psi_gamma (theta +- h), 1 psi_gammagamma
        #   trial profile: 1 psi_gamma, then one round of 1 psi_gammagamma and
        #     1 psi_gamma, after which every cell score is within tolerance
        #   final curvature: 1 psi_gammagamma; the scores are the accepted
        #     trial profile's last ones, already at the returned effects
        panel = random_panel(rng, 20, 8, 1)
        calls = {"psi_gamma": 0, "psi_gammagamma": 0}
        spec = ModelSpec(counted(gaussian_fixed_scale(1), calls), block_groups(20, 4))
        assert fit_profile_mle(panel, spec).iterations == 1
        assert calls == {"psi_gamma": 5, "psi_gammagamma": 3}


class TestThetaScoreOnce:
    @pytest.mark.parametrize("family", [gaussian_fixed_scale(1), gaussian_full_scale(1)],
                             ids=["fixed_scale", "full_scale"])
    def test_psi_theta_never_repeats_a_point(self, rng, family):
        # deterministic guard on the cost: the stopping tolerance comes from
        # the same family call as the score it bounds
        panel = random_panel(rng, 30, 10, 1)
        points = []
        inner = family.psi_theta

        def psi_theta(y, x, theta, gamma):
            points.append((theta.tobytes(), gamma.tobytes()))
            return inner(y, x, theta, gamma)
        spec = ModelSpec(dataclasses.replace(family, psi_theta=psi_theta),
                         block_groups(30, 5))
        fit = fit_profile_mle(panel, spec)
        assert fit.iterations >= 1
        assert len(points) > 1
        assert len(set(points)) == len(points)


class TestGroupMapsCoverPanel:
    """Every entry point that takes a panel and a group map rejects a map of
    another size with a typed error, not a numpy broadcast error."""

    @pytest.mark.parametrize("call, error", [
        (lambda panel, short: fit_linear_cells(panel, short), RankDeficient),
        (lambda panel, short: fit_grouped_time(panel, short), RankDeficient),
        (lambda panel, short: fit_profile_mle(
            panel, ModelSpec(gaussian_full_scale(1), short)), RankDeficient),
        (lambda panel, short: run_twfe_test(panel, short), GroupingViolation),
    ], ids=["fit_linear_cells", "fit_grouped_time", "fit_profile_mle", "run_twfe_test"])
    def test_short_map_rejected(self, rng, call, error):
        panel = random_panel(rng, 6, 4, 1)
        with pytest.raises(error, match="covers? "):
            call(panel, block_groups(5, 2))
