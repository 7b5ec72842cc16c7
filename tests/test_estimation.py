"""Closed-form estimators against brute-force dummy regressions, and the
profile-Newton path against the closed forms."""

import dataclasses

import numpy as np
import pytest

from conftest import dummy_ols_cells, dummy_ols_twfe, random_groups, random_panel
from panelvuong import (LikelihoodFamily, ModelSpec, TimeGroupMap, block_groups,
                        fit_grouped_time, fit_linear_cells, fit_profile_mle,
                        fit_twfe, foc_residuals, gaussian_fixed_scale,
                        gaussian_full_scale, individual_groups, make_panel,
                        pooled_groups, single_block)
from panelvuong.errors import (DomainError, NoConvergence, RankDeficient,
                               SingularInformation)
from panelvuong.panel import GroupMap, blocks_from_sizes


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
        mmap = TimeGroupMap(codes=np.arange(6), M=6)
        fit = fit_linear_cells(panel, pooled_groups(8), mmap)
        xbar = panel.x.mean(axis=0)
        ybar = panel.y.mean(axis=0)
        assert np.allclose(fit.gamma[0, :], ybar - xbar @ fit.theta, atol=1e-12)

    def test_rank_deficient_constant_covariate(self, rng):
        # x constant within every cell has no within variation
        gmap = GroupMap(codes=np.array([0, 0, 1, 1]), G=2)
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
            members = gmap.members(g)
            assert np.allclose(fit.gamma_gt[g], panel.y[members].mean(axis=0))

    def test_saturated_zero_residuals(self, rng):
        panel = random_panel(rng, 6, 4, 0)
        fit = fit_grouped_time(panel, individual_groups(6))
        assert np.allclose(fit.residuals, 0.0, atol=1e-14)

    def test_matches_linear_cells_with_time_identity(self, rng):
        panel = random_panel(rng, 10, 6, 1)
        gmap = random_groups(rng, 10, 3)
        mmap = TimeGroupMap(codes=np.arange(6), M=6)
        fit_a = fit_grouped_time(panel, gmap)
        fit_b = fit_linear_cells(panel, gmap, mmap)
        assert rel_gap(fit_a.theta, fit_b.theta) < 1e-10
        assert rel_gap(fit_a.gamma_gt, fit_b.gamma) < 1e-10

    def test_residual_zero_sum_per_cell(self, rng):
        panel = random_panel(rng, 12, 5, 2)
        gmap = random_groups(rng, 12, 4)
        fit = fit_grouped_time(panel, gmap)
        for g in range(4):
            sums = fit.residuals[gmap.members(g)].sum(axis=0)
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
        # an exactly-fit panel sends the scale estimate to infinity
        y = np.outer(np.arange(4.0), np.ones(4))
        panel = make_panel(y)
        spec = ModelSpec(gaussian_full_scale(0), individual_groups(4))
        with pytest.raises((SingularInformation, NoConvergence)):
            fit_profile_mle(panel, spec)

    def test_unit_permutation_invariance(self, rng):
        panel = random_panel(rng, 8, 5, 1)
        gmap = GroupMap(codes=np.array([0, 0, 0, 0, 1, 1, 1, 1]), G=2)
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
        gmap = GroupMap(codes=np.array([0, 0, 1, 1, 2, 2]), G=3)
        relabeled = GroupMap(codes=np.array([2, 2, 0, 0, 1, 1]), G=3)
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

    def test_profiled_effect_is_cell_mean_residual(self, rng):
        # the unit-scale family maximizes at the mean residual of each cell
        panel = random_panel(rng, 6, 4, 1)
        gmap = random_groups(rng, 6, 2)
        fit = fit_profile_mle(panel, ModelSpec(gaussian_fixed_scale(1), gmap))
        work = panel.y - panel.x @ fit.theta
        for g in range(2):
            assert fit.gamma[g, 0] == pytest.approx(work[gmap.members(g)].mean())


def scalar_profile_mle(panel, spec, tol=1e-10, max_iter=100, inner_tol=1e-12,
                       max_halvings=30):
    """Oracle: profile-Newton with a scalar safeguarded Newton per cell.

    Each (group, block) cell is sliced out with ``np.ix_`` and its effect
    solved on its own, with the same convergence floor, float-spacing stop,
    curvature check, budgets and acceptance rule as ``fit_profile_mle``; a
    ``DomainError`` halves the step of that one cell.  Returns (theta, gamma).
    """
    family, gmap = spec.family, spec.gmap
    mmap = spec.time_map(panel.T)
    eps = np.finfo(float).eps
    cells = [[(gmap.members(g), np.where(mmap.codes == m)[0])
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
        gmap = GroupMap(codes=np.array([2, 1, 2, 2, 0, 2, 1, 2, 1, 2]), G=3)
        self.assert_matches_oracle(panel, ModelSpec(gaussian_fixed_scale(2), gmap))

    def test_full_scale(self, rng):
        panel = random_panel(rng, 8, 6, 1)
        self.assert_matches_oracle(panel, ModelSpec(gaussian_full_scale(1),
                                                    random_groups(rng, 8, 3)))

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

    @pytest.mark.parametrize("y_in_cell", [0.0, 1.0])
    def test_zero_curvature_cell_named(self, y_in_cell):
        # psi = -w (y - gamma)^2 / 2 + (1 - w) y gamma, the weight w carried in x:
        # cell (2, 1) has w = 0, so its curvature is 0; with y = 1 there its
        # score is nonzero and the solver meets the flat cell, with y = 0 the
        # cell starts converged and the final curvature check meets it
        def psi_gamma(y, x, theta, gamma):
            w = x[..., 0]
            return w * (y - gamma) + (1.0 - w) * y

        def psi(y, x, theta, gamma):
            w = x[..., 0]
            return -0.5 * w * (y - gamma) ** 2 + (1.0 - w) * y * gamma

        family = LikelihoodFamily(
            "flat-cell", 0, psi, lambda y, x, th, g: np.zeros(np.shape(y) + (0,)),
            psi_gamma, lambda y, x, th, g: -x[..., 0] + 0.0 * g)
        gmap = GroupMap(codes=np.array([0, 0, 1, 1, 2, 2]), G=3)
        y = np.arange(18.0).reshape(6, 3)
        y[2:4] = y_in_cell
        w = np.ones((6, 3, 1))
        w[2:4] = 0.0
        with pytest.raises(SingularInformation, match=r"cell \(2, 1\)"):
            fit_profile_mle(make_panel(y, w), ModelSpec(family, gmap))


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
