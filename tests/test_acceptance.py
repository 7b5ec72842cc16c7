"""Acceptance gate: one test per criterion, tolerances pinned.

The Monte Carlo campaigns are shared across criteria through module-scoped
fixtures; each criterion prints one line with its measured values so the run
log documents the evidence either way.
"""

import time

import numpy as np
import pytest

from conftest import (blocks_from_sizes, dummy_ols_cells, dummy_ols_twfe, random_groups,
                      random_panel)
from oracles import foc_residuals, local_power_curve
from panelvuong import (DgpConfig, ModelSpec, check_derivatives,
                        classic_components, fit_grouped_time, fit_linear_cells,
                        fit_model, fit_profile_mle, fit_twfe,
                        gaussian_fixed_scale, gaussian_full_scale,
                        individual_groups, run_replications, run_twfe_test,
                        summarize)
from panelvuong.cli import main
from test_families import sample_points

SEED_NULL = 20240601
SEED_POWER = 20240602
SEED_CENTER = 20240603
SEED_LOCAL = 20240604

R_SIZE = 2000
R_POWER = 500
R_LOCAL = 1000


def _null_campaign(kind, n, seed):
    config = DgpConfig(kind=kind, n=n, T=n, G=10, K=1, master_seed=seed)
    return run_replications(config, reps=R_SIZE)


@pytest.fixture(scope="module")
def mc_twfe_null_100():
    return _null_campaign("A", 100, SEED_NULL)


@pytest.fixture(scope="module")
def mc_classic_null_100():
    return _null_campaign("C", 100, SEED_NULL)


@pytest.fixture(scope="module")
def mc_twfe_null_50():
    return _null_campaign("A", 50, SEED_CENTER)


@pytest.fixture(scope="module")
def mc_classic_null_50():
    return _null_campaign("C", 50, SEED_CENTER)


def report(line):
    print(f"\n[acceptance] {line}")


class TestCriterion01EstimatorOracles:
    def test_closed_forms_match_dummy_regressions(self):
        rng = np.random.default_rng(101)
        started = time.time()
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(4, 21))
            T = int(rng.integers(3, 21))
            K = int(rng.integers(1, 3))
            panel = random_panel(rng, n, T, K)
            # keep at least one group of size >= 2 so the grouped-time model
            # retains within-cell covariate variation
            gmap = random_groups(rng, n, int(rng.integers(1, min(5, n))))
            mmap = blocks_from_sizes([T // 2, T - T // 2])

            fit_c = fit_linear_cells(panel, gmap, mmap)
            theta, gamma, _ = dummy_ols_cells(panel, gmap, mmap)
            worst = max(worst,
                        np.abs(fit_c.theta - theta).max() / max(1, np.abs(theta).max()),
                        np.abs(fit_c.gamma - gamma).max() / max(1, np.abs(gamma).max()))

            fit_g = fit_grouped_time(panel, gmap)
            theta, gamma, _ = dummy_ols_cells(
                panel, gmap, blocks_from_sizes([1] * T))
            worst = max(worst,
                        np.abs(fit_g.theta - theta).max() / max(1, np.abs(theta).max()),
                        np.abs(fit_g.gamma_gt - gamma).max() / max(1, np.abs(gamma).max()))

            fit_t = fit_twfe(panel)
            theta, alpha, delta, _ = dummy_ols_twfe(panel)
            worst = max(worst,
                        np.abs(fit_t.theta - theta).max() / max(1, np.abs(theta).max()),
                        np.abs(fit_t.alpha - alpha).max() / max(1, np.abs(alpha).max()),
                        np.abs(fit_t.delta - delta).max() / max(1, np.abs(delta).max()))
        elapsed = time.time() - started
        report(f"criterion 1 (estimator oracles): max rel gap {worst:.2e} "
               f"(tol 1e-8), runtime {elapsed:.1f}s (target < 5s)")
        assert worst < 1e-8
        assert elapsed < 5.0


class TestCriterion02ProfileOracle:
    def test_profile_newton_matches_closed_form(self):
        rng = np.random.default_rng(102)
        worst_gap = 0.0
        worst_foc = 0.0
        for _ in range(50):
            n = int(rng.integers(4, 21))
            T = int(rng.integers(3, 21))
            K = int(rng.integers(0, 3))
            panel = random_panel(rng, n, T, K)
            gmap = random_groups(rng, n, int(rng.integers(1, 5)))
            spec = ModelSpec(gaussian_fixed_scale(K), gmap)
            prof = fit_profile_mle(panel, spec)
            cells = fit_linear_cells(panel, gmap)
            scale = max(1.0, np.abs(cells.gamma).max())
            worst_gap = max(worst_gap,
                            (np.abs(prof.theta - cells.theta).max() / scale
                             if K else 0.0),
                            np.abs(prof.gamma - cells.gamma).max() / scale,
                            abs(prof.loglik - cells.loglik) / max(1, abs(cells.loglik)))
            worst_foc = max(worst_foc, *foc_residuals(panel, prof))
        report(f"criterion 2 (profile-Newton oracle): max rel gap {worst_gap:.2e} "
               f"(tol 1e-8), max FOC residual {worst_foc:.2e} (tol 1e-10)")
        assert worst_gap < 1e-8
        assert worst_foc <= 1e-10


class TestCriterion03Derivatives:
    def test_both_families_pass_fd_check(self):
        rng = np.random.default_rng(103)
        errs = {}
        for maker, k in ((gaussian_fixed_scale, 2), (gaussian_full_scale, 2)):
            fam = maker(k)
            errs[fam.name] = check_derivatives(fam, sample_points(rng, fam, 100))
        report(f"criterion 3 (derivative checks): {errs} (tol 1e-6)")
        assert all(e < 1e-6 for e in errs.values())


class TestCriterion04Positivity:
    def test_thousand_random_panels(self):
        rng = np.random.default_rng(104)
        tol = 1e-14
        violations = 0
        for _ in range(1000):
            n = int(rng.integers(10, 51))
            T = int(rng.integers(10, 51))
            panel = random_panel(rng, n, T, int(rng.integers(0, 2)))
            gmap = random_groups(rng, n, int(rng.integers(1, 7)))

            fit1 = fit_model(panel, ModelSpec(gaussian_fixed_scale(panel.K),
                                              individual_groups(n)))
            fit2 = fit_model(panel, ModelSpec(gaussian_fixed_scale(panel.K), gmap))
            comp = classic_components(fit1, fit2)
            scale = max(1.0, comp.sigma2_nt)
            bound = comp.sigma2_1 * comp.sigma2_2
            if (comp.sigma2_u < -tol * scale or comp.sigma2_s < -tol * scale
                    or comp.omega2 < comp.sigma2_u - tol * scale
                    or np.any(comp.sigma2_12 > bound + tol * np.maximum(1.0, bound))):
                violations += 1

            twfe_report = run_twfe_test(panel, gmap)
            tcomp = twfe_report.components
            tscale = max(1.0, tcomp.sigma2_nt)
            tbound = tcomp.sigma2_1 * tcomp.sigma2_2
            if (tcomp.sigma2_u < -tol * tscale or tcomp.sigma2_u_raw < -tol * tscale
                    or tcomp.omega2 < tcomp.sigma2_u - tol * tscale
                    or np.any(tcomp.sigma12 ** 2 > tbound + tol * np.maximum(1.0, tbound))):
                violations += 1
        report(f"criterion 4 (positivity, 1000 panels): {violations} violations "
               f"(tol {tol} rounding)")
        assert violations == 0


class TestCriterion05ClassicSize:
    def test_two_sided_rejection_in_band(self, mc_classic_null_100):
        rate, se, count = mc_classic_null_100.rejection_rate(0.05, "two")
        report(f"criterion 5 (classic size, kind C, n=T=100, G=10, R={R_SIZE}): "
               f"two-sided rate {rate:.4f} (se {se:.4f}, {count} valid reps), "
               f"band [0.03, 0.07]")
        assert 0.03 <= rate <= 0.07


class TestCriterion06TwfeSize:
    def test_two_sided_rejection_in_band(self, mc_twfe_null_100):
        rate, se, count = mc_twfe_null_100.rejection_rate(0.05, "two")
        report(f"criterion 6 (twfe size, kind A, n=T=100, G=10, R={R_SIZE}): "
               f"two-sided rate {rate:.4f} (se {se:.4f}, {count} valid reps), "
               f"band [0.03, 0.07]")
        assert 0.03 <= rate <= 0.07


class TestCriterion07Power:
    @pytest.mark.parametrize("kind", ["B", "D"])
    def test_one_sided_power(self, kind):
        config = DgpConfig(kind=kind, n=100, T=100, G=10, K=1, kappa=0.5,
                           master_seed=SEED_POWER)
        mc = run_replications(config, reps=R_POWER)
        rate, _, _ = mc.rejection_rate(0.05, "one")
        report(f"criterion 7 (power, kind {kind}, kappa=0.5, R={R_POWER}): "
               f"one-sided rate {rate:.4f} (need >= 0.9)")
        assert rate >= 0.9


class TestCriterion08LocalPower:
    def test_rates_track_analytic_curve(self):
        gaps = {}
        for c in (0.0, 1.0, 2.0):
            config = DgpConfig(kind="E", n=100, T=100, G=10, K=1, c=c,
                               master_seed=SEED_LOCAL)
            mc = run_replications(config, reps=R_LOCAL)
            rate, _, _ = mc.rejection_rate(0.05, "one")
            c_hat = summarize(mc).mean_statistic
            gaps[c] = abs(rate - local_power_curve(c_hat, 0.05))
        report(f"criterion 8 (local power, c in (0,1,2), R={R_LOCAL} each): "
               f"|rate - (1 - Phi(z_0.95 - c_hat))| = "
               f"{ {c: round(g, 4) for c, g in gaps.items()} } (tol 0.05)")
        assert all(g <= 0.05 for g in gaps.values())


class TestCriterion09Normality:
    def test_ks_distance_under_both_nulls(self, mc_twfe_null_100,
                                          mc_classic_null_100):
        threshold = 1.63 / np.sqrt(R_SIZE) * 1.5
        ks = {"twfe": summarize(mc_twfe_null_100).ks_normal,
              "classic": summarize(mc_classic_null_100).ks_normal}
        report(f"criterion 9 (normality, R={R_SIZE}): KS distances "
               f"{ {k: round(v, 4) for k, v in ks.items()} } "
               f"(threshold {threshold:.4f})")
        assert all(v < threshold for v in ks.values())


class TestCriterion10BiasContrast:
    @pytest.mark.parametrize("fixture_name,label",
                             [("mc_twfe_null_50", "kind A"),
                              ("mc_classic_null_50", "kind C")])
    def test_corrected_centered_uncorrected_not(self, request, fixture_name, label):
        mc = request.getfixturevalue(fixture_name)
        s = summarize(mc)
        center_bound = 3.0 / np.sqrt(R_SIZE)
        raw_bound = 5.0 / np.sqrt(R_SIZE)
        report(f"criterion 10 (bias contrast, {label}, n=T=50, R={R_SIZE}): "
               f"|mean corrected stat| {abs(s.mean_statistic):.4f} "
               f"(bound {center_bound:.4f}); |mean uncorrected| "
               f"{abs(s.mean_raw_statistic):.2f} (must exceed {raw_bound:.4f})")
        assert abs(s.mean_statistic) <= center_bound
        assert abs(s.mean_raw_statistic) > raw_bound


class TestCriterion11Determinism:
    def test_simulate_byte_identical_across_runs_and_workers(self, tmp_path):
        args = ["simulate", "--kind", "A", "--n", "20", "--T", "16", "--G", "4",
                "--K", "1", "--reps", "50", "--seed", "7", "--levels", "0.05,0.10"]
        outputs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert main(args + ["--out-dir", str(out)]) == 0
            outputs.append(((out / "size_power.csv").read_bytes(),
                            (out / "replications.jsonl").read_bytes()))
        identical = outputs[0] == outputs[1]
        report(f"criterion 11 (determinism): byte-identical across reruns: {identical}")
        assert identical


class TestMonteCarloInvariants:
    """Distributional invariants tied to the same null campaigns."""

    def test_mean_statistic_centered_at_100(self, mc_twfe_null_100,
                                            mc_classic_null_100):
        bound = 3.0 / np.sqrt(R_SIZE)
        means = {"twfe": summarize(mc_twfe_null_100).mean_statistic,
                 "classic": summarize(mc_classic_null_100).mean_statistic}
        assert all(abs(m) <= bound for m in means.values()), means

    def test_mqlr_variance_matches_mean_omega2(self, mc_twfe_null_100,
                                               mc_classic_null_100):
        for mc in (mc_twfe_null_100, mc_classic_null_100):
            valid = mc.valid_records()
            var = float(np.var([r.mqlr for r in valid], ddof=1))
            mean_omega2 = float(np.mean([r.omega2 for r in valid]))
            assert abs(var - mean_omega2) / mean_omega2 <= 0.25

    def test_no_degenerate_replications_under_noise(self, mc_twfe_null_100,
                                                    mc_classic_null_100):
        assert mc_twfe_null_100.degenerate_count == 0
        assert mc_classic_null_100.degenerate_count == 0
