"""Decisions and p-values assembled from a statistic and its variance."""

import json
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats as sstats

from conftest import random_groups, random_panel
from panelvuong import (GroupMap, ModelSpec, gaussian_fixed_scale, individual_groups,
                        make_panel, normal_quantile, render_json, run_classic_test,
                        run_twfe_test, to_document)
from panelvuong.errors import NonFinite, OutOfRange
from panelvuong.report import SCHEMA_VERSION, decide, rejects
from panelvuong.stats import critical_values


def components(mqlr, omega2):
    """The two values ``decide`` reads from a components object."""
    return SimpleNamespace(mqlr=mqlr, omega2=omega2)


class TestDecide:
    @pytest.mark.parametrize("mqlr, omega2", [
        (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf), (-np.inf, 1.0)])
    def test_non_finite_inputs_raise(self, mqlr, omega2):
        with pytest.raises(NonFinite):
            decide("twfe", components(mqlr, omega2), 0.05, [])

    @pytest.mark.parametrize("level", [0.0, 1.0, np.nan])
    def test_level_out_of_range(self, level):
        with pytest.raises(OutOfRange):
            decide("twfe", components(1.0, 1.0), level, [])

    def test_decisions_use_critical_values(self):
        z_two, z_one = critical_values(0.05)
        above = decide("twfe", components(z_two * 1.000001, 1.0), 0.05, [])
        below = decide("twfe", components(z_two * 0.999999, 1.0), 0.05, [])
        assert above.reject_two and not below.reject_two
        assert below.reject_one and below.statistic > z_one
        assert above.p_two_sided < 0.05 < below.p_two_sided

    def test_decisions_follow_the_statistic(self):
        # |mqlr| > omega * z and |mqlr / omega| > z differ here by one rounding;
        # the report must decide on the statistic it reports
        report = decide("twfe", components(1.9908619914878, 1.0317776798228409), 0.05, [])
        z_two, z_one = critical_values(0.05)
        assert not abs(report.statistic) > z_two
        assert report.reject_two is False
        assert (report.reject_two, report.reject_one) == rejects(report.statistic, 0.05)

    @pytest.mark.parametrize("stat", [-3.0, -1.7, 0.0, 1.7, 3.0])
    def test_rejects_against_critical_values(self, stat):
        z_two, z_one = critical_values(0.05)
        assert rejects(stat, 0.05) == (abs(stat) > z_two, stat > z_one)

    @pytest.mark.parametrize("s", [3.0, 8.0, 9.0, 12.0, 30.0, -9.0])
    def test_p_values_far_in_the_tails(self, s):
        # 2 * (1 - cdf(|s|)) cancels to 0 from s = 8.3 on; the upper tail does
        # not.  Rounding s / sqrt(2) moves the tail by up to s^2 * 2**-53
        # relative, once here and up to twice in scipy: 3e-13 at s = 30.
        report = decide("twfe", components(s, 1.0), 0.05, [])
        assert report.statistic == s
        tol = max(1e-13, 3.0 * s * s * 2.0 ** -53)
        two, one = 2.0 * sstats.norm.sf(abs(s)), sstats.norm.sf(s)
        assert abs(report.p_two_sided - two) <= tol * two
        assert abs(report.p_one_sided - one) <= tol * one
        if s == -9.0:
            assert report.p_one_sided == 1.0


def both_reports(panel, gmap):
    """The twfe report and the fixed-scale classic report of one panel."""
    fixed = gaussian_fixed_scale(panel.K)
    return {
        "twfe": run_twfe_test(panel, gmap),
        "classic": run_classic_test(panel, ModelSpec(fixed, individual_groups(panel.n)),
                                    ModelSpec(fixed, gmap)),
    }


class TestDocumentLayout:
    # a key change must bump SCHEMA_VERSION; schema 2 dropped metadata.seed
    # (always null) and metadata.exact_floats
    METADATA = ["schema_version", "tool", "tool_version", "timestamp",
                "input_digest", "label_maps"]
    TEST = ["test", "level", "mqlr", "omega2_hat", "statistic", "p_two_sided",
            "p_one_sided", "reject_two_sided", "reject_one_sided", "degenerate",
            "degenerate_reason"]
    COMPONENTS = {
        "twfe": ["qlr", "bias", "mqlr", "sigma2_nt", "sigma2_u", "sigma2_u_raw",
                 "omega2", "n", "T", "groups_model1"],
        "classic": ["loglik_1", "loglik_2", "bias_1", "bias_2", "qlr", "mqlr",
                    "sigma2_nt", "sigma2_u", "sigma2_u_raw", "sigma2_s", "omega2",
                    "n", "T", "groups_model2"],
    }

    def test_keys_at_schema_2(self, rng):
        assert SCHEMA_VERSION == 2
        reports = both_reports(random_panel(rng, 12, 6, 1), random_groups(rng, 12, 3))
        for test, report in reports.items():
            doc = to_document(report)
            assert list(doc) == ["metadata", "test", "components", "warnings"]
            assert list(doc["metadata"]) == self.METADATA
            assert doc["metadata"]["schema_version"] == 2
            assert list(doc["test"]) == self.TEST
            assert list(doc["components"]) == self.COMPONENTS[test]
            # each key is the attribute of that name: one name per value
            assert doc["components"] == {k: getattr(report.components, k)
                                         for k in self.COMPONENTS[test]}


    def test_group_count_renders_as_json(self, rng):
        # G is a Python int derived from the codes: json cannot write a numpy int
        gmap = GroupMap(codes=np.repeat(np.arange(4), 5))
        for report in both_reports(random_panel(rng, 20, 6, 1), gmap).values():
            doc = json.loads(render_json(to_document(report)))
            assert doc["components"][f"groups_model{1 if report.test == 'twfe' else 2}"] == 4


class TestScaleEquivariance:
    @pytest.mark.parametrize("seed", range(8))
    def test_power_of_two_scales_give_identical_decisions(self, seed):
        # every fit is exactly equivariant under y -> 2**k y, so the
        # statistic, p-values and decisions keep every bit
        rng = np.random.default_rng(seed)
        n, T, K = 10, 6, seed % 3
        base = random_panel(rng, n, T, K)
        gmap = random_groups(rng, n, 3)
        decided = []
        for k in (-3, 0, 3):
            panel = make_panel(np.ldexp(base.y, k), base.x if K else None)
            decided.append([(r.statistic, r.p_two_sided, r.p_one_sided, r.reject_two,
                             r.reject_one, r.degenerate)
                            for r in both_reports(panel, gmap).values()])
        assert decided[0] == decided[1] == decided[2]
        assert all(row[0] is not None for row in decided[0])


class TestCriticalValues:
    @pytest.mark.parametrize("level", [0.01, 0.05, 0.1])
    def test_equal_to_quantiles(self, level):
        assert critical_values(level) == (-normal_quantile(level / 2.0),
                                          -normal_quantile(level))

    @pytest.mark.parametrize("level", [1e-10, 1e-17])
    def test_small_levels_match_scipy(self, level):
        # from the lower tail: 1 - level / 2 cancels digits at 1e-10 and
        # rounds to 1.0 at 1e-16 and below
        z_two, z_one = critical_values(level)
        assert z_two == pytest.approx(sstats.norm.isf(level / 2.0), rel=1e-15)
        assert z_one == pytest.approx(sstats.norm.isf(level), rel=1e-15)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            critical_values(1.5)
