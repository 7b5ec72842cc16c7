"""Decisions and p-values assembled from a statistic and its variance."""

import numpy as np
import pytest

from panelvuong import normal_quantile
from panelvuong.errors import NonFinite, OutOfRange
from panelvuong.report import decide
from panelvuong.stats import critical_values


class TestDecide:
    @pytest.mark.parametrize("mqlr, omega2", [
        (np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0), (1.0, np.inf), (-np.inf, 1.0)])
    def test_non_finite_inputs_raise(self, mqlr, omega2):
        with pytest.raises(NonFinite):
            decide("twfe", mqlr, omega2, 0.05, {}, [])

    @pytest.mark.parametrize("level", [0.0, 1.0, np.nan])
    def test_level_out_of_range(self, level):
        with pytest.raises(OutOfRange):
            decide("twfe", 1.0, 1.0, level, {}, [])

    def test_decisions_use_critical_values(self):
        z_two, z_one = critical_values(0.05)
        above = decide("twfe", z_two * 1.000001, 1.0, 0.05, {}, [])
        below = decide("twfe", z_two * 0.999999, 1.0, 0.05, {}, [])
        assert above.reject_two and not below.reject_two
        assert below.reject_one and below.statistic > z_one
        assert above.p_two_sided < 0.05 < below.p_two_sided


class TestCriticalValues:
    @pytest.mark.parametrize("level", [0.01, 0.05, 0.1])
    def test_equal_to_quantiles(self, level):
        assert critical_values(level) == (normal_quantile(1.0 - level / 2.0),
                                          normal_quantile(1.0 - level))

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            critical_values(1.5)
