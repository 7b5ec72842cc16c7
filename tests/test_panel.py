"""Panel containers, validation, and partitions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import blocks_from_sizes, pooled_groups, random_groups
from panelvuong import (GroupMap, ModelSpec, PanelData, TimeGroupMap, gaussian_fixed_scale,
                        individual_groups, make_panel)
from panelvuong.errors import ConfigError, EmptyGroup, NonFinite, OutOfRange, TooSmall
from panelvuong.montecarlo import block_groups
from panelvuong.panel import groups_from_labels, linear_index, single_block


def group_members(gmap: GroupMap) -> list:
    return [np.flatnonzero(gmap.codes == g) for g in range(gmap.G)]


class TestValidatePanel:
    def test_minimal_panel(self):
        p = make_panel([[1.0, 2.0], [3.0, 4.0]])
        assert (p.n, p.T, p.K) == (2, 2, 0)

    def test_nan_rejected(self):
        y = np.array([[1.0, 2.0], [3.0, np.nan]])
        with pytest.raises(NonFinite):
            make_panel(y)

    def test_inf_in_x_rejected(self):
        y = np.ones((2, 2))
        x = np.ones((2, 2, 1))
        x[0, 1, 0] = np.inf
        with pytest.raises(NonFinite):
            make_panel(y, x)

    def test_single_unit_rejected(self):
        with pytest.raises(TooSmall):
            make_panel([[1.0, 2.0]])

    def test_single_period_rejected(self):
        with pytest.raises(TooSmall):
            make_panel([[1.0], [2.0]])

    @pytest.mark.parametrize("y, error", [
        ([[1.0, 2.0], [3.0]], TooSmall),
        ([["a", "b"], ["c", "d"]], NonFinite),
    ], ids=["ragged", "text"])
    def test_malformed_y_typed(self, y, error):
        # numpy raises its own ValueError on both; the panel raises typed errors
        with pytest.raises(error):
            make_panel(y)

    def test_idempotent(self):
        p = make_panel([[1.0, 2.0], [3.0, 4.0]])
        q = PanelData(y=p.y, x=p.x)
        assert np.array_equal(q.y, p.y) and np.array_equal(q.x, p.x)

    def test_immutable(self):
        p = make_panel([[1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(ValueError):
            p.y[0, 0] = 9.0

    def test_caller_array_stays_writable(self):
        y = np.zeros((3, 3))
        x = np.zeros((3, 3, 1))
        p = make_panel(y, x)
        y[0, 0] = 1.0
        x[0, 0, 0] = 1.0
        assert p.y[0, 0] == 0.0 and p.x[0, 0, 0] == 0.0

    def test_zero_d_y_shape_named(self):
        with pytest.raises(TooSmall, match=r"got shape \(\)"):
            make_panel(1.0)

    # The cases above again, built without make_panel: no constructor lets an
    # invalid panel through.
    @pytest.mark.parametrize("y, x, error", [
        ([[1.0, 2.0], [3.0, np.nan]], np.zeros((2, 2, 0)), NonFinite),
        (np.ones((2, 2)), np.full((2, 2, 1), np.inf), NonFinite),
        ([[1.0, 2.0]], np.zeros((1, 2, 0)), TooSmall),
        ([[1.0], [2.0]], np.zeros((2, 1, 0)), TooSmall),
        (np.ones((2, 3)), np.zeros((2, 2, 1)), TooSmall),
        (np.ones((2, 3)), np.zeros((2, 3)), TooSmall),
        (np.ones(4), np.zeros((4, 1, 0)), TooSmall),
        (np.ones((2, 1)), [[[1.0]], [[2.0], [3.0]]], TooSmall),
    ], ids=["nan_in_y", "inf_in_x", "single_unit", "single_period",
            "x_shape_mismatch", "x_not_3d", "y_not_2d", "ragged_x"])
    def test_direct_construction_rejected(self, y, x, error):
        with pytest.raises(error):
            PanelData(y=y, x=x)

    def test_direct_construction_frozen(self):
        p = PanelData(y=np.ones((2, 2)), x=np.zeros((2, 2, 1)))
        with pytest.raises(ValueError):
            p.y[0, 0] = 9.0
        with pytest.raises(ValueError):
            p.x[0, 0, 0] = 9.0


class TestGroupPartition:
    def test_identity_map(self):
        gmap = individual_groups(3)
        members, sizes = group_members(gmap), gmap.sizes
        assert [m.tolist() for m in members] == [[0], [1], [2]]
        assert sizes.tolist() == [1, 1, 1]

    def test_pooled_map(self):
        gmap = pooled_groups(5)
        members, sizes = group_members(gmap), gmap.sizes
        assert members[0].tolist() == [0, 1, 2, 3, 4]
        assert sizes.tolist() == [5]

    def test_two_blocks(self):
        gmap = GroupMap(codes=np.array([0, 0, 1, 1]))
        members = group_members(gmap)
        assert members[0].tolist() == [0, 1]
        assert members[1].tolist() == [2, 3]

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyGroup):
            GroupMap(codes=np.array([0, 0, 2, 2]))

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRange, match="nonnegative"):
            GroupMap(codes=np.array([0, -1, 1]))

    def test_more_groups_than_units_is_empty_group(self):
        # refused before np.bincount would size an array by the largest code
        with pytest.raises(EmptyGroup, match="1099511627777 groups for 2 units"):
            GroupMap(codes=np.array([0, 2 ** 40]))

    @pytest.mark.parametrize("codes", [[0.5, 1.7, 0.2], [0.0, 1.0, np.nan], ["a"]])
    def test_fractional_codes_rejected(self, codes):
        # the int64 cast would truncate [0.5, 1.7, 0.2] to [0, 1, 0], and
        # raises numpy's own ValueError on text
        with pytest.raises(OutOfRange, match="whole numbers"):
            GroupMap(codes=codes)

    def test_whole_float_codes_accepted(self):
        codes = GroupMap(codes=[0.0, 1.0, 1.0]).codes
        assert codes.dtype == np.int64 and codes.tolist() == [0, 1, 1]

    def test_ragged_codes_rejected(self):
        # numpy refuses the unequal nesting with its own ValueError
        with pytest.raises(OutOfRange, match="ragged"):
            GroupMap(codes=[[0], [1, 2]])

    @given(st.lists(st.integers(0, 6), max_size=40))
    def test_partition_completeness(self, raw):
        codes = np.array(raw, dtype=np.int64)
        if not raw:
            with pytest.raises(OutOfRange):
                GroupMap(codes=codes)
            return
        got = np.unique(codes)
        if got.size != got[-1] + 1:           # a gap: some group has no unit
            with pytest.raises(EmptyGroup):
                GroupMap(codes=codes)
            return
        gmap = GroupMap(codes=codes)
        assert gmap.G == got.size and type(gmap.G) is int
        assert np.array_equal(gmap.sizes, np.bincount(codes))
        assert not gmap.sizes.flags.writeable and gmap.sizes is gmap.sizes
        members = group_members(gmap)
        assert sorted(np.concatenate(members).tolist()) == list(range(len(raw)))
        blocks = TimeGroupMap(codes=np.sort(codes))
        assert blocks.M == int(np.sort(codes)[-1]) + 1 and type(blocks.M) is int

    @pytest.mark.parametrize("make", [lambda: GroupMap(codes=[0, 1], G=2),
                                      lambda: TimeGroupMap(codes=[0, 1], M=2)],
                             ids=["G", "M"])
    def test_count_is_not_an_argument(self, make):
        # G and M come from the codes alone
        with pytest.raises(TypeError):
            make()

    @pytest.mark.parametrize("make", [
        lambda: GroupMap(codes=[0, 1]),
        lambda: TimeGroupMap(codes=[0, 1]),
        lambda: ModelSpec(gaussian_fixed_scale(0), GroupMap(codes=[0, 1]))],
        ids=["GroupMap", "TimeGroupMap", "ModelSpec"])
    def test_compare_by_identity(self, make):
        # a field-wise == would compare the codes arrays and raise numpy's
        # ValueError, and a field-wise hash would raise TypeError on them
        a, b = make(), make()
        assert a == a and a != b
        assert hash(a) == hash(a) and len({a, b}) == 2

    def test_random_groups_gives_up(self, rng):
        # the test helper caps its redraws: 3 units can never hit 4 groups
        with pytest.raises(ValueError, match=r"n=3 units missed some of G=4 groups"):
            random_groups(rng, 3, 4)

    def test_from_labels_first_appearance(self):
        gmap, order = groups_from_labels(["b", "a", "b", "c"])
        assert gmap.codes.tolist() == [0, 1, 0, 2]
        assert order == {"b": 0, "a": 1, "c": 2}

    def test_individual_groups(self):
        m = individual_groups(5)
        assert m.codes.tolist() == list(range(5))
        assert individual_groups(5) is m   # one frozen map per n, shared by every rep
        assert not m.codes.flags.writeable

    def test_block_groups(self):
        m = block_groups(10, 3)
        assert block_groups(10, 3) is m    # one frozen map per (n, G), shared by every rep
        assert not m.codes.flags.writeable

    @pytest.mark.parametrize("G", [0, 5])
    def test_block_groups_outside_one_to_n(self, G):
        # 0 divided by zero; 5 groups of 3 units would leave two empty
        with pytest.raises(ConfigError, match=f"got G={G}, n=3"):
            block_groups(3, G)


class TestTimeGroupMap:
    def test_single_block(self):
        m = single_block(4)
        assert m.M == 1
        assert np.bincount(m.codes).tolist() == [4]
        assert single_block(4) is m   # one frozen map per T, shared by every fit
        assert not m.codes.flags.writeable

    def test_blocks_from_sizes(self):
        m = blocks_from_sizes([2, 3])
        assert m.codes.tolist() == [0, 0, 1, 1, 1]
        assert m.T == 5

    def test_blocks_are_contiguous(self):
        m = blocks_from_sizes([2, 2, 1])
        blocks = [np.flatnonzero(m.codes == k) for k in range(m.M)]
        for left, right in zip(blocks, blocks[1:]):
            assert right.min() == left.max() + 1

    def test_decreasing_rejected(self):
        with pytest.raises(OutOfRange):
            TimeGroupMap(codes=np.array([0, 1, 0]))

    def test_gap_rejected(self):
        with pytest.raises(OutOfRange):
            TimeGroupMap(codes=np.array([0, 0, 2]))

    def test_fractional_codes_rejected(self):
        # the int64 cast would truncate these to the valid blocks [0, 0, 1]
        with pytest.raises(OutOfRange, match="whole numbers"):
            TimeGroupMap(codes=[0.0, 0.9, 1.2])

    def test_text_codes_rejected(self):
        # the int64 cast raises numpy's own ValueError on text
        with pytest.raises(OutOfRange, match="whole numbers"):
            TimeGroupMap(codes=["x"])

    def test_ragged_codes_rejected(self):
        # numpy refuses the unequal nesting with its own ValueError
        with pytest.raises(OutOfRange, match="ragged"):
            TimeGroupMap(codes=[[0], [1, 2]])

    def test_whole_float_codes_accepted(self):
        codes = TimeGroupMap(codes=[0.0, 1.0, 1.0]).codes
        assert codes.dtype == np.int64 and codes.tolist() == [0, 1, 1]


class TestLinearIndex:
    """The flat matrix-vector product against numpy's stacked matmul, bit for bit."""

    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    @pytest.mark.parametrize("n, T", [(7, 3), (20, 10), (50, 50), (100, 100)])
    def test_same_bits_as_matmul(self, rng, n, T, K):
        x = rng.normal(size=(n, T, K))
        theta = rng.normal(size=K)
        out = linear_index(x, theta)
        assert out.shape == (n, T)
        assert out.tobytes() == (x @ theta).tobytes()

    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_non_contiguous_covariates(self, rng, K):
        big = rng.normal(size=(20, 22, K))
        x = big[:, ::2, :]
        theta = rng.normal(size=K)
        assert linear_index(x, theta).tobytes() == (x @ theta).tobytes()

    @pytest.mark.parametrize("K", [1, 2, 3, 5])
    def test_single_point(self, rng, K):
        # check_derivatives evaluates a family at a 0-d y with a (K,) covariate
        x, theta = rng.normal(size=K), rng.normal(size=K)
        out = linear_index(x, theta)
        assert out.shape == ()
        assert float(out) == float(x @ theta)
