"""Panel containers, validation, and partitions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import blocks_from_sizes, pooled_groups, random_groups
from panelvuong import GroupMap, PanelData, TimeGroupMap, individual_groups, make_panel
from panelvuong.errors import EmptyGroup, NonFinite, OutOfRange, TooSmall
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
    ], ids=["nan_in_y", "inf_in_x", "single_unit", "single_period",
            "x_shape_mismatch", "x_not_3d", "y_not_2d"])
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
        gmap = GroupMap(codes=np.array([0, 0, 1, 1]), G=2)
        members = group_members(gmap)
        assert members[0].tolist() == [0, 1]
        assert members[1].tolist() == [2, 3]

    def test_empty_group_rejected(self):
        with pytest.raises(EmptyGroup):
            GroupMap(codes=np.array([0, 0, 2, 2]), G=3)

    def test_out_of_range_rejected(self):
        with pytest.raises(OutOfRange):
            GroupMap(codes=np.array([0, 1, 2]), G=2)

    @pytest.mark.parametrize("codes", [[0.5, 1.7, 0.2], [0.0, 1.0, np.nan]])
    def test_fractional_codes_rejected(self, codes):
        # the int64 cast would truncate [0.5, 1.7, 0.2] to [0, 1, 0]
        with pytest.raises(OutOfRange, match="whole numbers"):
            GroupMap(codes=codes, G=2)

    def test_whole_float_codes_accepted(self):
        codes = GroupMap(codes=[0.0, 1.0, 1.0], G=2).codes
        assert codes.dtype == np.int64 and codes.tolist() == [0, 1, 1]

    @given(st.lists(st.integers(0, 4), min_size=5, max_size=40))
    def test_partition_completeness(self, raw):
        codes = np.array(raw)
        got = np.unique(codes)
        codes = np.searchsorted(got, codes)   # compress to contiguous labels
        gmap = GroupMap(codes=codes, G=len(got))
        members, sizes = group_members(gmap), gmap.sizes
        assert sizes.sum() == len(raw)
        assert sorted(np.concatenate(members).tolist()) == list(range(len(raw)))

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
            TimeGroupMap(codes=np.array([0, 1, 0]), M=2)

    def test_gap_rejected(self):
        with pytest.raises(OutOfRange):
            TimeGroupMap(codes=np.array([0, 0, 2]), M=3)

    def test_fractional_codes_rejected(self):
        # the int64 cast would truncate these to the valid blocks [0, 0, 1]
        with pytest.raises(OutOfRange, match="whole numbers"):
            TimeGroupMap(codes=[0.0, 0.9, 1.2], M=2)

    def test_whole_float_codes_accepted(self):
        codes = TimeGroupMap(codes=[0.0, 1.0, 1.0], M=2).codes
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
