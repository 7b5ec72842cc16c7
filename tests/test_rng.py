"""Determinism of the counter-based streams, within and across versions."""

import hashlib

import numpy as np
import pytest

from panelvuong.cli import main
from panelvuong.rng import normals, stream, uniforms_open
from panelvuong.stats import normal_quantile


def _normals(gen, shape) -> np.ndarray:
    """One stream's draws through ``normals``, in the given shape."""
    return normals([gen], [int(np.prod(shape))]).reshape(shape)


class TestStreams:
    def test_same_key_identical(self):
        a = _normals(stream(7, 3, "noise"), (50, 4))
        b = _normals(stream(7, 3, "noise"), (50, 4))
        assert np.array_equal(a, b)

    def test_reps_independent_of_draw_order(self):
        # drawing rep 5 before rep 2 changes nothing
        r5_first = _normals(stream(7, 5, "noise"), 100)
        _ = _normals(stream(7, 2, "noise"), 100)
        r5_again = _normals(stream(7, 5, "noise"), 100)
        assert np.array_equal(r5_first, r5_again)

    def test_distinct_keys_differ(self):
        base = _normals(stream(7, 0, "noise"), 100)
        assert not np.array_equal(base, _normals(stream(8, 0, "noise"), 100))
        assert not np.array_equal(base, _normals(stream(7, 1, "noise"), 100))
        assert not np.array_equal(base, _normals(stream(7, 0, "covariates"), 100))

    def test_uniforms_strictly_inside(self):
        u = uniforms_open(stream(1, 0, "noise"), 100000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_normals_moments(self):
        z = _normals(stream(11, 0, "noise"), 200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01


def _digest(arr) -> str:
    """sha256 of an array's shape and little-endian float64 bytes."""
    a = np.ascontiguousarray(arr, dtype="<f8")
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _quantile_grid() -> np.ndarray:
    """Probabilities reaching all three AS241 regimes on both sides of 0.5:
    the central rational (|q - 0.5| <= 0.425), the near tails, and the far
    tails beyond min(q, 1 - q) = exp(-25) (down to 1e-300 and up to
    1 - 2**-53)."""
    return np.concatenate([
        np.logspace(-300.0, -1.0, 400),
        np.linspace(0.02, 0.98, 961),
        1.0 - np.logspace(-16.0, -1.5, 200),
    ])


# sha256 digests of generator version 2 (rng.GENERATOR_VERSION, the AS241
# quantile), recorded on x86-64 with numpy 2.4.  Any change to a draw digest
# changes simulated panels, and so every Monte Carlo evidence line; it must
# come with a new generator version.
GOLDEN_NORMALS = {
    (7, 3, "noise", (100, 100)):
        "6429c16151e0c5531944ef6c18187b3df26864eaf1d64c52c25f7ba8657abbf6",
    (20240601, 0, "covariates", (100, 100, 1)):
        "4d815da7806ff629656b5f27d14b17e1231e2333ca9e4e7f30f9e8b99d06f747",
    (1, 5, "group_effects", (10,)):
        "b4bb37e23383a5ba74dddc33e459e96892152f411fe6f86929390c719006ef04",
    (0, 1999, "unit_deviations", (1000,)):
        "6f41c0758153c6b008a6e4368250a986260896f2a4df2e8f05fdf03d5963988b",
}
GOLDEN_QUANTILE = "3a3b7ca7aacfb756cd0e7362a289810f8a12b42df4a11f1a079179cc871e567b"
# Campaign pins: n=20, T=10, G=4, 20 reps, seed 11, levels 0.05 and 0.1.  Each
# id names the kind, K (1 unless marked) and any signal; together they cover
# every stream layout that generate() reads: K = 0 (no covariates stream), 1
# and 2, the interaction stream (B, E) and the unit_deviations stream (D).
GOLDEN_CAMPAIGNS = {
    "A": (("--kind", "A"),
          "145210234329cd9b4ae4201db984fab09ce0da28eda3edb9a2af2edcd260fca7",
          "d7eb37aa1f9413b7ccd03a1298ea63dc3bd2d911896bddb35986dd4ed9e9b76e"),
    "C": (("--kind", "C"),
          "0a7cc9d1957f0a90332026e5b62ec209f9f8b343b6accdf3f75d5f7f1018a639",
          "8ee5d29d19d07de86c60ad1a9cdfa8b1c42ff1f60d46e9ba0d56166b78eead90"),
    "B-kappa0.7": (("--kind", "B", "--kappa", "0.7"),
                   "0dab8c6f87af991f9c3453f8449e9d8145ea70684dc8a6249db35d8b50375823",
                   "3041eb73e6d7ea5fa8b715ec18ff9172adf3eafef727eb90ff83b2e3d85d8fb7"),
    "D-kappa0.7": (("--kind", "D", "--kappa", "0.7"),
                   "6fd07f4cc4760ec41adf673dbe77c54fcce4e826e7816372fa4ce4382fdc0012",
                   "bcd3b1d95071176fd6e2f9d68ecac473693af114ea9fd4548dc031e486fa1ddd"),
    "E-c2": (("--kind", "E", "--c", "2"),
             "8a30f51a12a2bec73c5f8372edd6a9c0d5b6893eae8158d2ca5a21584daee148",
             "3d048f6368ec1480fdf1254475e4f657434cd5d44ebc5816db05ffb5d08002b5"),
    "A-K0": (("--kind", "A", "--K", "0"),
             "145210234329cd9b4ae4201db984fab09ce0da28eda3edb9a2af2edcd260fca7",
             "fe05473489ca0a165949bbb6145fe5b7246add014890bdc98336954420bd8744"),
    "C-K0": (("--kind", "C", "--K", "0"),
             "0a7cc9d1957f0a90332026e5b62ec209f9f8b343b6accdf3f75d5f7f1018a639",
             "b8eaf50344e3b8b67df02039bc37b000056195024f6d8473c54ee1ace29aaa6f"),
    "A-K2": (("--kind", "A", "--K", "2"),
             "1bfaa597318e598af8f1fff2a13f8796d969f1a01e113b254a242bcbb0223d14",
             "bdf1a1d119e22cf06f6f23e09bae71c4edf5d76a863d94ece307c2ea26a43c51"),
    "C-K2": (("--kind", "C", "--K", "2"),
             "0a7cc9d1957f0a90332026e5b62ec209f9f8b343b6accdf3f75d5f7f1018a639",
             "8f744f5afebcc5f33a27a898de632c7cf4c6d43bc9c1f34ab9a798a636f92ffe"),
}

class TestGoldenBits:
    """Outputs pinned bit for bit across implementations, not only reruns."""

    @pytest.mark.parametrize("key", list(GOLDEN_NORMALS),
                             ids=lambda k: f"{k[2]}-{k[0]}-{k[1]}")
    def test_normals(self, key):
        seed, rep, name, shape = key
        assert _digest(_normals(stream(seed, rep, name), shape)) == GOLDEN_NORMALS[key]

    def test_streams_in_one_call_are_the_one_stream_draws(self):
        keys = list(GOLDEN_NORMALS)
        counts = [int(np.prod(shape)) for *_, shape in keys]
        flat = normals([stream(seed, rep, name) for seed, rep, name, _ in keys], counts)
        # each stream alone, by the quantile of its own uniforms
        alone = [normal_quantile(uniforms_open(stream(seed, rep, name), count))
                 for (seed, rep, name, _), count in zip(keys, counts)]
        assert np.array_equal(flat, np.concatenate(alone))
        parts = np.split(flat, np.cumsum(counts)[:-1])
        assert [_digest(z.reshape(key[3])) for z, key in zip(parts, keys)] == \
            list(GOLDEN_NORMALS.values())

    def test_normal_quantile_grid(self):
        assert _digest(normal_quantile(_quantile_grid())) == GOLDEN_QUANTILE

    @pytest.mark.parametrize("case", list(GOLDEN_CAMPAIGNS))
    def test_campaign_bytes(self, case, tmp_path):
        args, *expected = GOLDEN_CAMPAIGNS[case]
        assert main(["simulate", "--n", "20", "--T", "10", "--G", "4", "--K", "1",
                     *args, "--reps", "20", "--seed", "11", "--levels", "0.05,0.1",
                     "--out-dir", str(tmp_path)]) == 0
        digests = [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                   for f in ("size_power.csv", "replications.jsonl")]
        assert digests == expected
