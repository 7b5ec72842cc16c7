"""Determinism of the counter-based streams, within and across versions."""

import hashlib

import numpy as np
import pytest

from panelvuong.cli import main
from panelvuong.rng import normals, stream, uniforms_open
from panelvuong.stats import normal_cdf, normal_quantile


class TestStreams:
    def test_same_key_identical(self):
        a = normals(stream(7, 3, "noise"), (50, 4))
        b = normals(stream(7, 3, "noise"), (50, 4))
        assert np.array_equal(a, b)

    def test_reps_independent_of_draw_order(self):
        # drawing rep 5 before rep 2 changes nothing
        r5_first = normals(stream(7, 5, "noise"), 100)
        _ = normals(stream(7, 2, "noise"), 100)
        r5_again = normals(stream(7, 5, "noise"), 100)
        assert np.array_equal(r5_first, r5_again)

    def test_distinct_keys_differ(self):
        base = normals(stream(7, 0, "noise"), 100)
        assert not np.array_equal(base, normals(stream(8, 0, "noise"), 100))
        assert not np.array_equal(base, normals(stream(7, 1, "noise"), 100))
        assert not np.array_equal(base, normals(stream(7, 0, "covariates"), 100))

    def test_uniforms_strictly_inside(self):
        u = uniforms_open(stream(1, 0, "noise"), 100000)
        assert u.min() > 0.0
        assert u.max() < 1.0

    def test_normals_moments(self):
        z = normals(stream(11, 0, "noise"), 200000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01


def _digest(arr) -> str:
    """sha256 of an array's shape and little-endian float64 bytes."""
    a = np.ascontiguousarray(arr, dtype="<f8")
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def _quantile_grid() -> np.ndarray:
    """Probabilities reaching both tails of the initial guess (down to 1e-300)
    and, through the Halley steps' CDF calls, all three erfc regimes."""
    return np.concatenate([
        np.logspace(-300.0, -1.0, 400),
        np.linspace(0.02, 0.98, 961),
        1.0 - np.logspace(-16.0, -1.5, 200),
    ])


def _cdf_grid() -> np.ndarray:
    edges = np.array([0.46875, 4.0]) * np.sqrt(2.0)
    return np.concatenate([np.linspace(-40.0, 10.0, 5001), edges, -edges, [0.0]])


# sha256 digests recorded with the mask-based erfc/quantile that preceded the
# indexed one (numpy 2.4, x86-64).  Any change to a digest changes simulated
# panels, and so every Monte Carlo evidence line.
GOLDEN_NORMALS = {
    (7, 3, "noise", (100, 100)):
        "69f9ba0fc000ea66209b2bf37417bec639a92c9b7b759101e60100a6a5611c42",
    (20240601, 0, "covariates", (100, 100, 1)):
        "2a063acf8e84f5c366ae417cb74648fb0e82b6eb220f427268719beb0a14d933",
    (1, 5, "group_effects", (10,)):
        "c0fbc855a3b63beaa2399b0f5aacee7289de16422f25064a79fe796d7b2249b4",
    (0, 1999, "unit_deviations", (1000,)):
        "b74b3e0df0c9e2516f43499af5d7f9bd1fec174504c6b293f749144d62cb3251",
}
GOLDEN_QUANTILE = "aee95b5351a6051ab8c72a7ab404a41901ede046019a9a73428b087cc8af06ec"
GOLDEN_CDF = "a27d84a42fb09962dd35583d60ada9ce29d6c7f781195a3d0512a2f0e7066f35"
GOLDEN_CAMPAIGNS = {
    "A": ("befb47b0902000fd1aabd5a417588e466e19ad6c1c31b53b109fd771a4016a0b",
          "6fca6ad7e30957f22911d3f001e72259a476a257d44ff46d21deaf78003387c3"),
    "C": ("8ee1a36866bc6cda54db84ec595ef626591ceb2400797cdd3063b11495fa3866",
          "89419f75e2dc3d2f8ce43cf88dc9861944b4609b8cc9f0c95978588b23f3dad8"),
}


class TestGoldenBits:
    """Outputs pinned bit for bit across implementations, not only reruns."""

    @pytest.mark.parametrize("key", list(GOLDEN_NORMALS),
                             ids=lambda k: f"{k[2]}-{k[0]}-{k[1]}")
    def test_normals(self, key):
        seed, rep, name, shape = key
        assert _digest(normals(stream(seed, rep, name), shape)) == GOLDEN_NORMALS[key]

    def test_normal_quantile_grid(self):
        assert _digest(normal_quantile(_quantile_grid())) == GOLDEN_QUANTILE

    def test_normal_cdf_grid(self):
        assert _digest(normal_cdf(_cdf_grid())) == GOLDEN_CDF

    @pytest.mark.parametrize("kind", list(GOLDEN_CAMPAIGNS))
    def test_campaign_bytes(self, kind, tmp_path):
        assert main(["simulate", "--kind", kind, "--n", "20", "--T", "10",
                     "--G", "4", "--K", "1", "--reps", "20", "--seed", "11",
                     "--levels", "0.05,0.1", "--out-dir", str(tmp_path)]) == 0
        digests = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                        for f in ("size_power.csv", "replications.jsonl"))
        assert digests == GOLDEN_CAMPAIGNS[kind]
