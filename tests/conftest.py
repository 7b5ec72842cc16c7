"""Shared fixtures and brute-force oracles.

The dummy-variable regressions below are deliberately naive: they build the
full design matrix with explicit indicator columns and call lstsq, providing
an implementation-independent reference for every closed-form estimator.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from panelvuong import GroupMap, PanelData, TimeGroupMap, make_panel

# seeded like every other test: the same examples on each run, and no example
# database written into the checkout; each test keeps its example count
settings.register_profile("seeded", derandomize=True, database=None)
settings.load_profile("seeded")


def random_panel(rng: np.random.Generator, n: int, T: int, K: int,
                 signal: float = 1.0) -> PanelData:
    x = rng.normal(size=(n, T, K)) if K else None
    y = rng.normal(size=(n, T))
    if K:
        y = y + x @ rng.normal(size=K) * signal
    return make_panel(y, x)


def random_groups(rng: np.random.Generator, n: int, G: int) -> GroupMap:
    """A uniform assignment resampled until every group is hit, at most 1000
    times: with G close to n a hit is rare, and with G > n it never comes."""
    for _ in range(1000):
        codes = rng.integers(0, G, size=n)
        if len(np.unique(codes)) == G:
            return GroupMap(codes=codes)
    raise ValueError(f"1000 uniform draws of n={n} units missed some of G={G} groups")


def pooled_groups(n: int) -> GroupMap:
    """A single group containing every unit."""
    return GroupMap(codes=np.zeros(n, dtype=np.int64))


def blocks_from_sizes(sizes) -> TimeGroupMap:
    """Contiguous time blocks of the given lengths."""
    return TimeGroupMap(codes=np.repeat(np.arange(len(sizes)), sizes))


def dummy_ols_cells(panel: PanelData, gmap: GroupMap, mmap: TimeGroupMap):
    """Least squares of y on covariates plus one dummy per (g, m) cell."""
    n, T, K = panel.n, panel.T, panel.K
    cell = gmap.codes[:, None] * mmap.M + mmap.codes[None, :]
    ncell = gmap.G * mmap.M
    rows = n * T
    design = np.zeros((rows, K + ncell))
    if K:
        design[:, :K] = panel.x.reshape(rows, K)
    design[np.arange(rows), K + cell.ravel()] = 1.0
    coef, *_ = np.linalg.lstsq(design, panel.y.ravel(), rcond=None)
    theta = coef[:K]
    gamma = coef[K:].reshape(gmap.G, mmap.M)
    resid = (panel.y.ravel() - design @ coef).reshape(n, T)
    return theta, gamma, resid


def dummy_ols_twfe(panel: PanelData):
    """Least squares on unit dummies plus time dummies, recentred so the
    time effects sum to zero."""
    n, T, K = panel.n, panel.T, panel.K
    rows = n * T
    unit = np.repeat(np.arange(n), T)
    time = np.tile(np.arange(T), n)
    design = np.zeros((rows, K + n + (T - 1)))
    if K:
        design[:, :K] = panel.x.reshape(rows, K)
    design[np.arange(rows), K + unit] = 1.0
    mask = time < T - 1
    design[np.arange(rows)[mask], K + n + time[mask]] = 1.0
    coef, *_ = np.linalg.lstsq(design, panel.y.ravel(), rcond=None)
    theta = coef[:K]
    alpha = coef[K:K + n]
    delta = np.append(coef[K + n:], 0.0)
    shift = delta.mean()
    delta = delta - shift
    alpha = alpha + shift
    resid = (panel.y.ravel() - design @ coef).reshape(n, T)
    return theta, alpha, delta, resid


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
