"""Per-observation quasi-log-likelihood families.

A family bundles the log density ``psi`` and its analytic derivatives in the
scalar group effect (first and second order) plus the gradient in the common
parameters.  All callables are vectorized: ``y`` and ``gamma`` broadcast,
``x`` carries a trailing covariate axis, and ``psi_theta`` returns a trailing
axis of length ``d_theta``.  Custom families register by constructing the
dataclass; there is no automatic differentiation.  Each shipped constructor
builds one object per K, so ``==`` (name, d_theta and the four callables)
tells a shipped family from any other.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError
from .panel import PanelData, linear_index


@dataclass(frozen=True)
class LikelihoodFamily:
    name: str
    d_theta: int
    psi: Callable                    # (y, x, theta, gamma) -> array like y
    psi_theta: Callable              # -> array shaped y.shape + (d_theta,)
    psi_gamma: Callable              # -> array like y
    psi_gammagamma: Callable         # -> array like y
    init_theta: Callable | None = field(default=None, compare=False)
    # working residual y - x'beta used to seed cell effects; defaults to y
    working_residual: Callable | None = field(default=None, compare=False)
    # whether the classic test rescales the per-unit score moments by the
    # residual dof (see classic.dof_factor); derived for the unit-scale
    # Gaussian family only, so off unless a family's derivation shows it
    dof_rescaled: bool = field(default=False, compare=False)


def _one_per_k(make):
    """``make`` built once per int(K), so equal K give one family object."""
    cached = functools.cache(make)

    @functools.wraps(make)
    def shipped(n_covariates: int, /) -> LikelihoodFamily:
        return cached(int(n_covariates))
    return shipped


@_one_per_k
def gaussian_fixed_scale(K: int, /) -> LikelihoodFamily:
    """psi = -(y - x'theta - gamma)^2 / 2; unit scale."""

    def resid(y, x, theta, gamma):
        return y - (linear_index(x, theta) if K else 0.0) - gamma

    def psi(y, x, theta, gamma):
        return -0.5 * resid(y, x, theta, gamma) ** 2

    def psi_theta(y, x, theta, gamma):
        return x * resid(y, x, theta, gamma)[..., None]

    def psi_gamma(y, x, theta, gamma):
        return resid(y, x, theta, gamma)

    def psi_gammagamma(y, x, theta, gamma):
        return np.full(np.shape(y), -1.0)

    def working_residual(y, x, theta):
        return y - (linear_index(x, theta) if K else 0.0)

    return LikelihoodFamily("gaussian-fixed-scale", K, psi, psi_theta,
                            psi_gamma, psi_gammagamma, _pooled_ols, working_residual,
                            dof_rescaled=True)


@_one_per_k
def gaussian_full_scale(K: int, /) -> LikelihoodFamily:
    """psi = -log(s2)/2 - (y - x'beta - gamma)^2 / (2 s2), theta = (beta, s2)."""

    def split(theta):
        s2 = float(theta[-1])
        if s2 <= 0.0:
            raise DomainError(f"scale must be positive, got sigma^2 = {s2}")
        return theta[:-1], s2

    def resid(y, x, beta, gamma):
        return y - (linear_index(x, beta) if K else 0.0) - gamma

    def psi(y, x, theta, gamma):
        beta, s2 = split(theta)
        return -0.5 * np.log(s2) - resid(y, x, beta, gamma) ** 2 / (2.0 * s2)

    def psi_theta(y, x, theta, gamma):
        beta, s2 = split(theta)
        r = resid(y, x, beta, gamma)
        out = np.empty(np.shape(y) + (K + 1,))
        if K:
            out[..., :K] = x * (r / s2)[..., None]
        out[..., K] = -0.5 / s2 + r ** 2 / (2.0 * s2 ** 2)
        return out

    def psi_gamma(y, x, theta, gamma):
        beta, s2 = split(theta)
        return resid(y, x, beta, gamma) / s2

    def psi_gammagamma(y, x, theta, gamma):
        _, s2 = split(theta)
        return np.full(np.shape(y), -1.0 / s2)

    def init_theta(panel: PanelData) -> np.ndarray:
        beta = _pooled_ols(panel)
        r = panel.y - (linear_index(panel.x, beta) if panel.K else 0.0)
        r = r - r.mean()
        return np.append(beta, max(float(np.mean(r ** 2)), 1e-8))

    def working_residual(y, x, theta):
        beta, _ = split(theta)
        return y - (linear_index(x, beta) if K else 0.0)

    return LikelihoodFamily("gaussian-full-scale", K + 1, psi, psi_theta,
                            psi_gamma, psi_gammagamma, init_theta, working_residual)


def _pooled_ols(panel: PanelData) -> np.ndarray:
    if panel.K == 0:
        return np.zeros(0)
    X = panel.x.reshape(-1, panel.K)
    Xc = X - X.mean(axis=0)
    yc = panel.y.reshape(-1) - panel.y.mean()
    beta, *_ = np.linalg.lstsq(Xc, yc, rcond=None)
    return beta


def check_derivatives(family: LikelihoodFamily, points) -> float:
    """Max relative gap between analytic derivatives and finite differences.

    ``psi_theta`` and ``psi_gamma`` are checked against central differences of
    ``psi``; ``psi_gammagamma`` against central differences of ``psi_gamma``
    (second differences of psi would drown in rounding at this step size).
    Gaps are relative to max(1, |finite difference|), the finite difference
    being the independent reference.

    Parameters
    ----------
    points : iterable of (y, x, theta, gamma)
        Evaluation points inside the family's domain.
    """
    h = 1e-5   # central-difference step
    psi, psi_gamma = family.psi, family.psi_gamma
    worst = 0.0
    for point in points:
        # arrays, not Python floats: psi_theta indexes its residual with [..., None]
        y, x, theta, gamma = (np.asarray(v, float) for v in point)

        fd_g = (psi(y, x, theta, gamma + h) - psi(y, x, theta, gamma - h)) / (2.0 * h)
        an_g = float(psi_gamma(y, x, theta, gamma))
        worst = max(worst, abs(fd_g - an_g) / max(1.0, abs(fd_g)))

        fd_gg = (float(psi_gamma(y, x, theta, gamma + h))
                 - float(psi_gamma(y, x, theta, gamma - h))) / (2.0 * h)
        an_gg = float(family.psi_gammagamma(y, x, theta, gamma))
        worst = max(worst, abs(fd_gg - an_gg) / max(1.0, abs(fd_gg)))

        an_t = family.psi_theta(y, x, theta, gamma)
        for k in range(family.d_theta):
            step = np.zeros_like(theta)
            step[k] = h
            fd_t = (psi(y, x, theta + step, gamma)
                    - psi(y, x, theta - step, gamma)) / (2.0 * h)
            an_tk = float(an_t[..., k])
            worst = max(worst, abs(fd_t - an_tk) / max(1.0, abs(fd_t)))
    return worst
