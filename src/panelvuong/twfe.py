"""Linear-model test: grouped time effects versus two-way fixed effects.

Model 1 gives every known unit group its own time path; model 2 is the
additive unit + time specification.  The squared-residual contrast is
recentred by a plug-in estimate of the incidental-parameter bias gap and
standardized by a hybrid variance estimator.

The bias and variance plug-ins enter in a small-sample form: per-unit second
moments are rescaled by the exact degrees-of-freedom factors of the two
projections (cells of size n_g for model 1; the n + T - 1 additive layout for
model 2, which is also why the model-2 weight uses T - 1), and the cross
moments carry the geometric mean of the two factors so every positivity
inequality survives rescaling.  Without these factors the statistic's mean is
off by several standard errors at realistic panel sizes because the raw
model-1 term multiplies each unit's variance by T / n_g.  The unscaled
moments are kept alongside for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupingViolation
from .estimation import GroupedTimeFit, TwfeFit, fit_grouped_time, fit_twfe
from .panel import GroupMap, PanelData
from .report import TestReport, decide

SATURATED_NOTE = ("every unit is its own group; the grouped-time model fits "
                  "each cell exactly and the large-group approximation does not apply")
SINGLETON_NOTE = ("singleton group(s) present: their cells are fit exactly and "
                  "contribute zero model-1 residual variance")


@dataclass
class TwfeTestComponents:
    """Residual moments and aggregates behind the grouped-time vs TWFE test."""

    resid_1: np.ndarray      # (n, T) grouped-time residuals
    resid_2: np.ndarray      # (n, T) two-way residuals
    sigma2_1: np.ndarray     # per-unit mean squared residuals, model 1
    sigma2_2: np.ndarray     # per-unit mean squared residuals, model 2
    sigma12: np.ndarray      # per-unit residual cross moments
    qlr: float               # uncorrected statistic
    bias: float              # estimated bias gap E[S]
    mqlr: float
    sigma2_nt: float
    sigma2_u: float          # dof-rescaled, as used in omega2
    sigma2_u_raw: float      # unscaled moments, for reference
    omega2: float
    n: int
    T: int
    groups_model1: int       # model-1 group count


def qlr_twfe(resid_1: np.ndarray, resid_2: np.ndarray) -> float:
    """Scaled squared-residual contrast; positive favors model 1."""
    n, T = resid_1.shape
    return float((resid_2 ** 2 - resid_1 ** 2).sum() / (2.0 * np.sqrt(n * T)))


def dof_factors(gmap: GroupMap, T: int) -> tuple[np.ndarray, float]:
    """Per-unit model-1 factor n_g/(n_g - 1) and scalar model-2 factor.

    Singleton groups get factor 1: their cells are fit exactly, so the
    rescaled moment stays zero regardless.
    """
    n = gmap.n
    sizes = gmap.sizes.astype(float)[gmap.codes]
    a = np.where(sizes > 1.0, sizes / np.maximum(sizes - 1.0, 1.0), 1.0)
    b = (n * T) / ((n - 1.0) * (T - 1.0))
    return a, float(b)


def bias_hat(sigma2_1: np.ndarray, sigma2_2: np.ndarray, gmap: GroupMap,
             T: int) -> float:
    """Plug-in bias gap between the two maximized likelihoods.

    Model 1 contributes T/n_g per unit variance; model 2 contributes one unit
    of variance per estimated effect, n + T - 1 of them in total, hence the
    1 + (T-1)/n weight.
    """
    n = gmap.n
    sizes = gmap.sizes.astype(float)[gmap.codes]
    bracket = (T / sizes) * sigma2_1 - (1.0 + (T - 1.0) / n) * sigma2_2
    return float(bracket.sum() / (2.0 * np.sqrt(n * T)))


def _sigma2_u(v1: np.ndarray, v2: np.ndarray, v12: np.ndarray,
              gmap: GroupMap, T: int) -> float:
    """Incidental-parameter variance term, term by term as displayed.

    Nonnegative for any input: an algebraically equal regrouping splits it
    into brackets that are nonnegative by Cauchy-Schwarz.
    """
    n = gmap.n
    sizes = gmap.sizes.astype(float)
    s1, s2, s12 = (np.bincount(gmap.codes, weights=v, minlength=gmap.G)
                   for v in (v1, v2, v12))
    return float(
        (v2 ** 2).sum() / (2.0 * n * T)
        + (s1 ** 2 / sizes ** 2).sum() / (2.0 * n)
        + s2.sum() ** 2 / (2.0 * n ** 3)
        - (s12 ** 2 / sizes).sum() / n ** 2
    )


def run_twfe_test(panel: PanelData, gmap: GroupMap,
                  level: float = 0.05) -> TestReport:
    """Fit both linear models and run the comparison at the given level."""
    comp = twfe_components(fit_grouped_time(panel, gmap), fit_twfe(panel))

    warnings = []
    if gmap.G == panel.n:
        warnings.append(SATURATED_NOTE)
    elif np.any(gmap.sizes == 1):
        warnings.append(SINGLETON_NOTE)
    return decide("twfe", comp, level, warnings)


def twfe_components(fit_1: GroupedTimeFit, fit_2: TwfeFit) -> TwfeTestComponents:
    """Statistic and variance of the twfe test from one per-unit moment pass.

    n and T come from the residuals and the group map from ``fit_1``; the
    two fits and the map must be of one panel.  sigma2_nt may be
    tiny-negative in pathological samples and is not clamped.
    """
    e1, e2, gmap = fit_1.residuals, fit_2.residuals, fit_1.gmap
    n, T = e1.shape
    if e2.shape != (n, T) or gmap.n != n:
        raise GroupingViolation(
            f"fits are not of one panel: residuals {e1.shape} and {e2.shape}, "
            f"group map covers {gmap.n} units")
    qlr = qlr_twfe(e1, e2)

    # per-unit (sigma2_1, sigma2_2, sigma12), raw and then dof-rescaled
    raw1, raw2, raw12 = (e1 ** 2).mean(axis=1), (e2 ** 2).mean(axis=1), (e1 * e2).mean(axis=1)
    a, b = dof_factors(gmap, T)
    c1, c2, c12 = raw1 * a, raw2 * b, raw12 * np.sqrt(a * b)
    bias = bias_hat(c1, c2, gmap, T)
    mqlr = qlr - bias
    d = e2 ** 2 - e1 ** 2
    # a numpy square overflows to inf (refused by decide) where a float's raises
    sigma2_nt = float((d ** 2).sum() / (4.0 * n * T) - np.float64(mqlr) ** 2 / (n * T))
    sigma2_u = _sigma2_u(c1, c2, c12, gmap, T)
    sigma2_u_raw = _sigma2_u(raw1, raw2, raw12, gmap, T)
    omega2 = omega2_twfe(sigma2_nt, sigma2_u)

    return TwfeTestComponents(
        resid_1=e1, resid_2=e2,
        sigma2_1=raw1, sigma2_2=raw2, sigma12=raw12,
        qlr=qlr, bias=bias, mqlr=mqlr,
        sigma2_nt=sigma2_nt, sigma2_u=sigma2_u, sigma2_u_raw=sigma2_u_raw,
        omega2=omega2, n=n, T=T, groups_model1=gmap.G,
    )


def omega2_twfe(sigma2_nt: float, sigma2_u: float) -> float:
    """Hybrid variance: max of the corrected sample variance and sigma2_u.

    The correction here subtracts sigma2_u (the sample variance of the
    squared-residual contrast double-counts it); this differs from the
    classic construction, which has a separate third term.
    """
    return max(sigma2_nt - sigma2_u, sigma2_u)
