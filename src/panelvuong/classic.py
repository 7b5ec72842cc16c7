"""Bias-corrected quasi-likelihood-ratio test for classical grouped panels.

Compares an individual-effects model (model 1, one effect per unit) against a
competing model whose effects may pool units into known groups (model 2).
Each maximized joint likelihood is reduced by a plug-in estimate of its
incidental-parameter bias, and the difference is standardized by an
estimate of its variance.  Serial independence of the per-observation score
differences is a maintained assumption of the variance construction and is
recorded on every report.

When both models share a likelihood family, model 2 is model 1 with its unit
effects restricted to be equal within groups: the models are nested, they
coincide under the null, and the variance is sigma2_u, the incidental-
parameter variance term.  The sample variance of the score differences is
then close to an affine function of the statistic itself and must not enter.
Pairs of different families cannot be certified as nested and keep the
hybrid max rule, which stays valid for overlapping or strictly non-nested
models.

The plug-ins enter in a small-sample form, as in the twfe test: the per-unit
within-unit moments are rescaled by residual degrees-of-freedom factors
(:func:`dof_factor`) wherever the test builds its statistic and variance
terms.  Without them the statistic's mean is off by (n - G + K) / (2T)
log-likelihood units under a nested null of the unit-scale Gaussian family,
the one built-in family that takes them.
The statistic ``ClassicComponents.mqlr`` and the bias corrections and
variance terms on :class:`ClassicComponents` are dof-rescaled.  The
per-unit arrays and ``sigma2_u_raw`` keep the raw moments.

Neither the same-family rule nor the dof factors has been checked against
the paper's own variance formula, which this repository does not hold
(PAPER.md has the abstract only).  Both rest on Vuong (1989) for nested
models and on the Monte Carlo evidence in the README, and stay open to
revision once the formula can be compared term by term.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupingViolation, SingularInformation, TooSmall
from .estimation import FitResult, ModelSpec, fit_model
from .panel import PanelData
from .report import TestReport, decide

INDEPENDENCE_NOTE = ("variance estimator assumes serially independent score "
                     "differences; no autocorrelation-robust option is provided")
MAX_RULE_NOTE = ("hybrid variance max rule binding: models are nearly "
                 "indistinguishable at the fitted parameters")
NESTED_NOTE = ("both models share a likelihood family, so they are nested: "
               "omega2 is sigma2_u, the variance under the null")


@dataclass
class ClassicComponents:
    """Everything entering the classic statistic, per unit and aggregated.

    The per-unit arrays are raw moments; the bias corrections, mqlr and the
    variance terms are built from their dof-rescaled values.  A report's
    components block is the int and float fields, under their field names.
    """

    sigma2_1: np.ndarray     # per-unit score variances, model 1 (raw)
    sigma2_2: np.ndarray     # per-unit score variances, model 2 (raw)
    s2_2: np.ndarray         # per-unit second moments, model 2 (raw)
    sigma2_12: np.ndarray    # per-unit squared cross moments (raw)
    loglik_1: float
    loglik_2: float
    bias_1: float            # dof-rescaled bias correction, model 1
    bias_2: float            # dof-rescaled bias correction, model 2
    qlr: float               # uncorrected statistic
    mqlr: float
    sigma2_nt: float
    sigma2_u: float          # dof-rescaled, as used in omega2
    sigma2_u_raw: float      # unscaled moments, for reference
    sigma2_s: float
    omega2: float
    nested: bool             # same family: omega2 is sigma2_u
    n: int
    T: int
    groups_model2: int       # model-2 group count


def _residual_dof(n: int, T: int, d_theta: int, label: str = "model") -> int:
    """n(T - 1) - d_theta, the residual dof behind :func:`dof_factor`;
    raises TooSmall when it is not positive."""
    dof = n * (T - 1) - d_theta
    if dof <= 0:
        raise TooSmall(
            f"{label} leaves no residual degrees of freedom for the plug-in "
            f"variances: n(T - 1) = {n * (T - 1)}, d_theta = {d_theta}")
    return dof


def _check_classic_specs(panel: PanelData, spec_1: ModelSpec, spec_2: ModelSpec) -> None:
    if spec_1.gmap.G != panel.n:
        raise GroupingViolation(
            f"model 1 must give each unit its own group (G = n = {panel.n}), "
            f"got G = {spec_1.gmap.G}")
    for label, spec in (("model 1", spec_1), ("model 2", spec_2)):
        if spec.family.dof_rescaled:
            _residual_dof(panel.n, panel.T, spec.family.d_theta, label)


def _unit_info(fit: FitResult) -> np.ndarray:
    """|Psi_gg| of each unit's own group (M = 1)."""
    info = np.abs(fit.info_gamma[:, 0])
    if np.any(info < 1e-12):
        g = int(np.argmin(info))
        raise SingularInformation(
            f"group {g + 1} information {info[g]:.3e} below tolerance")
    return info[fit.spec.gmap.codes]


def dof_factor(fit: FitResult) -> float:
    """Residual degrees-of-freedom factor of the fit's per-unit moments.

    nT / (n(T - 1) - d_theta) for a family with ``dof_rescaled`` set, 1
    otherwise.  Each per-unit variance is a within-unit moment of the fit's
    scores.  For the unit-scale Gaussian family (gaussian-fixed-scale), the
    only built-in family with the flag, the within-unit residual sum of
    squares has expectation (n(T - 1) - k) times the noise variance, where k
    is what the common parameters take from the within-unit residual: k = K
    exactly with individual effects, 0 <= k <= K with grouped effects.
    Taking k = d_theta for both fits is off by at most K / (n(T - 1))
    relative for a grouped model and gives identical specs identical
    factors, so identical models stay exactly degenerate.

    For gaussian-full-scale the derived factor is 1: the scores are divided
    by the estimated scale RSS / (nT), which shrinks with the residual dof
    as the within-unit moments do, and model 1's plug-in sums to n exactly.
    Applying nT / (n(T - 1) - d_theta) there over-corrects: on the kind-C
    null at n=T=50 (seed 778, all 3000 replications fitted) it moves the mean
    bias-corrected log-likelihood ratio from +0.15 to -0.28 (se 0.08).
    Custom families get no factor unless they set the flag.
    """
    family = fit.spec.family
    if not family.dof_rescaled:
        return 1.0
    n, T = fit.score_gamma.shape
    return n * T / _residual_dof(n, T, family.d_theta)


def _bias(v: np.ndarray, fit: FitResult) -> float:
    sizes = fit.spec.gmap.sizes[fit.spec.gmap.codes]
    return float((v / (2.0 * sizes)).sum())


def _u_and_s(v1, v2, s2, c12, fit_2: FitResult) -> tuple[float, float]:
    """(sigma2_u, sigma2_s) from per-unit terms, model-2 groups summed."""
    n, T = fit_2.score_gamma.shape
    gmap = fit_2.spec.gmap
    ng = gmap.sizes.astype(float)[gmap.codes]
    sum_v2 = np.bincount(gmap.codes, weights=v2, minlength=gmap.G)[gmap.codes]
    sum_s2 = np.bincount(gmap.codes, weights=s2, minlength=gmap.G)[gmap.codes]
    common = v1 ** 2 - 2.0 * c12 / ng
    sigma2_u = float((common + v2 * sum_v2 / ng ** 2).sum() / (2.0 * n * T))
    sigma2_s = float((common + v2 * sum_s2 / ng ** 2).sum() / (2.0 * n * T))
    return sigma2_u, sigma2_s


def omega2_hybrid(sigma2_nt: float, sigma2_u: float, sigma2_s: float) -> float:
    """Hybrid variance: max of the corrected sample variance and sigma2_u.

    Used only when the models' nesting cannot be certified (different
    families); the inputs are whatever the caller passes, dof-rescaled in
    :func:`classic_components`.
    """
    return max(sigma2_nt + sigma2_u - 2.0 * sigma2_s, sigma2_u)


def classic_components(fit_1: FitResult, fit_2: FitResult) -> ClassicComponents:
    """Statistic and variance of the classic test.

    The bias corrections, mqlr, sigma2_u and sigma2_s use the dof-rescaled
    per-unit moments; the per-unit arrays and sigma2_u_raw are raw.  For
    same-family pairs the models are nested and omega2 is sigma2_u, the
    variance under the null; other pairs take the hybrid max rule.  The two
    fits and their group maps must be of one panel, model 1 must have one
    group per unit, and neither fit may have time blocks (M = 1).
    """
    n, T = fit_1.score_gamma.shape
    gmap_1, gmap_2 = fit_1.spec.gmap, fit_2.spec.gmap
    if fit_2.score_gamma.shape != (n, T) or gmap_1.n != n or gmap_2.n != n:
        raise GroupingViolation(
            f"fits are not of one panel: scores {(n, T)} and {fit_2.score_gamma.shape}, "
            f"group maps cover {gmap_1.n} and {gmap_2.n} units")
    if gmap_1.G != n:
        raise GroupingViolation(
            f"model 1 must give each unit its own group (G = n = {n}), "
            f"got G = {gmap_1.G}")
    for label, fit in (("model 1", fit_1), ("model 2", fit_2)):
        if fit.gamma.shape[1] != 1:
            raise GroupingViolation(
                f"{label} uses {fit.gamma.shape[1]} time blocks; the classic "
                f"test supports time-invariant effects only (M = 1)")
    info_1 = _unit_info(fit_1)
    info_2 = _unit_info(fit_2)
    score_1, score_2 = fit_1.score_gamma, fit_2.score_gamma
    m1_1, m2_1 = score_1.mean(axis=1), (score_1 ** 2).mean(axis=1)
    m1_2, m2_2 = score_2.mean(axis=1), (score_2 ** 2).mean(axis=1)
    m12 = (score_1 * score_2).mean(axis=1)
    # raw per-unit (sigma2_1, sigma2_2, s2_2, sigma2_12)
    raw = ((m2_1 - m1_1 ** 2) / info_1, (m2_2 - m1_2 ** 2) / info_2,
           m2_2 / info_2, m12 ** 2 / (info_1 * info_2))
    # variances and second moments take their own fit's factor, the squared
    # cross moment the product of both, so Cauchy-Schwarz survives rescaling
    a, b = dof_factor(fit_1), dof_factor(fit_2)
    v1, v2, s2, c12 = a * raw[0], b * raw[1], b * raw[2], (a * b) * raw[3]

    qlr = float((fit_1.loglik - fit_2.loglik) / np.sqrt(n * T))
    bias_1 = a * _bias(raw[0], fit_1)
    bias_2 = b * _bias(raw[1], fit_2)
    mqlr = float(((fit_1.loglik - bias_1) - (fit_2.loglik - bias_2)) / np.sqrt(n * T))
    dpsi = fit_1.loglik_obs - fit_2.loglik_obs
    # a numpy square overflows to inf (refused by decide) where a float's raises
    sigma2_nt = float((dpsi ** 2).sum() / (n * T) - np.float64(mqlr) ** 2 / (n * T))
    sigma2_u, sigma2_s = _u_and_s(v1, v2, s2, c12, fit_2)
    # model 2 is model 1 with its unit effects restricted within groups
    # when both fits use one family (equal by ==, see panelvuong.families)
    nested = fit_1.spec.family == fit_2.spec.family

    return ClassicComponents(
        sigma2_1=raw[0],
        sigma2_2=raw[1],
        s2_2=raw[2],
        sigma2_12=raw[3],
        loglik_1=fit_1.loglik,
        loglik_2=fit_2.loglik,
        bias_1=bias_1,
        bias_2=bias_2,
        qlr=qlr,
        mqlr=mqlr,
        sigma2_nt=sigma2_nt,
        sigma2_u=sigma2_u,
        sigma2_u_raw=_u_and_s(*raw, fit_2)[0],
        sigma2_s=sigma2_s,
        omega2=sigma2_u if nested else omega2_hybrid(sigma2_nt, sigma2_u, sigma2_s),
        nested=nested,
        n=n,
        T=T,
        groups_model2=gmap_2.G,
    )


def run_classic_test(panel: PanelData, spec_1: ModelSpec, spec_2: ModelSpec,
                     level: float = 0.05) -> TestReport:
    """Fit both models and run the two- and one-sided comparison.

    Model 1 must assign each unit its own group; model 2 may use any known
    grouping.  A positive statistic favors model 1.  The statistic carries
    dof-rescaled bias corrections (:func:`dof_factor`; factor 1 for a family
    without ``dof_rescaled``) and is standardized by the dof-rescaled
    sigma2_u when both specs share a family (the report says so), by the
    hybrid max rule otherwise.  When that variance is numerically zero
    relative to the statistic the comparison is reported as degenerate and
    no decision is made.
    """
    _check_classic_specs(panel, spec_1, spec_2)
    fit_1 = fit_model(panel, spec_1)
    fit_2 = fit_model(panel, spec_2)
    comp = classic_components(fit_1, fit_2)

    warnings = [INDEPENDENCE_NOTE]
    if comp.nested:
        warnings.append(NESTED_NOTE)
    elif comp.sigma2_u > comp.sigma2_nt + comp.sigma2_u - 2.0 * comp.sigma2_s:
        warnings.append(MAX_RULE_NOTE)
    return decide("classic", comp, level, warnings)
