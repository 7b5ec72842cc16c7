"""Term-by-term and regrouped forms of the test components, as oracles.

Each function computes a quantity the production path computes in one
pass (:func:`panelvuong.classic.classic_components`,
:func:`panelvuong.twfe.twfe_components`) by a separate route: one unit at a
time, from its own moments, or in a regrouped algebraic form that exposes
nonnegativity.  The tests compare the two.

:func:`load_csv_rows` is the cell-by-cell CSV loader that
:func:`panelvuong.cli.load_csv` replaced with column passes; the tests
require the same arrays, label maps and errors from both.

:func:`foc_residuals` recomputes a fit's first-order conditions from its
family, and :func:`local_power_curve` is the limiting power that the
local-alternative campaign is compared with.
"""

import csv
from pathlib import Path

import numpy as np

from panelvuong.classic import dof_factor
from panelvuong.cli import CsvSchema
from panelvuong.errors import (GroupDrift, GroupingViolation, ParseError,
                               SingularInformation, Unbalanced)
from panelvuong.estimation import FitResult
from panelvuong.panel import (GroupMap, PanelData, groups_from_labels,
                              make_panel)
from panelvuong.stats import critical_values, normal_cdf


def _unit_info(fit: FitResult) -> np.ndarray:
    """|Psi_gg| of each unit's own group (M = 1)."""
    info = np.abs(fit.info_gamma[:, 0])
    if np.any(info < 1e-12):
        g = int(np.argmin(info))
        raise SingularInformation(
            f"group {g + 1} information {info[g]:.3e} below tolerance")
    return info[fit.spec.gmap.codes]


def _unit_moments(fit: FitResult) -> tuple[np.ndarray, np.ndarray]:
    s = fit.score_gamma
    return s.mean(axis=1), (s ** 2).mean(axis=1)


def sigma2_gamma_unit(fit: FitResult, i: int) -> float:
    """Per-unit score variance over time, scaled by the group information."""
    m1, m2 = _unit_moments(fit)
    return float((m2[i] - m1[i] ** 2) / _unit_info(fit)[i])


def s2_gamma_unit(fit: FitResult, i: int) -> float:
    """Per-unit raw second moment (no demeaning), same scaling."""
    _, m2 = _unit_moments(fit)
    return float(m2[i] / _unit_info(fit)[i])


def sigma2_cross_unit(fit_1: FitResult, fit_2: FitResult, i: int) -> float:
    """Squared cross moment of the two models' scores for one unit."""
    m12 = (fit_1.score_gamma[i] * fit_2.score_gamma[i]).mean()
    out = float(m12 ** 2 / (_unit_info(fit_1)[i] * _unit_info(fit_2)[i]))
    bound = s2_gamma_unit(fit_1, i) * s2_gamma_unit(fit_2, i)
    if out > bound * (1.0 + 1e-9) + 1e-12:
        raise SingularInformation(
            f"cross moment {out:.6e} exceeds Cauchy-Schwarz bound {bound:.6e}")
    return out


def _check_individual(fit_1: FitResult) -> None:
    n = fit_1.score_gamma.shape[0]
    if fit_1.spec.gmap.G != n:
        raise GroupingViolation(
            f"model 1 must give each unit its own group (G = n = {n}), "
            f"got G = {fit_1.spec.gmap.G}")


def _bias(v: np.ndarray, fit: FitResult) -> float:
    sizes = fit.spec.gmap.sizes[fit.spec.gmap.codes]
    return float((v / (2.0 * sizes)).sum())


def bias_correction(fit: FitResult) -> float:
    """Incidental-parameter bias of a maximized joint likelihood, raw.

    Sums each unit's score variance weighted by half the reciprocal of its
    group size; with individual effects this is half the sum of per-unit
    variances.  The per-unit variances are the raw (divide-by-T) moments;
    the statistic subtracts ``dof_factor(fit) * bias_correction(fit)``.
    """
    m1, m2 = _unit_moments(fit)
    return _bias((m2 - m1 ** 2) / _unit_info(fit), fit)


def _mqlr(fit_1: FitResult, fit_2: FitResult, r_1: float, r_2: float) -> float:
    n, T = fit_1.score_gamma.shape
    return float(((fit_1.loglik - r_1) - (fit_2.loglik - r_2)) / np.sqrt(n * T))


def mqlr_classic(fit_1: FitResult, fit_2: FitResult) -> float:
    """Bias-corrected likelihood-ratio statistic scaled by (nT)^(-1/2).

    Each log-likelihood is reduced by its dof-rescaled bias correction,
    ``dof_factor(fit) * bias_correction(fit)``; this is the statistic the
    test reports (``ClassicComponents.mqlr``).
    """
    _check_individual(fit_1)
    return _mqlr(fit_1, fit_2, dof_factor(fit_1) * bias_correction(fit_1),
                 dof_factor(fit_2) * bias_correction(fit_2))


def _unit_terms(fit_1: FitResult, fit_2: FitResult):
    """Raw per-unit (sigma2_1, sigma2_2, s2_2, sigma2_12)."""
    info_1 = _unit_info(fit_1)
    info_2 = _unit_info(fit_2)
    m1_1, m2_1 = _unit_moments(fit_1)
    m1_2, m2_2 = _unit_moments(fit_2)
    m12 = (fit_1.score_gamma * fit_2.score_gamma).mean(axis=1)
    return ((m2_1 - m1_1 ** 2) / info_1, (m2_2 - m1_2 ** 2) / info_2,
            m2_2 / info_2, m12 ** 2 / (info_1 * info_2))


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


def _sigma2_nt(fit_1: FitResult, fit_2: FitResult, mqlr: float) -> float:
    n, T = fit_1.score_gamma.shape
    dpsi = fit_1.loglik_obs - fit_2.loglik_obs
    return float((dpsi ** 2).sum() / (n * T) - mqlr ** 2 / (n * T))


def variance_components(fit_1: FitResult, fit_2: FitResult,
                        mqlr: float) -> tuple[float, float, float]:
    """Sample variance of the score differences plus the two incidental-
    parameter variance terms (sigma2_nt, sigma2_u, sigma2_s), raw.

    sigma2_u and sigma2_s are built from the raw per-unit moments, so this
    sigma2_u is ``ClassicComponents.sigma2_u_raw``; the test uses their
    dof-rescaled values (:func:`classic_components`).  Both are
    nonnegative by construction; sigma2_nt may be negative in pathological
    tiny samples and is reported as computed.
    """
    sigma2_u, sigma2_s = _u_and_s(*_unit_terms(fit_1, fit_2), fit_2)
    return _sigma2_nt(fit_1, fit_2, mqlr), sigma2_u, sigma2_s


def variance_u_regrouped(fit_1: FitResult, fit_2: FitResult) -> float:
    """Raw sigma2_u in the form that exposes its nonnegativity.

    Expands the group double sum into per-unit squares plus distinct-pair
    products; the per-unit bracket is a completed square once the squared
    cross moment obeys Cauchy-Schwarz (exact here because model 1's own
    first-order condition centers its scores unit by unit).
    """
    n, T = fit_1.score_gamma.shape
    v1, v2, _, c12 = _unit_terms(fit_1, fit_2)
    codes = fit_2.spec.gmap.codes
    ng = fit_2.spec.gmap.sizes.astype(float)[codes]
    sum_v2 = np.bincount(codes, weights=v2, minlength=fit_2.spec.gmap.G)
    pair_products = v2 * (sum_v2[codes] - v2)   # sum over i' != i within the group
    per_unit = v1 ** 2 - 2.0 * c12 / ng + (v2 / ng) ** 2
    return float((per_unit + pair_products / ng ** 2).sum() / (2.0 * n * T))


def _group_sums(v1, v2, v12, gmap: GroupMap):
    if np.asarray(v1).shape != (gmap.n,):
        raise GroupingViolation(f"per-unit array has shape {np.asarray(v1).shape}, "
                                f"expected ({gmap.n},)")
    s1 = np.bincount(gmap.codes, weights=v1, minlength=gmap.G)
    s2 = np.bincount(gmap.codes, weights=v2, minlength=gmap.G)
    s12 = np.bincount(gmap.codes, weights=v12, minlength=gmap.G)
    return s1, s2, s12


def sigma2_u_regrouped(v1: np.ndarray, v2: np.ndarray, v12: np.ndarray,
                       gmap: GroupMap, T: int) -> float:
    """Algebraically equal form exposing nonnegativity.

    Splits the square of the model-2 total into cross-group products plus
    per-group squares, then completes each group's square; both remaining
    brackets are nonnegative by Cauchy-Schwarz, so the whole expression is.
    """
    n = gmap.n
    sizes = gmap.sizes.astype(float)
    s1, s2, s12 = _group_sums(v1, v2, v12, gmap)
    cross_pairs = (s2.sum() ** 2 - (s2 ** 2).sum()) / 2.0
    bracket = (s1 / sizes - s2 / n) ** 2 + 2.0 * (s1 * s2 - s12 ** 2) / (sizes * n)
    return float(
        (np.asarray(v2) ** 2).sum() / (2.0 * n * T)
        + cross_pairs / n ** 3
        + bracket.sum() / (2.0 * n)
    )


def _parse_float(text: str, row: int, col: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"cannot parse {text!r} as a number", row=row, col=col)


def load_csv_rows(path, schema: CsvSchema) -> tuple[PanelData, dict[str, GroupMap], dict]:
    """Read a balanced panel from a comma-separated file.

    Unit and time labels may be arbitrary; units are numbered by first
    appearance, times sort numerically when every label parses as a number
    and lexicographically otherwise.  Group labels must be constant within a
    unit.  Returns the panel, one GroupMap per requested group column, and
    the label maps for the report metadata.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file is empty", row=1)
        header = [h.strip() for h in header]
        needed = [schema.unit_col, schema.time_col, schema.y_col,
                  *schema.x_cols, *schema.group_cols]
        for col in needed:
            if col not in header:
                raise ParseError(f"missing column {col!r}", row=1)
        idx = {col: header.index(col) for col in needed}

        rows = []
        for rownum, parts in enumerate(reader, start=2):
            if not parts or all(not p.strip() for p in parts):
                continue
            if len(parts) < len(header):
                raise ParseError(f"expected {len(header)} fields, got {len(parts)}",
                                 row=rownum)
            rows.append((rownum, parts))

    if not rows:
        raise ParseError("no data rows", row=2)

    units: dict[str, int] = {}
    time_labels: dict[str, None] = {}
    for rownum, parts in rows:
        unit = parts[idx[schema.unit_col]].strip()
        if unit not in units:
            units[unit] = len(units)
        time_labels.setdefault(parts[idx[schema.time_col]].strip(), None)

    try:
        times = sorted(time_labels, key=float)
    except ValueError:
        times = sorted(time_labels)
    time_index = {t: i for i, t in enumerate(times)}

    n, T, K = len(units), len(times), len(schema.x_cols)
    y = np.full((n, T), np.nan)
    x = np.full((n, T, K), np.nan)
    seen = np.zeros((n, T), dtype=bool)
    group_labels: dict[str, list] = {col: [None] * n for col in schema.group_cols}

    for rownum, parts in rows:
        i = units[parts[idx[schema.unit_col]].strip()]
        t = time_index[parts[idx[schema.time_col]].strip()]
        if seen[i, t]:
            raise Unbalanced(f"duplicate cell for unit "
                             f"{parts[idx[schema.unit_col]]!r} at time "
                             f"{parts[idx[schema.time_col]]!r} (row {rownum})")
        seen[i, t] = True
        y[i, t] = _parse_float(parts[idx[schema.y_col]], rownum, schema.y_col)
        for k, col in enumerate(schema.x_cols):
            x[i, t, k] = _parse_float(parts[idx[col]], rownum, col)
        for col in schema.group_cols:
            label = parts[idx[col]].strip()
            prev = group_labels[col][i]
            if prev is None:
                group_labels[col][i] = label
            elif prev != label:
                raise GroupDrift(
                    f"unit {parts[idx[schema.unit_col]]!r} has group {prev!r} and "
                    f"{label!r} in column {col!r} (row {rownum})")

    if not seen.all():
        i, t = np.argwhere(~seen)[0]
        unit_label = next(u for u, j in units.items() if j == i)
        raise Unbalanced(f"missing cell: unit {unit_label!r} at time {times[t]!r}")

    gmaps: dict[str, GroupMap] = {}
    label_maps: dict[str, dict] = {
        "units": {u: i + 1 for u, i in units.items()},
        "times": {t: i + 1 for i, t in enumerate(times)},
    }
    for col in schema.group_cols:
        gmaps[col], order = groups_from_labels(group_labels[col])
        label_maps[f"groups[{col}]"] = {lab: g + 1 for lab, g in order.items()}

    return make_panel(y, x if K else None), gmaps, label_maps


def foc_residuals(panel: PanelData, fit: FitResult) -> tuple[float, float]:
    """(theta score inf-norm, max absolute cell score) at the fitted optimum."""
    spec = fit.spec
    mmap = spec.time_map(panel.T)
    ids = spec.gmap.codes[:, None] * mmap.M + mmap.codes[None, :]
    gfield = fit.gamma.ravel()[ids]
    max_theta = 0.0
    if spec.family.d_theta:
        st = spec.family.psi_theta(panel.y, panel.x, fit.theta, gfield)
        max_theta = float(np.max(np.abs(st.reshape(-1, spec.family.d_theta).sum(axis=0))))
    sg = spec.family.psi_gamma(panel.y, panel.x, fit.theta, gfield)
    cell_sums = np.bincount(ids.ravel(), weights=sg.ravel(),
                            minlength=spec.gmap.G * mmap.M)
    return max_theta, float(np.max(np.abs(cell_sums)))


def local_power_curve(c: float, level: float = 0.05) -> float:
    """Limiting one-sided rejection rate at standardized drift c."""
    return float(1.0 - normal_cdf(critical_values(level)[1] - c))
