"""Grouped-panel estimators.

Closed-form least-squares fits for the linear model families (cell effects,
group-by-time effects, additive two-way effects) and a generic profile-Newton
quasi-MLE that maximizes any registered likelihood family subject to a known
group structure.  All fits return exact first-order conditions up to the
stated tolerances and cache the per-observation scores and per-cell curvature
needed by the model-comparison tests.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (DomainError, GroupingViolation, NoConvergence, RankDeficient,
                     SingularInformation)
from .families import LikelihoodFamily, gaussian_fixed_scale, gaussian_full_scale
from .panel import GroupMap, PanelData, TimeGroupMap, linear_index, single_block

COND_LIMIT = 1e12
EIG_FLOOR = 1e-12
INFO_FLOOR = 1e-12
# profile-Newton budgets of fit_profile_mle
TOL = 1e-10          # infinity-norm bound on the theta score and every cell score
MAX_ITER = 100       # Newton steps on theta
INNER_TOL = 1e-12    # absolute bound on each cell's scalar first-order condition
MAX_HALVINGS = 30    # step halvings per Newton update; also guards the family's domain


@dataclass(frozen=True, eq=False)
class ModelSpec:
    """A likelihood family plus the known unit/time group structure."""

    family: LikelihoodFamily
    gmap: GroupMap
    mmap: TimeGroupMap | None = None   # defaults to a single block (M = 1)

    def time_map(self, T: int) -> TimeGroupMap:
        return self.mmap if self.mmap is not None else single_block(T)


@dataclass
class FitResult:
    """Maximized grouped quasi-likelihood with cached score/curvature."""

    theta: np.ndarray          # (d_theta,)
    gamma: np.ndarray          # (G, M) cell effects
    loglik: float
    loglik_obs: np.ndarray     # (n, T) psi at the optimum
    score_gamma: np.ndarray    # (n, T) psi_gamma at the optimum
    info_gamma: np.ndarray     # (G, M) cell averages of psi_gammagamma
    iterations: int            # Newton steps taken on theta
    spec: ModelSpec


@dataclass
class TwfeFit:
    """Additive two-way fixed effects fit with sum-zero time effects."""

    theta: np.ndarray          # (K,)
    alpha: np.ndarray          # (n,) unit effects
    delta: np.ndarray          # (T,) time effects, sum exactly zero
    residuals: np.ndarray      # (n, T)


@dataclass
class GroupedTimeFit:
    """Separate time path per known unit group."""

    theta: np.ndarray          # (K,)
    gamma_gt: np.ndarray       # (G, T)
    residuals: np.ndarray      # (n, T)
    gmap: GroupMap


def _within_theta(xdot: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares theta of y on demeaned (n, T, K) covariates, with rank
    diagnostics on their normalized Gram matrix."""
    n, T, _ = xdot.shape
    gram = np.einsum("itk,itl->kl", xdot, xdot) / (n * T)
    rhs = np.einsum("itk,it->k", xdot, y) / (n * T)
    eig = np.linalg.eigvalsh(gram)
    lo, hi = float(eig[0]), float(eig[-1])
    if lo < EIG_FLOOR or hi / max(lo, 1e-300) > COND_LIMIT:
        raise RankDeficient(
            f"demeaned Gram matrix is rank deficient (eigenvalues in [{lo:.3e}, {hi:.3e}])")
    c = np.linalg.cholesky(gram)
    return np.linalg.solve(c.T, np.linalg.solve(c, rhs))


def _check_maps(panel: PanelData, gmap: GroupMap, mmap: TimeGroupMap | None = None) -> None:
    """Every fit's one coverage check: ``GroupingViolation`` unless the maps span the panel."""
    T = panel.T if mmap is None else mmap.T
    if gmap.n != panel.n or T != panel.T:
        raise GroupingViolation(f"group maps cover ({gmap.n}, {T}), panel ({panel.n}, {panel.T})")


class _Cells:
    """Flat (group, block) cell ids ``g * M + m`` over the (n, T) grid, with
    per-cell segment sums."""

    def __init__(self, panel: PanelData, gmap: GroupMap, mmap: TimeGroupMap):
        _check_maps(panel, gmap, mmap)
        self.M = mmap.M
        self.count = gmap.G * mmap.M
        self.ids = gmap.codes[:, None] * mmap.M + mmap.codes[None, :]
        self._flat = self.ids.ravel()
        blocks = np.bincount(mmap.codes, minlength=self.M)
        self.size = np.outer(gmap.sizes, blocks).ravel().astype(float)

    def sum(self, a: np.ndarray) -> np.ndarray:
        """Per-cell sums of an (n, T) array."""
        return np.bincount(self._flat, weights=a.ravel(), minlength=self.count)

    def mean(self, a: np.ndarray) -> np.ndarray:
        """Per-cell means of an (n, T) array."""
        return self.sum(a) / self.size

    def label(self, k: int) -> str:
        """One-based (g, m) of flat cell ``k``."""
        return f"({k // self.M + 1}, {k % self.M + 1})"


def _curvature(panel: PanelData, family: LikelihoodFamily, cells: _Cells, theta: np.ndarray,
               gfield: np.ndarray, phase: str, check=True) -> np.ndarray:
    """Per-cell sums of psi_gammagamma; the first checked cell whose average
    is flat (not negative, in the final pass) raises, naming the phase."""
    h = cells.sum(family.psi_gammagamma(panel.y, panel.x, theta, gfield))
    info = h / cells.size
    flat = check & (info >= -INFO_FLOOR if phase == "not negative"
                    else np.abs(info) < INFO_FLOOR)
    if flat.any():
        k = int(np.argmax(flat))
        raise SingularInformation(f"cell {cells.label(k)} curvature {info[k]:.3e} {phase}")
    return h


def _fit_result(panel: PanelData, spec: ModelSpec, cells: _Cells, theta: np.ndarray,
                gamma: np.ndarray, score_gamma: np.ndarray, iterations: int) -> FitResult:
    """The fit at (theta, flat cell effects gamma), whose cell curvatures must be negative."""
    gfield = gamma[cells.ids]
    loglik_obs = spec.family.psi(panel.y, panel.x, theta, gfield)
    info = _curvature(panel, spec.family, cells, theta, gfield, "not negative") / cells.size
    shape = (spec.gmap.G, cells.M)
    return FitResult(theta, gamma.reshape(shape), float(loglik_obs.sum()), loglik_obs,
                     score_gamma, info.reshape(shape), iterations, spec)


def fit_linear_cells(panel: PanelData, gmap: GroupMap,
                     mmap: TimeGroupMap | None = None) -> FitResult:
    """Exact least squares with one effect per (group, block) cell: :func:`fit_model`
    with the unit-scale Gaussian family, whose ``score_gamma`` is the residual."""
    return fit_model(panel, ModelSpec(gaussian_fixed_scale(panel.K), gmap, mmap))


def fit_grouped_time(panel: PanelData, gmap: GroupMap) -> GroupedTimeFit:
    """Group-by-time effects: theta from within-(g, t) demeaning, effects as
    cell means of the working residual."""
    _check_maps(panel, gmap)
    Z = (gmap.codes[None, :] == np.arange(gmap.G)[:, None]).astype(float)   # (G, n)
    sizes = gmap.sizes.astype(float)

    ybar_gt = (Z @ panel.y) / sizes[:, None]                       # (G, T)
    if panel.K:
        xbar_gt = np.einsum("gi,itk->gtk", Z, panel.x) / sizes[:, None, None]
        theta = _within_theta(panel.x - xbar_gt[gmap.codes], panel.y)
        gamma_gt = ybar_gt - linear_index(xbar_gt, theta)
        resid = panel.y - linear_index(panel.x, theta) - gamma_gt[gmap.codes]
    else:
        theta = np.zeros(0)
        gamma_gt = ybar_gt
        resid = panel.y - gamma_gt[gmap.codes]
    return GroupedTimeFit(theta=theta, gamma_gt=gamma_gt, residuals=resid, gmap=gmap)


def fit_twfe(panel: PanelData) -> TwfeFit:
    """Additive unit + time effects with the time effects summing to zero."""
    y = panel.y
    ybar_i = y.mean(axis=1)
    ybar_t = y.mean(axis=0)
    ybar = y.mean()

    if panel.K:
        xbar_i = panel.x.mean(axis=1)                  # (n, K)
        xbar_t = panel.x.mean(axis=0)                  # (T, K)
        xbar = panel.x.mean(axis=(0, 1))               # (K,)
        theta = _within_theta(panel.x - xbar_i[:, None, :] - xbar_t[None, :, :] + xbar, y)
        alpha = ybar_i - xbar_i @ theta
        delta = (ybar_t - ybar) - (xbar_t - xbar) @ theta
        resid = y - linear_index(panel.x, theta) - alpha[:, None] - delta[None, :]
    else:
        theta = np.zeros(0)
        alpha = ybar_i
        delta = ybar_t - ybar
        resid = y - alpha[:, None] - delta[None, :]
    delta = delta - delta.mean()   # enforce the sum-zero normalization exactly
    return TwfeFit(theta=theta, alpha=alpha, delta=delta, residuals=resid)


def fit_profile_mle(panel: PanelData, spec: ModelSpec) -> FitResult:
    """Profile-Newton quasi-MLE for an arbitrary likelihood family.

    For each candidate theta the scalar effect of every (group, block) cell
    solves its own first-order condition by safeguarded Newton, all cells at
    once: each round evaluates the family once on the whole panel, sums the
    scores and curvatures per cell and steps the cells not yet converged,
    each with its own step length.  When the family raises ``DomainError``
    on a trial point, the step of every cell still pending in that round is
    halved.  Theta is then updated by Newton on the profiled score with step
    halving.  The Jacobian of the profiled score comes from the implicit
    function theorem at the current effects, J = A - B' diag(1/H) B: A and B
    are central differences in theta of the theta score and of each cell's
    gamma score, both at fixed effects, and H is each cell's curvature, so
    it costs family calls and no profile solve.  The returned ``score_gamma``
    is the last gamma-score field the accepted profile solve evaluated, which
    is at the returned effects, so the final pass calls only ``psi`` and
    ``psi_gammagamma``.  The budgets are the module constants ``TOL``,
    ``MAX_ITER``, ``INNER_TOL`` and ``MAX_HALVINGS``.

    Raises
    ------
    GroupingViolation
        If the spec's group maps do not cover the panel.
    DomainError
        If ``init_theta`` returns a shape other than ``(d_theta,)``.
    SingularInformation
        If a cell's average curvature falls below ``1e-12`` in magnitude, or
        at the optimum is not below ``-1e-12``.
    NoConvergence
        If the first-order conditions stay above ``1e-10`` after 100 Newton
        steps on theta, or no step improves within 30 halvings.
    """
    family = spec.family
    cells = _Cells(panel, spec.gmap, spec.time_map(panel.T))
    eps = np.finfo(float).eps

    theta = (np.asarray(family.init_theta(panel), dtype=float) if family.init_theta is not None
             else np.zeros(family.d_theta))
    if theta.shape != (family.d_theta,):
        raise DomainError(f"init_theta returned shape {theta.shape}, expected ({family.d_theta},)")

    def profile(th: np.ndarray, gam_start: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Profiled cell effects at th and the psi_gamma field last evaluated,
        which is at those effects: in a round's last trial every cell either
        has a zero step or is accepted at its trial value."""
        gam = gam_start.copy()
        scores = family.psi_gamma(panel.y, panel.x, th, gam[cells.ids])
        s, s_abs = cells.sum(scores), cells.sum(np.abs(scores))
        active = np.ones(cells.count, dtype=bool)
        for _ in range(100):
            # a summed score cannot cancel below its own rounding floor
            floor = np.maximum(INNER_TOL, 8.0 * eps * s_abs)
            active &= ~(np.abs(s) <= floor)   # a NaN score stays active
            if not active.any():
                return gam, scores
            h = _curvature(panel, family, cells, th, gam[cells.ids],
                           "below tolerance while profiling", active)
            step = np.zeros(cells.count)
            step[active] = -s[active] / h[active]
            # updates below the float spacing of the effect stop that cell
            active &= ~(np.abs(step) <= 4.0 * eps * np.maximum(1.0, np.abs(gam)))
            if not active.any():
                return gam, scores
            lam = np.where(active, 1.0, 0.0)
            pending = active.copy()
            for _ in range(MAX_HALVINGS):
                trial = gam + lam * step
                try:
                    scores = family.psi_gamma(panel.y, panel.x, th, trial[cells.ids])
                except DomainError:
                    lam *= 0.5
                    continue
                s_new = cells.sum(scores)
                ok = pending & ((np.abs(s_new) < np.abs(s)) | (np.abs(s_new) <= floor))
                gam[ok] = trial[ok]
                s[ok] = s_new[ok]
                s_abs[ok] = cells.sum(np.abs(scores))[ok]
                pending &= ~ok
                if not pending.any():
                    break
                lam = np.where(pending, 0.5 * lam, 0.0)
            else:
                k = int(np.argmax(pending))
                raise NoConvergence(f"cell {cells.label(k)} effect stalled with score {s[k]:.3e}")
        k = int(np.argmax(active))
        raise NoConvergence(
            f"cell {cells.label(k)} effect did not reach tolerance, score {s[k]:.3e}")

    def theta_score(th: np.ndarray, gam: np.ndarray) -> tuple[np.ndarray, float]:
        """Profiled theta score and its stopping tolerance, from one family call."""
        if family.d_theta == 0:
            return np.zeros(0), TOL
        st = family.psi_theta(panel.y, panel.x, th, gam[cells.ids]).reshape(-1, family.d_theta)
        # a summed score cannot cancel below its own rounding floor
        return st.sum(axis=0), max(TOL, 8.0 * eps * float(np.abs(st).sum(axis=0).max()))

    def theta_jacobian(th: np.ndarray, gam: np.ndarray) -> np.ndarray:
        """J = A - B' diag(1/H) B of the profiled theta score, at profiled effects."""
        gfield = gam[cells.ids]
        hess = _curvature(panel, family, cells, th, gfield,
                          "below tolerance in the theta Jacobian")
        a = np.empty((family.d_theta, family.d_theta))
        b = np.empty((cells.count, family.d_theta))
        for k in range(family.d_theta):
            h = 1e-6 * max(1.0, abs(th[k]))
            dk = np.zeros_like(th)
            dk[k] = h
            tp, tm = th + dk, th - dk
            a[:, k] = (theta_score(tp, gam)[0] - theta_score(tm, gam)[0]) / (2.0 * h)
            b[:, k] = cells.sum(family.psi_gamma(panel.y, panel.x, tp, gfield)
                                - family.psi_gamma(panel.y, panel.x, tm, gfield)) / (2.0 * h)
        return a - b.T @ (b / hess[:, None])

    gamma, score_gamma = profile(theta, np.zeros(cells.count) if family.working_residual is None
                                 else cells.mean(family.working_residual(panel.y, panel.x, theta)))
    score, score_tol = theta_score(theta, gamma)
    iterations = 0
    theta_scale = float(np.max(np.abs(theta))) if theta.size else 0.0

    if family.d_theta:
        while np.max(np.abs(score)) > score_tol:
            if iterations == MAX_ITER:
                raise NoConvergence(f"outer iteration limit {MAX_ITER} reached")
            iterations += 1
            jac = theta_jacobian(theta, gamma)
            try:
                step = np.linalg.solve(jac, -score)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(jac, -score, rcond=None)

            lam = 1.0
            for _ in range(MAX_HALVINGS):
                try:
                    theta_new = theta + lam * step
                    gamma_new, field_new = profile(theta_new, gamma)
                    score_new, tol_new = theta_score(theta_new, gamma_new)
                except DomainError:
                    lam *= 0.5
                    continue
                if np.max(np.abs(score_new)) < np.max(np.abs(score)) \
                        or np.max(np.abs(score_new)) <= TOL:
                    theta, gamma, score_gamma = theta_new, gamma_new, field_new
                    score, score_tol = score_new, tol_new
                    break
                lam *= 0.5
            else:
                raise NoConvergence(
                    f"no improving step after {MAX_HALVINGS} halvings, "
                    f"score norm {np.max(np.abs(score)):.3e}")
            # monotone escape toward a score root at infinity means the
            # objective is flat or unbounded in some direction (e.g. the
            # scale of an exactly-fit panel)
            if np.max(np.abs(theta)) > 1e10 * max(1.0, theta_scale):
                raise SingularInformation(
                    f"parameters diverging (|theta| = {np.max(np.abs(theta)):.3e}); "
                    f"likelihood appears degenerate")

    fit = _fit_result(panel, spec, cells, theta, gamma, score_gamma, iterations)
    info = np.abs(fit.info_gamma.ravel())
    floor = np.maximum(np.maximum(TOL, 8.0 * eps * cells.sum(np.abs(score_gamma))),
                       4.0 * eps * np.maximum(1.0, np.abs(gamma)) * info * cells.size)
    off = np.abs(cells.sum(score_gamma)) > floor
    if off.any():
        raise NoConvergence(f"cell {cells.label(int(np.argmax(off)))} score above tolerance")
    return fit


def fit_model(panel: PanelData, spec: ModelSpec) -> FitResult:
    """Fit a model spec, in closed form for both shipped Gaussian families.

    For ``gaussian_fixed_scale(K)`` and ``gaussian_full_scale(K)`` of the
    panel's K (compared by ``==``, so a shipped family built for another K is
    not one of them), beta and the cell effects are least squares by
    within-cell demeaning, and the full-scale family's scale is its profile
    MLE RSS / (nT) (``SingularInformation`` if RSS = 0); ``iterations`` is 0.
    Other families go through :func:`fit_profile_mle`.  The fit keeps ``spec``.
    """
    fixed = spec.family == gaussian_fixed_scale(panel.K)
    if not fixed and spec.family != gaussian_full_scale(panel.K):
        return fit_profile_mle(panel, spec)
    cells = _Cells(panel, spec.gmap, spec.time_map(panel.T))
    if panel.K:
        xm = np.stack([cells.mean(panel.x[:, :, k]) for k in range(panel.K)], axis=1)
        theta = _within_theta(panel.x - xm[cells.ids], panel.y)
        work = panel.y - linear_index(panel.x, theta)
    else:
        theta = np.zeros(0)
        work = panel.y
    gamma = cells.mean(work)
    resid = work - gamma[cells.ids]
    if fixed:
        return _fit_result(panel, spec, cells, theta, gamma, resid, 0)
    s2 = float(np.sum(resid ** 2)) / resid.size
    if s2 == 0.0:
        raise SingularInformation("the cells fit the panel exactly (RSS = 0), so the "
                                  "scale estimate s^2 = RSS / (nT) is 0")
    return _fit_result(panel, spec, cells, np.append(theta, s2), gamma, resid / s2, 0)
