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

from .errors import DomainError, NoConvergence, RankDeficient, SingularInformation
from .families import LikelihoodFamily, gaussian_fixed_scale
from .panel import GroupMap, PanelData, TimeGroupMap, single_block, validate_panel

COND_LIMIT = 1e12
EIG_FLOOR = 1e-12
INFO_FLOOR = 1e-12


@dataclass(frozen=True)
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
    iterations: int
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


def _solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve an SPD normalized Gram system with rank diagnostics."""
    eig = np.linalg.eigvalsh(gram)
    lo, hi = float(eig[0]), float(eig[-1])
    if lo < EIG_FLOOR or hi / max(lo, 1e-300) > COND_LIMIT:
        raise RankDeficient(
            f"demeaned Gram matrix is rank deficient (eigenvalues in [{lo:.3e}, {hi:.3e}])")
    c = np.linalg.cholesky(gram)
    return np.linalg.solve(c.T, np.linalg.solve(c, rhs))


class _Cells:
    """Flat (group, block) cell ids ``g * M + m`` over the (n, T) grid, with
    per-cell segment sums."""

    def __init__(self, gmap: GroupMap, mmap: TimeGroupMap):
        self.M = mmap.M
        self.count = gmap.G * mmap.M
        self.ids = gmap.codes[:, None] * mmap.M + mmap.codes[None, :]
        self._flat = self.ids.ravel()
        self.size = np.bincount(self._flat, minlength=self.count).astype(float)

    def sum(self, a: np.ndarray) -> np.ndarray:
        """Per-cell sums of an (n, T) array."""
        return np.bincount(self._flat, weights=a.ravel(), minlength=self.count)

    def label(self, k: int) -> str:
        """One-based (g, m) of flat cell ``k``."""
        return f"({k // self.M + 1}, {k % self.M + 1})"


def _group_indicator(gmap: GroupMap) -> np.ndarray:
    return (gmap.codes[None, :] == np.arange(gmap.G)[:, None]).astype(float)


def fit_linear_cells(panel: PanelData, gmap: GroupMap,
                     mmap: TimeGroupMap | None = None) -> FitResult:
    """Exact least squares with one effect per (group, block) cell.

    Minimizes sum (y - x'theta - gamma_{g(i),m(t)})^2 by within-cell
    demeaning; the first-order conditions hold by linear algebra rather than
    iteration.  The returned log-likelihood is the unit-scale Gaussian one.
    """
    panel = validate_panel(panel)
    n, T, K = panel.n, panel.T, panel.K
    mmap = mmap if mmap is not None else single_block(T)
    if gmap.n != n or mmap.T != T:
        raise RankDeficient(f"group maps cover ({gmap.n}, {mmap.T}), panel is ({n}, {T})")

    cells = _Cells(gmap, mmap)

    def cell_mean(a: np.ndarray) -> np.ndarray:
        return cells.sum(a) / cells.size

    if K:
        xm = np.stack([cell_mean(panel.x[:, :, k]) for k in range(K)], axis=1)  # (ncell, K)
        xdot = panel.x - xm[cells.ids]
        gram = np.einsum("itk,itl->kl", xdot, xdot) / (n * T)
        rhs = np.einsum("itk,it->k", xdot, panel.y) / (n * T)
        theta = _solve_gram(gram, rhs)
        work = panel.y - panel.x @ theta
    else:
        theta = np.zeros(0)
        work = panel.y

    gamma_flat = cell_mean(work)
    resid = work - gamma_flat[cells.ids]
    loglik_obs = -0.5 * resid ** 2
    return FitResult(
        theta=theta,
        gamma=gamma_flat.reshape(gmap.G, mmap.M),
        loglik=float(loglik_obs.sum()),
        loglik_obs=loglik_obs,
        score_gamma=resid,
        info_gamma=np.full((gmap.G, mmap.M), -1.0),
        iterations=0,
        spec=ModelSpec(gaussian_fixed_scale(K), gmap, mmap),
    )


def fit_grouped_time(panel: PanelData, gmap: GroupMap) -> GroupedTimeFit:
    """Group-by-time effects: theta from within-(g, t) demeaning, effects as
    cell means of the working residual."""
    panel = validate_panel(panel)
    n, T, K = panel.n, panel.T, panel.K
    Z = _group_indicator(gmap)
    sizes = gmap.sizes.astype(float)

    ybar_gt = (Z @ panel.y) / sizes[:, None]                       # (G, T)
    if K:
        xbar_gt = np.einsum("gi,itk->gtk", Z, panel.x) / sizes[:, None, None]
        xdot = panel.x - xbar_gt[gmap.codes]
        gram = np.einsum("itk,itl->kl", xdot, xdot) / (n * T)
        rhs = np.einsum("itk,it->k", xdot, panel.y) / (n * T)
        theta = _solve_gram(gram, rhs)
        gamma_gt = ybar_gt - xbar_gt @ theta
        resid = panel.y - panel.x @ theta - gamma_gt[gmap.codes]
    else:
        theta = np.zeros(0)
        gamma_gt = ybar_gt
        resid = panel.y - gamma_gt[gmap.codes]
    return GroupedTimeFit(theta=theta, gamma_gt=gamma_gt, residuals=resid, gmap=gmap)


def fit_twfe(panel: PanelData) -> TwfeFit:
    """Additive unit + time effects with the time effects summing to zero."""
    panel = validate_panel(panel)
    n, T, K = panel.n, panel.T, panel.K
    y = panel.y
    ybar_i = y.mean(axis=1)
    ybar_t = y.mean(axis=0)
    ybar = y.mean()

    if K:
        xbar_i = panel.x.mean(axis=1)                  # (n, K)
        xbar_t = panel.x.mean(axis=0)                  # (T, K)
        xbar = panel.x.mean(axis=(0, 1))               # (K,)
        xddot = panel.x - xbar_i[:, None, :] - xbar_t[None, :, :] + xbar
        gram = np.einsum("itk,itl->kl", xddot, xddot) / (n * T)
        rhs = np.einsum("itk,it->k", xddot, y) / (n * T)
        theta = _solve_gram(gram, rhs)
        alpha = ybar_i - xbar_i @ theta
        delta = (ybar_t - ybar) - (xbar_t - xbar) @ theta
        resid = y - panel.x @ theta - alpha[:, None] - delta[None, :]
    else:
        theta = np.zeros(0)
        alpha = ybar_i
        delta = ybar_t - ybar
        resid = y - alpha[:, None] - delta[None, :]
    delta = delta - delta.mean()   # enforce the sum-zero normalization exactly
    return TwfeFit(theta=theta, alpha=alpha, delta=delta, residuals=resid)


def fit_profile_mle(panel: PanelData, spec: ModelSpec, tol: float = 1e-10,
                    max_iter: int = 100, inner_tol: float = 1e-12,
                    max_halvings: int = 30) -> FitResult:
    """Profile-Newton quasi-MLE for an arbitrary likelihood family.

    For each candidate theta the scalar effect of every (group, block) cell
    solves its own first-order condition by safeguarded Newton, all cells at
    once: each round evaluates the family once on the whole panel, sums the
    scores and curvatures per cell and steps the cells not yet converged,
    each with its own step length.  When the family raises ``DomainError``
    on a trial point, the step of every cell still pending in that round is
    halved.  Theta is then updated by Newton on the profiled score with step
    halving, the Jacobian taken by central differences of the profiled score.

    Parameters
    ----------
    tol : float
        Infinity-norm bound on the theta score and on every cell score.
    max_iter : int
        Outer Newton iteration limit.
    inner_tol : float
        Absolute bound for each cell's scalar first-order condition.
    max_halvings : int
        Step-halving budget per Newton update (also guards the family's
        parameter domain, e.g. a positive-scale boundary).

    Raises
    ------
    SingularInformation
        If a cell's average curvature falls below ``1e-12`` in magnitude.
    NoConvergence
        If the iteration budget ends with first-order conditions above
        ``tol``.
    """
    panel = validate_panel(panel)
    n, T = panel.n, panel.T
    family = spec.family
    gmap = spec.gmap
    mmap = spec.time_map(T)
    if gmap.n != n or mmap.T != T:
        raise RankDeficient(f"group maps cover ({gmap.n}, {mmap.T}), panel is ({n}, {T})")
    cells = _Cells(gmap, mmap)
    eps = np.finfo(float).eps

    if family.init_theta is not None:
        theta = np.asarray(family.init_theta(panel), dtype=float)
    else:
        theta = np.zeros(family.d_theta)
    if theta.shape != (family.d_theta,):
        raise DomainError(f"init_theta returned shape {theta.shape}, expected ({family.d_theta},)")

    def init_gamma(th: np.ndarray) -> np.ndarray:
        if family.working_residual is None:
            return np.zeros(cells.count)
        return cells.sum(family.working_residual(panel.y, panel.x, th)) / cells.size

    def profile(th: np.ndarray, gam_start: np.ndarray) -> np.ndarray:
        gam = gam_start.copy()
        scores = family.psi_gamma(panel.y, panel.x, th, gam[cells.ids])
        s, s_abs = cells.sum(scores), cells.sum(np.abs(scores))
        active = np.ones(cells.count, dtype=bool)
        for _ in range(100):
            # a summed score cannot cancel below its own rounding floor
            floor = np.maximum(inner_tol, 8.0 * eps * s_abs)
            active &= ~(np.abs(s) <= floor)   # a NaN score stays active
            if not active.any():
                return gam
            h = cells.sum(family.psi_gammagamma(panel.y, panel.x, th, gam[cells.ids]))
            flat = active & (np.abs(h) / cells.size < INFO_FLOOR)
            if flat.any():
                k = int(np.argmax(flat))
                raise SingularInformation(
                    f"cell {cells.label(k)} curvature {h[k] / cells.size[k]:.3e} "
                    f"below tolerance while profiling")
            step = np.zeros(cells.count)
            step[active] = -s[active] / h[active]
            # updates below the float spacing of the effect stop that cell
            active &= ~(np.abs(step) <= 4.0 * eps * np.maximum(1.0, np.abs(gam)))
            if not active.any():
                return gam
            lam = np.where(active, 1.0, 0.0)
            pending = active.copy()
            for _ in range(max_halvings):
                trial = gam + lam * step
                try:
                    scores_new = family.psi_gamma(panel.y, panel.x, th, trial[cells.ids])
                except DomainError:
                    lam *= 0.5
                    continue
                s_new = cells.sum(scores_new)
                ok = pending & ((np.abs(s_new) < np.abs(s)) | (np.abs(s_new) <= floor))
                gam[ok] = trial[ok]
                s[ok] = s_new[ok]
                s_abs[ok] = cells.sum(np.abs(scores_new))[ok]
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
            return np.zeros(0), tol
        st = family.psi_theta(panel.y, panel.x, th, gam[cells.ids]).reshape(-1, family.d_theta)
        # a summed score cannot cancel below its own rounding floor
        return st.sum(axis=0), max(tol, 8.0 * eps * float(np.abs(st).sum(axis=0).max()))

    gamma = profile(theta, init_gamma(theta))
    score, score_tol = theta_score(theta, gamma)
    iterations = 0
    theta_scale = float(np.max(np.abs(theta))) if theta.size else 0.0

    if family.d_theta:
        for iterations in range(1, max_iter + 1):
            if np.max(np.abs(score)) <= score_tol:
                break
            jac = np.empty((family.d_theta, family.d_theta))
            for k in range(family.d_theta):
                h = 1e-6 * max(1.0, abs(theta[k]))
                dk = np.zeros_like(theta)
                dk[k] = h
                sp = theta_score(theta + dk, profile(theta + dk, gamma))[0]
                sm = theta_score(theta - dk, profile(theta - dk, gamma))[0]
                jac[:, k] = (sp - sm) / (2.0 * h)
            try:
                step = np.linalg.solve(jac, -score)
            except np.linalg.LinAlgError:
                step, *_ = np.linalg.lstsq(jac, -score, rcond=None)

            lam = 1.0
            for _ in range(max_halvings):
                try:
                    theta_new = theta + lam * step
                    gamma_new = profile(theta_new, gamma)
                    score_new, tol_new = theta_score(theta_new, gamma_new)
                except DomainError:
                    lam *= 0.5
                    continue
                if np.max(np.abs(score_new)) < np.max(np.abs(score)) \
                        or np.max(np.abs(score_new)) <= tol:
                    theta, gamma, score, score_tol = theta_new, gamma_new, score_new, tol_new
                    break
                lam *= 0.5
            else:
                raise NoConvergence(
                    f"no improving step after {max_halvings} halvings, "
                    f"score norm {np.max(np.abs(score)):.3e}")
            # monotone escape toward a score root at infinity means the
            # objective is flat or unbounded in some direction (e.g. the
            # scale of an exactly-fit panel)
            if np.max(np.abs(theta)) > 1e10 * max(1.0, theta_scale):
                raise SingularInformation(
                    f"parameters diverging (|theta| = {np.max(np.abs(theta)):.3e}); "
                    f"likelihood appears degenerate")
        else:
            raise NoConvergence(f"outer iteration limit {max_iter} reached")
        if np.max(np.abs(score)) > score_tol:
            raise NoConvergence(f"theta score norm {np.max(np.abs(score)):.3e} above {tol}")

    gfield = gamma[cells.ids]
    loglik_obs = family.psi(panel.y, panel.x, theta, gfield)
    score_gamma = family.psi_gamma(panel.y, panel.x, theta, gfield)
    info = cells.sum(family.psi_gammagamma(panel.y, panel.x, theta, gfield)) / cells.size
    flat = info >= -INFO_FLOOR
    if flat.any():
        k = int(np.argmax(flat))
        raise SingularInformation(f"cell {cells.label(k)} curvature {info[k]:.3e} not negative")
    floor = np.maximum(np.maximum(tol, 8.0 * eps * cells.sum(np.abs(score_gamma))),
                       4.0 * eps * np.maximum(1.0, np.abs(gamma)) * np.abs(info) * cells.size)
    off = np.abs(cells.sum(score_gamma)) > floor
    if off.any():
        raise NoConvergence(f"cell {cells.label(int(np.argmax(off)))} score above tolerance")

    return FitResult(
        theta=theta,
        gamma=gamma.reshape(gmap.G, mmap.M),
        loglik=float(loglik_obs.sum()),
        loglik_obs=loglik_obs,
        score_gamma=score_gamma,
        info_gamma=info.reshape(gmap.G, mmap.M),
        iterations=iterations,
        spec=ModelSpec(family, gmap, mmap),
    )


def fit_model(panel: PanelData, spec: ModelSpec, **opts) -> FitResult:
    """Fit a model spec, using the closed form where it is exact.

    The unit-scale Gaussian family maximizes the same objective as
    :func:`fit_linear_cells`, so it dispatches there; other families go
    through :func:`fit_profile_mle`.
    """
    if spec.family.name == "gaussian-fixed-scale" and not opts:
        return fit_linear_cells(panel, spec.gmap, spec.time_map(panel.T))
    return fit_profile_mle(panel, spec, **opts)


def foc_residuals(panel: PanelData, fit: FitResult) -> tuple[float, float]:
    """(theta score inf-norm, max absolute cell score) at the fitted optimum."""
    spec = fit.spec
    cells = _Cells(spec.gmap, spec.time_map(panel.T))
    gfield = fit.gamma.ravel()[cells.ids]
    max_theta = 0.0
    if spec.family.d_theta:
        st = spec.family.psi_theta(panel.y, panel.x, fit.theta, gfield)
        max_theta = float(np.max(np.abs(st.reshape(-1, spec.family.d_theta).sum(axis=0))))
    sg = spec.family.psi_gamma(panel.y, panel.x, fit.theta, gfield)
    return max_theta, float(np.max(np.abs(cells.sum(sg))))
