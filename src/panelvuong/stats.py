"""Standard-normal CDF/quantile and small sample diagnostics.

Self-contained vectorized implementations so that simulation streams do not
depend on any external special-function library: the complementary error
function uses the classical rational Chebyshev approximations (three regimes,
relative error below 1e-15 in double precision), and the quantile combines a
rational initial guess with two Halley refinement steps against the CDF.

Inputs are raveled, each pass finds the indices of every regime once, and the
rational functions are evaluated in place in the same per-element order of
operations as the earlier mask-based form, so every result is bit-identical
to it (``tests/test_rng.py`` pins digests of draws, quantiles and
campaigns).  The regime beyond 4 is entered only when an argument reaches
it.  NaN falls in no regime and propagates; +inf and -inf take the limits
(erfc 0 and 2, CDF 1 and 0).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import OutOfRange

_SQRT2 = float(np.sqrt(2.0))
_SQRT2PI = float(np.sqrt(2.0 * np.pi))
_INV_SQRT_PI = 1.0 / float(np.sqrt(np.pi))

# Rational approximations to erf and erfc, as Horner coefficients (highest
# power first) of numerator and denominator.
# erf on |x| <= 0.46875, in z = x^2.
_ERF_NUM = (1.85777706184603153e-1, 3.16112374387056560e00,
            1.13864154151050156e02, 3.77485237685302021e02,
            3.20937758913846947e03)
_ERF_DEN = (1.0, 2.36012909523441209e01, 2.44024637934444173e02,
            1.28261652607737228e03, 2.84423683343917062e03)

# erfc on 0.46875 < x <= 4, in x.
_ERFC_MID_NUM = (2.15311535474403846e-8, 5.64188496988670089e-1,
                 8.88314979438837594e00, 6.61191906371416295e01,
                 2.98635138197400131e02, 8.81952221241769090e02,
                 1.71204761263407058e03, 2.05107837782607147e03,
                 1.23033935479799725e03)
_ERFC_MID_DEN = (1.0, 1.57449261107098347e01, 1.17693950891312499e02,
                 5.37181101862009858e02, 1.62138957456669019e03,
                 3.29079923573345963e03, 4.36261909014324716e03,
                 3.43936767414372164e03, 1.23033935480374942e03)

# erfc on x > 4, in z = 1/x^2.
_ERFC_TAIL_NUM = (1.63153871373020978e-2, 3.05326634961232344e-1,
                  3.60344899949804439e-1, 1.25781726111229246e-1,
                  1.60837851487422766e-2, 6.58749161529837803e-4)
_ERFC_TAIL_DEN = (1.0, 2.56852019228982242e00, 1.87295284992346047e00,
                  5.27905102951428412e-1, 6.05183413124413191e-2,
                  2.33520497626869185e-3)


def _horner(x: np.ndarray, coefs) -> np.ndarray:
    """coefs[0]*x^k + coefs[1]*x^(k-1) + ... + coefs[-1], evaluated in place."""
    acc = coefs[0] * x
    for c in coefs[1:-1]:
        acc += c
        acc *= x
    acc += coefs[-1]
    return acc


def _exp_neg_square(y: np.ndarray) -> np.ndarray:
    """exp(-y^2) with y^2 split so that the argument stays exact for large y."""
    ysq = np.trunc(y * 16.0)
    ysq /= 16.0
    dell = y - ysq
    dell *= y + ysq
    np.negative(dell, out=dell)
    np.exp(dell, out=dell)
    ysq *= ysq
    np.negative(ysq, out=ysq)
    np.exp(ysq, out=ysq)
    ysq *= dell
    return ysq


def _erfc_positive(y: np.ndarray) -> np.ndarray:
    """erfc(y) for a 1-d array of y >= 0; NaN falls in no regime and stays NaN."""
    out = np.full_like(y, np.nan)

    small = np.flatnonzero(y <= 0.46875)
    if small.size:
        ys = y[small]
        z = ys * ys
        num = _horner(z, _ERF_NUM)
        num *= ys
        num /= _horner(z, _ERF_DEN)
        out[small] = np.subtract(1.0, num, out=num)

    rest = np.flatnonzero(y > 0.46875)
    if rest.size:
        yr = y[rest]
        if yr.max() > 4.0:
            # erfc(+inf) is 0; the exp(-y^2) split below would form inf - inf
            out[rest[yr == np.inf]] = 0.0
            tail = (yr > 4.0) & (yr < np.inf)
            yl = yr[tail]
            z = yl * yl
            np.divide(1.0, z, out=z)
            num = _horner(z, _ERFC_TAIL_NUM)
            num *= z
            num /= _horner(z, _ERFC_TAIL_DEN)
            np.subtract(_INV_SQRT_PI, num, out=num)
            num /= yl
            with np.errstate(under="ignore"):
                num *= _exp_neg_square(yl)
            out[rest[tail]] = num
            keep = yr <= 4.0
            rest, yr = rest[keep], yr[keep]
        num = _horner(yr, _ERFC_MID_NUM)
        num /= _horner(yr, _ERFC_MID_DEN)
        res = _exp_neg_square(yr)
        res *= num
        out[rest] = res

    return out


def _erfc_flat(x: np.ndarray) -> np.ndarray:
    """erfc on a 1-d array, reflecting negative arguments."""
    out = _erfc_positive(np.abs(x))
    return np.where(x < 0.0, 2.0 - out, out)


def _normal_cdf_flat(z: np.ndarray) -> np.ndarray:
    w = np.negative(z)
    w /= _SQRT2
    out = _erfc_flat(w)
    out *= 0.5
    return out


def erfc(x):
    """Vectorized complementary error function; NaN propagates, erfc(+inf) = 0
    and erfc(-inf) = 2."""
    x = np.asarray(x, dtype=float)
    out = _erfc_flat(x.ravel())
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def normal_cdf(z):
    """Standard normal CDF, accurate to relative 1e-13 on both tails; NaN
    propagates, +inf maps to 1 and -inf to 0."""
    z = np.asarray(z, dtype=float)
    out = _normal_cdf_flat(z.ravel())
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)


# Rational approximation for the initial quantile guess (abs error ~1.2e-9).
_QA = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
       1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_QB = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
       6.680131188771972e+01, -1.328068155288572e+01, 1.0)
_QC = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
       -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_QD = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
       3.754408661907416e+00, 1.0)
_Q_LOW = 0.02425


def _quantile_guess(p: np.ndarray) -> np.ndarray:
    """Rational initial guess on a 1-d array of p in (0, 1)."""
    x = np.empty_like(p)

    low = p < _Q_LOW
    high = p > 1.0 - _Q_LOW
    mid = np.flatnonzero(~(low | high))
    if mid.size:
        q = p[mid]
        q -= 0.5
        r = q * q
        num = _horner(r, _QA)
        num *= q
        num /= _horner(r, _QB)
        x[mid] = num
    for mask, sign in ((low, 1.0), (high, -1.0)):
        idx = np.flatnonzero(mask)
        if idx.size:
            pp = p[idx] if sign > 0 else 1.0 - p[idx]
            q = np.sqrt(-2.0 * np.log(pp))
            num = _horner(q, _QC)
            if sign < 0:
                np.negative(num, out=num)
            num /= _horner(q, _QD)
            x[idx] = num
    return x


def normal_quantile(q):
    """Standard normal quantile for q in (0, 1).

    A rational initial guess is polished with two Halley steps against
    :func:`normal_cdf`, giving |normal_cdf(normal_quantile(q)) - q| at
    machine level for all non-extreme q.
    """
    q_arr = np.asarray(q, dtype=float)
    flat = q_arr.ravel()
    if not np.all((flat > 0.0) & (flat < 1.0)):
        raise OutOfRange("normal_quantile requires q in (0, 1)")

    x = _quantile_guess(flat)
    for _ in range(2):
        # u = err / pdf(x); the exp overflows only beyond |x| ~ 38 where the
        # initial guess is already as accurate as double precision allows
        u = _normal_cdf_flat(x)
        u -= flat
        u *= _SQRT2PI
        e = 0.5 * x
        e *= x
        with np.errstate(over="ignore"):
            np.exp(e, out=e)
            u *= e
        u[~np.isfinite(u)] = 0.0
        den = 0.5 * x
        den *= u
        den += 1.0
        u /= den
        x -= u
    return float(x[0]) if q_arr.ndim == 0 else x.reshape(q_arr.shape)


@functools.lru_cache(maxsize=64)
def critical_values(level: float) -> tuple[float, float]:
    """Two- and one-sided standard-normal critical values (z_two, z_one) at
    ``level``, computed once per level and reused by every test and
    replication."""
    return normal_quantile(1.0 - level / 2.0), normal_quantile(1.0 - level)


def ks_distance(sample) -> float:
    """Kolmogorov-Smirnov distance between a sample and the standard normal."""
    s = np.sort(np.asarray(sample, dtype=float))
    m = s.size
    if m == 0:
        raise OutOfRange("ks_distance requires a nonempty sample")
    cdf = normal_cdf(s)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / m))))


def binomial_se(rate: float, count: int) -> float:
    """Standard error sqrt(p(1-p)/R) of an empirical rate."""
    if count <= 0:
        raise OutOfRange("binomial_se requires count >= 1")
    return float(np.sqrt(rate * (1.0 - rate) / count))
