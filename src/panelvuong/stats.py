"""Standard-normal CDF/quantile and small sample diagnostics.

Self-contained vectorized implementations so that simulation streams do not
depend on any external special-function library.  The complementary error
function uses the classical rational Chebyshev approximations (three regimes,
relative error below 1e-15 in double precision).  The quantile is Wichura's
AS241 (Applied Statistics 37, 1988; the algorithm behind Python's
``statistics.NormalDist.inv_cdf``): one degree-7/7 rational function per
regime, no CDF call and no refinement step, relative error below 1e-15 down
to q = 1e-300 and up to 1 - 2**-53.

Inputs are raveled and the rational functions are evaluated in place, so
every result keeps a fixed per-element order of operations
(``tests/test_rng.py`` pins digests of draws, quantiles and campaigns).  erfc
finds the indices of each regime once and enters the regime beyond 4 only
when an argument reaches it; NaN falls in no regime and propagates, and +inf
and -inf take the limits (erfc 0 and 2, CDF 1 and 0).
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import OutOfRange

_SQRT2 = float(np.sqrt(2.0))
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


# Wichura's AS241 (Applied Statistics 37, 1988), the algorithm behind
# Python's statistics.NormalDist.inv_cdf, as Horner coefficients (highest
# power first) of degree-7 numerators and denominators.
# |p - 0.5| <= 0.425, in r = 0.180625 - (p - 0.5)^2.
_AS241_CENTRAL_NUM = (2.5090809287301226727e+3, 3.3430575583588128105e+4,
                      6.7265770927008700853e+4, 4.5921953931549871457e+4,
                      1.3731693765509461125e+4, 1.9715909503065514427e+3,
                      1.3314166789178437745e+2, 3.3871328727963666080e+0)
_AS241_CENTRAL_DEN = (5.2264952788528545610e+3, 2.8729085735721942674e+4,
                      3.9307895800092710610e+4, 2.1213794301586595867e+4,
                      5.3941960214247511077e+3, 6.8718700749205790830e+2,
                      4.2313330701600911252e+1, 1.0)
# r = sqrt(-log(min(p, 1 - p))) <= 5, in r - 1.6.
_AS241_NEAR_NUM = (7.7454501427834140764e-4, 2.2723844989269184583e-2,
                   2.4178072517745061177e-1, 1.2704582524523683826e+0,
                   3.6478483247632046050e+0, 5.7694972214606914055e+0,
                   4.6303378461565452959e+0, 1.4234371107496835773e+0)
_AS241_NEAR_DEN = (1.0507500716444168432e-9, 5.4759380849953449460e-4,
                   1.5198666563616457197e-2, 1.4810397642748007459e-1,
                   6.8976733498510000455e-1, 1.6763848301838038494e+0,
                   2.0531916266377588219e+0, 1.0)
# r > 5, in r - 5.
_AS241_FAR_NUM = (2.0103343992922881327e-7, 2.7115555687434875782e-5,
                  1.2426609473880784386e-3, 2.6532189526576123093e-2,
                  2.9656057182850489123e-1, 1.7848265399172913358e+0,
                  5.4637849111641143699e+0, 6.6579046435011037772e+0)
_AS241_FAR_DEN = (2.0442631033899397856e-15, 1.4215117583164458887e-7,
                  1.8463183175100546818e-5, 7.8686913114561325910e-4,
                  1.4875361290850614853e-2, 1.3692988092273580531e-1,
                  5.9983220655588793769e-1, 1.0)


def _rational(s: np.ndarray, num, den) -> np.ndarray:
    out = _horner(s, num)
    out /= _horner(s, den)
    return out


def normal_quantile(q):
    """Standard normal quantile for q in (0, 1), by Wichura's AS241.

    One degree-7/7 rational function per regime (|q - 0.5| <= 0.425, then
    the two tails split at sqrt(-log(min(q, 1 - q))) = 5), the same
    arithmetic as Python's ``statistics.NormalDist().inv_cdf`` (results differ
    by an ulp or two only where ``np.log`` and ``math.log`` round apart).  The
    relative error is below 1e-15 from q = 1e-300 to 1 - 2**-53, and the
    result is exactly odd about 0.5 wherever 1 - q is exact.  Raises
    :class:`OutOfRange` unless every q lies in (0, 1); NaN fails that check.
    """
    q_arr = np.asarray(q, dtype=float)
    p = q_arr.ravel()
    if not np.all((p > 0.0) & (p < 1.0)):
        raise OutOfRange("normal_quantile requires q in (0, 1)")

    # Each rational also runs over the entries of the regime beyond it, whose
    # values are then overwritten: there the central denominator stays above
    # 0.002 (r in [-0.069375, 0)) and the near-tail one above 1, so the
    # discarded values are finite and raise no warning.
    d = p - 0.5
    r = d * d
    np.subtract(0.180625, r, out=r)
    x = _horner(r, _AS241_CENTRAL_NUM)
    x *= d
    x /= _horner(r, _AS241_CENTRAL_DEN)

    tails = np.flatnonzero(np.abs(d) > 0.425)
    if tails.size:
        pt = p[tails]
        r = np.minimum(pt, 1.0 - pt)
        np.log(r, out=r)
        np.negative(r, out=r)
        np.sqrt(r, out=r)
        res = _rational(r - 1.6, _AS241_NEAR_NUM, _AS241_NEAR_DEN)
        far = np.flatnonzero(r > 5.0)
        if far.size:
            res[far] = _rational(r[far] - 5.0, _AS241_FAR_NUM, _AS241_FAR_DEN)
        # both tail rationals are positive; the sign follows p - 0.5
        x[tails] = np.copysign(res, d[tails], out=res)
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
