"""Standard-normal CDF/quantile and small sample diagnostics.

The quantile is Wichura's AS241 (Applied Statistics 37, 1988; the algorithm
behind Python's ``statistics.NormalDist.inv_cdf``): one degree-7/7 rational
function per regime, no CDF call and no refinement step, relative error below
1e-15 down to q = 1e-300 and up to 1 - 2**-53.  It is the only function here
that normal draws go through, once per Monte Carlo replication on the
concatenated uniforms of every stream the replication reads
(``rng.normals``).  Its inputs are raveled and the rationals are evaluated in
place, so every result keeps a fixed per-element order of operations and does
not depend on which other values share the call (``tests/test_rng.py`` pins
digests of draws, quantiles and campaigns).

The CDF is the standard library's ``math.erfc`` applied elementwise; it
serves KS distances and the local-power curve, and ``report.decide`` takes
its p-values from ``math.erfc`` directly, as upper tails.  No draw, campaign
byte or decision depends on it: decisions compare against
:func:`critical_values`.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import NonFinite, OutOfRange

_SQRT2 = math.sqrt(2.0)


def erfc(x):
    """Complementary error function, elementwise by ``math.erfc``: relative
    error below 1e-13 against scipy, NaN propagates, erfc(+inf) = 0 and
    erfc(-inf) = 2."""
    x = np.asarray(x, dtype=float)
    out = np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size)
    return float(out[0]) if x.ndim == 0 else out.reshape(x.shape)


def normal_cdf(z):
    """Standard normal CDF as 0.5 * erfc(-z / sqrt(2)), accurate to relative
    1e-13 on both tails (the rounding of z / sqrt(2) sets that limit); NaN
    propagates, +inf maps to 1 and -inf to 0."""
    return 0.5 * erfc(-np.asarray(z, dtype=float) / _SQRT2)


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


def _horner(x: np.ndarray, coefs) -> np.ndarray:
    """coefs[0]*x^k + coefs[1]*x^(k-1) + ... + coefs[-1], evaluated in place."""
    acc = coefs[0] * x
    for c in coefs[1:-1]:
        acc += c
        acc *= x
    acc += coefs[-1]
    return acc


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
    replication.  They come from the lower tail: ``1 - level`` would cancel
    digits, and rounds to 1.0 once level is 1e-16 or below."""
    return -normal_quantile(level / 2.0), -normal_quantile(level)


def ks_distance(sample) -> float:
    """Kolmogorov-Smirnov distance between a sample and the standard normal.

    Raises :class:`OutOfRange` on an empty sample and :class:`NonFinite` on a
    NaN; +-inf points are allowed."""
    s = np.sort(np.asarray(sample, dtype=float))
    m = s.size
    if m == 0:
        raise OutOfRange("ks_distance requires a nonempty sample")
    if np.isnan(s[-1]):     # NaN sorts last
        raise NonFinite("ks_distance sample contains NaN")
    cdf = normal_cdf(s)
    grid = np.arange(1, m + 1) / m
    return float(max(np.max(grid - cdf), np.max(cdf - (grid - 1.0 / m))))


def binomial_se(rate: float, count: int) -> float:
    """Standard error sqrt(p(1-p)/R) of an empirical rate."""
    if count <= 0:
        raise OutOfRange("binomial_se requires count >= 1")
    return float(np.sqrt(rate * (1.0 - rate) / count))
