"""One-sample Kolmogorov-Smirnov test against Uniform(0, 1).

``kstest_uniform(x)`` returns the same statistic and p-value as
``scipy.stats.kstest(x, "uniform")`` without importing ``scipy.stats``, whose
import takes about half a second.  The p-value P(D_n >= d) follows Simard &
L'Ecuyer, "Computing the Two-Sided Kolmogorov-Smirnov Distribution", J. Stat.
Softw. 39(11), 2011, with the branch choice and arithmetic of scipy's
``scipy.stats._ksstats._kolmogn`` (survival side), so the two agree bit for
bit.  One departure: for n <= 140 and 0.754693 < n d^2 <= 4, where scipy runs
the Pomeranz recursion, this takes the Durbin matrix (DMTW) instead; there
the two agree to about 2e-11 relative.
"""

from __future__ import annotations

import numpy as np
from scipy.special import smirnov

_E128 = 128
_EP128 = np.ldexp(np.longdouble(1), _E128)
_EM128 = np.ldexp(np.longdouble(1), -_E128)
_SQRT2PI = np.sqrt(2 * np.pi)
_LOG_2PI = np.log(2 * np.pi)
_MIN_LOG = -708
_SQRT3 = np.sqrt(3)
_PI_SQUARED = np.pi ** 2
_PI_FOUR = np.pi ** 4
_PI_SIX = np.pi ** 6
# B_2j / (2j) / (2j - 1) for j = 8, ..., 1: the Stirling series of log n!
_STIRLING_COEFFS = [-2.955065359477124183e-2, 6.4102564102564102564e-3,
                    -1.9175269175269175269e-3, 8.4175084175084175084e-4,
                    -5.952380952380952381e-4, 7.9365079365079365079e-4,
                    -2.7777777777777777778e-3, 8.3333333333333333333e-2]


def kstest_uniform(sample) -> tuple:
    """(D_n, P(D_n >= D)) of a 1-D sample against Uniform(0, 1); a sample
    holding NaN gives (nan, nan)."""
    x = np.sort(np.asarray(sample, dtype=float).ravel())
    n = len(x)
    if n == 0:
        raise ValueError("kstest_uniform needs at least one point")
    if np.isnan(x[-1]):
        return np.nan, np.nan
    cdf = np.clip(x, 0.0, 1.0)
    d = max(np.max(np.arange(1.0, n + 1) / n - cdf), np.max(cdf - np.arange(0.0, n) / n))
    return float(d), float(kolmogorov_sf(n, d))


def kolmogorov_sf(n: int, d) -> float:
    """P(D_n >= d) for the two-sided statistic of n uniform points."""
    t = n * d
    if d >= 1.0:
        return 0.0
    if d <= 0.5 / n or t <= 0.5:
        return 1.0
    if t <= 1.0:  # Ruben-Gambino: P(D_n < d) = n!/n^n (2t - 1)^n
        if n <= 140:
            prob = np.prod(np.arange(1, n + 1) * (1.0 / n) * (2 * t - 1))
        else:
            prob = np.exp(_log_nfactorial_div_n_pow_n(n) + n * np.log(2 * t - 1))
        return np.clip(1.0 - prob, 0.0, 1.0)
    if t >= n - 1:  # Ruben-Gambino
        return np.clip(2 * (1.0 - d) ** n, 0.0, 1.0)
    nx2 = t * d
    if d < 0.5 and n > 140 and nx2 >= 370.0:
        return 0.0
    # twice the one-sided tail: exact for d >= 1/2, where the two tails
    # cannot overlap, and a close approximation past these n d^2
    if d >= 0.5 or nx2 > 4.0 or (n > 140 and nx2 >= 2.2):
        return np.clip(2 * smirnov(n, d), 0.0, 1.0)
    if n <= 140 or (n <= 100000 and n * d ** 1.5 <= 1.4):
        cdf = _durbin_mtw(n, d)
    else:
        cdf = _pelz_good(n, d)
    return np.clip(1.0 - cdf, 0.0, 1.0)


def _log_nfactorial_div_n_pow_n(n: int):
    """log(n! / n^n) by Stirling's series, with n log n taken out first."""
    rn = 1.0 / n
    return np.log(n) / 2 - n + _LOG_2PI / 2 + rn * np.polyval(_STIRLING_COEFFS, rn / n)


def _durbin_mtw(n: int, d):
    """P(D_n <= d) for n d > 1 by Durbin's matrix, powered as in Marsaglia,
    Tsang & Wang (2003) with intermediate rescaling."""
    # d = (k - h)/n with k a positive integer and 0 <= h < 1; the answer is
    # n!/n^n times the (k, k) entry of H^n, H of size m = 2k - 1
    nd = n * d
    k = int(np.ceil(nd))
    h = k - nd
    m = 2 * k - 1
    H = np.zeros([m, m])
    # v: first column and reversed last row, (1 - h^(j+1))/(j+1)!; w[j] = 1/j!
    intm = np.arange(1, m + 1)
    v = 1.0 - h ** intm
    w = np.empty(m)
    fac = 1.0
    for j in intm:
        w[j - 1] = fac
        fac /= j
        v[j - 1] *= fac
    tt = max(2 * h - 1.0, 0) ** m - 2 * h ** m
    v[-1] = (1.0 + tt) * fac
    for i in range(1, m):
        H[i - 1:, i] = w[:m - i + 1]
    H[:, 0] = v
    H[-1, :] = np.flip(v, axis=0)

    Hpwr = np.eye(np.shape(H)[0])
    nn = n
    expnt = 0   # scaling of Hpwr
    Hexpnt = 0  # scaling of H
    while nn > 0:
        if nn % 2:
            Hpwr = np.matmul(Hpwr, H)
            expnt += Hexpnt
        H = np.matmul(H, H)
        Hexpnt *= 2
        if np.abs(H[k - 1, k - 1]) > _EP128:
            H /= _EP128
            Hexpnt += _E128
        nn = nn // 2
    p = Hpwr[k - 1, k - 1]
    for i in range(1, n + 1):  # times n!/n^n
        p = i * p / n
        if np.abs(p) < _EM128:
            p *= _EP128
            expnt -= _E128
    if expnt != 0:
        p = np.ldexp(p, expnt)
    return np.clip(p, 0.0, 1.0)


def _pelz_good(n: int, x):
    """Pelz & Good's (1976) approximation to P(D_n <= x): the Li-Chien and
    Korolyuk expansion K0 + K1/sqrt(n) + K2/n + K3/n^1.5 in z = x sqrt(n),
    each term turned by the Jacobi theta identity into a series for small z."""
    z = np.sqrt(n) * x
    zsquared, zthree, zfour, zsix = z ** 2, z ** 3, z ** 4, z ** 6
    qlog = -_PI_SQUARED / 8 / zsquared
    if qlog < _MIN_LOG:  # z below about 0.0417
        return 0.0
    q = np.exp(qlog)

    k1a = -zsquared
    k1b = _PI_SQUARED / 4
    k2a = 6 * zsix + 2 * zfour
    k2b = (2 * zfour - 5 * zsquared) * _PI_SQUARED / 4
    k2c = _PI_FOUR * (1 - 2 * zsquared) / 16
    k3d = _PI_SIX * (5 - 30 * zsquared) / 64
    k3c = _PI_FOUR * (-60 * zsquared + 212 * zfour) / 16
    k3b = _PI_SQUARED * (135 * zfour - 96 * zsix) / 4
    k3a = -30 * zsix - 90 * z ** 8

    # Horner scheme for the sums of c_m q^(m^2) over odd m = 2k - 1
    K0to3 = np.zeros(4)
    maxk = int(np.ceil(16 * z / np.pi))
    for k in range(maxk, 0, -1):
        m = 2 * k - 1
        msquared, mfour, msix = m ** 2, m ** 4, m ** 6
        qpower = np.power(q, 8 * k)
        coeffs = np.array([1.0,
                           k1a + k1b * msquared,
                           k2a + k2b * msquared + k2c * mfour,
                           k3a + k3b * msquared + k3c * mfour + k3d * msix])
        K0to3 *= qpower
        K0to3 += coeffs
    K0to3 *= q
    K0to3 *= _SQRT2PI
    K0to3 /= np.array([z, 6 * zfour, 72 * z ** 7, 6480 * z ** 10])

    # the sums over all k of K2's pi^2 k^2 q^(k^2) and K3's
    # (3 pi^2 k^2 z^2 - pi^4 k^4) q^(k^2)
    q = np.exp(-_PI_SQUARED / 2 / zsquared)
    ks = np.arange(maxk, 0, -1)
    ksquared = ks ** 2
    sqrt3z = _SQRT3 * z
    kspi = np.pi * ks
    qpwers = q ** ksquared
    k2extra = np.sum(ksquared * qpwers)
    k2extra *= _PI_SQUARED * _SQRT2PI / (-36 * zthree)
    K0to3[2] += k2extra
    k3extra = np.sum((sqrt3z + kspi) * (sqrt3z - kspi) * ksquared * qpwers)
    k3extra *= _PI_SQUARED * _SQRT2PI / (216 * zsix)
    K0to3[3] += k3extra
    K0to3 /= np.power(n * 1.0, np.arange(len(K0to3)) / 2.0)
    return sum(K0to3)
