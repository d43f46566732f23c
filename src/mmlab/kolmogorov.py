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

``ndtri(p)``, the standard normal quantile, is a port of Cephes ``ndtri``,
which is what ``scipy.special.ndtri`` evaluates; it gives the same doubles
without importing ``scipy.special``.  That module is imported only on the
branch of ``kolmogorov_sf`` that calls ``smirnov``.

``chi2_sf(dof, q)``, the chi-squared survival function of an integer
``dof``, is the regularised upper incomplete gamma Q(dof/2, q/2) as a finite
Poisson sum (plus an ``erfc`` term for odd ``dof``), with each term's
logarithm taken in Loader's saddle-point form, so it too needs no
``scipy.special``.
"""

from __future__ import annotations

import math

import numpy as np

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
        from scipy.special import smirnov
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


# Cephes ndtri.  P0/Q0 on the centre, exp(-2) < p < 1 - exp(-2), in
# (p - 1/2)^2; P1/Q1 and P2/Q2 on the tails in 1/z, z = sqrt(-2 log p),
# for z < 8 and z >= 8.  The Q polynomials' leading 1 is implicit.
_NDTRI_EXPM2 = 0.13533528323661269189
_NDTRI_S2PI = 2.50662827463100050242
_NDTRI_P0 = [-5.99633501014107895267E1, 9.80010754185999661536E1,
             -5.66762857469070293439E1, 1.39312609387279679503E1,
             -1.23916583867381258016E0]
_NDTRI_Q0 = [1.95448858338141759834E0, 4.67627912898881538453E0,
             8.63602421390890590575E1, -2.25462687854119370527E2,
             2.00260212380060660359E2, -8.20372256168333339912E1,
             1.59056225126211695515E1, -1.18331621121330003142E0]
_NDTRI_P1 = [4.05544892305962419923E0, 3.15251094599893866154E1,
             5.71628192246421288162E1, 4.40805073893200834700E1,
             1.46849561928858024014E1, 2.18663306850790267539E0,
             -1.40256079171354495875E-1, -3.50424626827848203418E-2,
             -8.57456785154685413611E-4]
_NDTRI_Q1 = [1.57799883256466749731E1, 4.53907635128879210584E1,
             4.13172038254672030440E1, 1.50425385692907503408E1,
             2.50464946208309415979E0, -1.42182922854787788574E-1,
             -3.80806407691578277194E-2, -9.33259480895457427372E-4]
_NDTRI_P2 = [3.23774891776946035970E0, 6.91522889068984211695E0,
             3.93881025292474443415E0, 1.33303460815807542389E0,
             2.01485389549179081538E-1, 1.23716634817820021358E-2,
             3.01581553508235416007E-4, 2.65806974686737550832E-6,
             6.23974539184983293730E-9]
_NDTRI_Q2 = [6.02427039364742014255E0, 3.67983563856160859403E0,
             1.37702099489081330271E0, 2.16236993594496635890E-1,
             1.34204006088543189037E-2, 3.28014464682127739104E-4,
             2.89247864745380683936E-6, 6.79019408009981274425E-9]


def _polevl(x, coef):
    """sum_i coef[i] x^(N-i) by Horner's rule, in Cephes' order of operations."""
    ans = coef[0]
    for c in coef[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coef):
    """``_polevl`` with an implicit leading coefficient 1."""
    return _polevl(x, [1.0] + coef)


def ndtri(p):
    """Standard normal quantile, elementwise; equal to
    ``scipy.special.ndtri`` bit for bit.  0 and 1 give -inf and +inf, NaN
    and values outside [0, 1] give NaN."""
    p = np.asarray(p, dtype=float)
    upper = p > 1.0 - _NDTRI_EXPM2
    y = np.where(upper, 1.0 - p, p)
    out = np.full(p.shape, np.nan)
    centre = y > _NDTRI_EXPM2
    yc = y[centre] - 0.5
    y2 = yc * yc
    out[centre] = (yc + yc * (y2 * _polevl(y2, _NDTRI_P0) / _p1evl(y2, _NDTRI_Q0))) * _NDTRI_S2PI
    tail = (y > 0.0) & ~centre
    # libm's log: numpy's SIMD log differs from it in the last bit in places
    x = np.array([math.sqrt(-2.0 * math.log(v)) for v in y[tail].tolist()])
    x0 = x - np.array([math.log(v) for v in x.tolist()]) / x
    z = 1.0 / x
    x1 = np.where(x < 8.0, z * _polevl(z, _NDTRI_P1) / _p1evl(z, _NDTRI_Q1),
                  z * _polevl(z, _NDTRI_P2) / _p1evl(z, _NDTRI_Q2))
    out[tail] = np.where(upper[tail], x0 - x1, x1 - x0)
    out[p == 0.0] = -np.inf
    out[p == 1.0] = np.inf
    return out[()]


# the Stirling series of log Gamma(nu + 1) - log(sqrt(2 pi nu) (nu / e)^nu)
# past _STIRLERR_SERIES: 1/12, 1/360, 1/1260, 1/1680, 1/1188
_STIRLERR_SERIES = 15.0
_STIRLERR_COEFFS = [1 / 12, 1 / 360, 1 / 1260, 1 / 1680, 1 / 1188]
_LOG_SQRT_2PI = 0.5 * math.log(2 * math.pi)


def _stirlerr(nu: float) -> float:
    """log Gamma(nu + 1) - log(sqrt(2 pi nu) (nu / e)^nu) for nu > 0."""
    if nu <= _STIRLERR_SERIES:
        return math.lgamma(nu + 1.0) - (nu + 0.5) * math.log(nu) + nu - _LOG_SQRT_2PI
    nn = nu * nu
    s0, s1, s2, s3, s4 = _STIRLERR_COEFFS
    return (s0 - (s1 - (s2 - (s3 - s4 / nn) / nn) / nn) / nn) / nu


def _bd0(nu: float, x: float) -> float:
    """nu log(nu / x) + x - nu, the deviance term, without its cancellation
    when nu is near x (Loader, "Fast and Accurate Computation of Binomial
    Probabilities", 2000)."""
    if abs(nu - x) < 0.1 * (nu + x):
        v = (nu - x) / (nu + x)
        s, ej, v2 = (nu - x) * v, 2.0 * nu * v, v * v
        for j in range(1, 1000):
            ej *= v2
            s1 = s + ej / (2 * j + 1)
            if s1 == s:
                break
            s = s1
        return s
    return nu * math.log(nu / x) + x - nu


def _log_poisson_term(nu: float, x: float) -> float:
    """log(x^nu e^-x / Gamma(nu + 1)) for nu >= 0 and x > 0."""
    if nu == 0:
        return -x
    return -_stirlerr(nu) - _bd0(nu, x) - 0.5 * math.log(2 * math.pi * nu)


def chi2_sf(dof: int, q) -> float:
    """P(X >= q) for X chi-squared with ``dof`` degrees of freedom, a
    positive integer: Q(a, x), a = dof/2, x = q/2.

    For x < a it is 1 - P(a, x), P(a, x) = sum over nu = a, a+1, ... of
    x^nu e^-x / Gamma(nu + 1); else Q(a, x) is the finite sum over nu = a-1,
    a-2, ... down to 0 or 1/2, plus erfc(sqrt x) when dof is odd.  Either
    sum starts at its largest term, whose log is taken in Loader's form, and
    runs by the exact term ratio until the rest cannot move it."""
    if not (isinstance(dof, (int, np.integer)) and dof >= 1):
        raise ValueError("chi2_sf needs a positive integer dof")
    q = float(q)
    if math.isnan(q):
        return math.nan
    a, x = dof / 2.0, q / 2.0
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    if x < a:
        nu, term = a, math.exp(_log_poisson_term(a, x))
        total = term
        while True:
            nu += 1.0
            ratio = x / nu
            term *= ratio
            total += term
            # the rest is below term ratio / (1 - ratio), the next ratios being smaller
            if term * ratio <= total * 1e-17 * (1.0 - ratio):
                return 1.0 - total
    total = math.erfc(math.sqrt(x)) if dof % 2 else 0.0
    if a < 1.0:
        return total
    nu = a - 1.0
    term = math.exp(_log_poisson_term(nu, x))
    total += term
    while nu >= 1.0 and term > total * 1e-17:
        term *= nu / x
        nu -= 1.0
        total += term
    return total
