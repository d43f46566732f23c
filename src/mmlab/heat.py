"""Heat semigroups and kernels on the model spaces.

Generator convention: the full weighted Laplacian, so Brownian increments
have variance 2t per unit time and the matching SDE is
dX = -grad V dt + sqrt(2) dW.  On a circle of circumference 2*pi the
eigenvalues are k^2 and the spectral gap is 1.

Closed forms are used wherever they exist (wrapped Gaussians / eigen-sums on
circle and torus; on an interval [a, a+L] the Neumann kernel is the circle
kernel of circumference 2L folded by the reflection about a; Mehler formula
for quadratic potentials); finite spaces get a graph generator with exact
detailed balance and a symmetric eigendecomposition.  ``get_kernel`` builds
a space's kernel, the ``KERNELS`` class of its type, once and keeps it on the
space itself, so the kernel and its per-t caches live exactly as long as the
space does.

``apply_values`` takes the grid values of one function as an (n,) vector, or
of m functions as the columns of an (n, m) block, and returns them as floats
at t = 0.  Column j of a block's result is bit-identical to the (n,) call on
column j: the matrix kernels do one matrix-vector product per column, and the
circle and torus transform each column alone.
"""

from __future__ import annotations

import threading
import warnings
from typing import Callable, Optional, Sequence

import numpy as np

from .spaces import (
    Circle,
    EuclideanLogConcave,
    FiniteMms,
    Interval,
    PmmSpace,
    Torus,
    _evaluate,
    weighted_measure,
)

DETAILED_BALANCE_TOL = 1e-9
MIXING_TOL = 1e-9            # slack of mixing_bound_check's L^2 inequality
ENTROPY_IDENTITY_TOL = 1e-6  # largest residual entropy_identity_check passes
# threshold below which image sums beat eigen-sums (both < 50 terms to 1e-12)
SERIES_CROSSOVER = 0.3
# rows of the Mehler matrix built at a time, in one buffer reused for every
# slab of an apply, so no dense n x n matrix is held
MEHLER_SLAB = 256


class HeatError(ValueError):
    pass


def _gauss(z: np.ndarray, var: float) -> np.ndarray:
    return np.exp(-np.square(z) / (2.0 * var)) / np.sqrt(2.0 * np.pi * var)


def _per_column(mat: np.ndarray, values) -> np.ndarray:
    """mat @ values for an (n,) vector or an (n, m) block, one matrix-vector
    product per column; each column is copied contiguous first, so the
    product sees the same memory layout as an (n,) call."""
    values = np.asarray(values, dtype=float)
    cols = np.ascontiguousarray(values.reshape(len(values), -1).T)
    out = np.stack([mat @ c for c in cols], axis=-1)
    return out.reshape(mat.shape[:1] + values.shape[1:])


def circle_kernel_arc(t: float, dx, circumference: float) -> np.ndarray:
    """Heat kernel density w.r.t. arc length as a function of the
    (signed) coordinate difference."""
    if t <= 0:
        raise HeatError("t must be positive")
    c = float(circumference)
    dx = np.asarray(dx, dtype=float)
    if t < SERIES_CROSSOVER * (c / (2 * np.pi)) ** 2:
        n_img = int(np.ceil(13.0 * np.sqrt(t) / c)) + 2
        shifts = np.arange(-n_img, n_img + 1) * c
        z = dx[..., None] + shifts
        return np.sum(_gauss(z, 2.0 * t), axis=-1)
    k_max = int(np.ceil(c / (2 * np.pi) * np.sqrt(42.0 / t))) + 1
    ks = np.arange(1, k_max + 1)
    omega = (2 * np.pi * ks / c) ** 2
    series = np.sum(np.exp(-omega * t) * np.cos(np.outer(dx.ravel(), 2 * np.pi * ks / c)), axis=-1)
    return (1.0 + 2.0 * series.reshape(dx.shape)) / c


def interval_kernel_leb(t: float, x, y, a: float, length: float) -> np.ndarray:
    """Neumann heat kernel density w.r.t. Lebesgue on [a, a+length]: the
    circle kernel of circumference 2*length folded by the reflection about a."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    c = 2.0 * float(length)
    return circle_kernel_arc(t, x - y, c) + circle_kernel_arc(t, x + y - 2 * a, c)


class SpectralKernel:
    """Semigroup interface: quadrature grid plus kernel/apply queries.

    All kernel densities are w.r.t. the space's reference measure, so
    conservativeness reads sum_j p(t, x, y_j) w_j = 1.  Each kernel states its
    density once, as ``_density(t, x, y)`` for an array of points y;
    ``kernel_row`` and ``kernel_value`` both read it.
    """

    def __init__(self, space: PmmSpace):
        self.space = space
        self.points, self.weights = space.quadrature()
        self._cache: dict = {}
        self._lock = threading.Lock()

    def _density(self, t: float, x, y) -> np.ndarray:
        """p(t, x, y) at each point of the array y."""
        raise NotImplementedError

    def kernel_row(self, t: float, x) -> np.ndarray:
        """Density p(t, x, .) at every grid point."""
        return self._density(t, x, self.points)

    def kernel_value(self, t: float, x, y) -> float:
        return self._density(t, x, y).item()

    def apply_values(self, t: float, values: np.ndarray) -> np.ndarray:
        """P_t f for f given by its values on the grid: an (n,) vector, or an
        (n, m) block of m functions whose column j of the result is
        bit-identical to the (n,) call on column j.  P_0 is the identity."""
        values = np.asarray(values, dtype=float)
        return values if t == 0 else self._apply(t, values)

    def _apply(self, t: float, values: np.ndarray) -> np.ndarray:
        """apply_values at t > 0 on a float array."""
        return _per_column(self.transition_matrix(t), values)

    def gap(self) -> float:
        raise NotImplementedError

    def evaluate(self, f) -> np.ndarray:
        """Values on the grid of a callable on native points, or of a vector
        of grid values."""
        if callable(f):
            return _evaluate(f, self.points)
        vals = np.asarray(f, dtype=float)
        if vals.shape[0] != len(self.points):
            raise HeatError("function vector length mismatch")
        return vals

    def _per_t(self, t: float, build: Callable) -> np.ndarray:
        """build(t), memoized per t; safe to share across threads."""
        key = float(t)
        with self._lock:
            hit = self._cache.get(key)
        if hit is None:
            hit = build(t)
            with self._lock:
                self._cache[key] = hit
        return hit


class CircleKernel(SpectralKernel):
    def __init__(self, space: Circle):
        super().__init__(space)
        self._h = space.circumference / space.n_nodes

    def _density(self, t: float, x, y) -> np.ndarray:
        arc = circle_kernel_arc(t, y - float(x), self.space.circumference)
        return arc / self.space.measure_scale

    def _multiplier(self, t: float) -> np.ndarray:
        return self._per_t(t, lambda t: np.fft.rfft(
            circle_kernel_arc(t, self.points, self.space.circumference)) * self._h)

    def _apply(self, t: float, values: np.ndarray) -> np.ndarray:
        # transform along the grid axis, last after transposing a block
        f_hat = np.fft.rfft(values.T)
        return np.fft.irfft(f_hat * self._multiplier(t), n=self.space.n_nodes).T

    def gap(self) -> float:
        return (2 * np.pi / self.space.circumference) ** 2


class TorusKernel(SpectralKernel):
    """Product of its two circle factors.  ``kernel_row`` is the outer product
    of the factor rows, equal to the density on the grid at a fraction of
    its cost."""

    def __init__(self, space: Torus):
        super().__init__(space)
        self._f1, self._f2 = (CircleKernel(c) for c in space.factors())
        self._shape = (space.n_nodes[0], space.n_nodes[1])

    def _density(self, t: float, x, y) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        a1 = circle_kernel_arc(t, y[..., 0] - x[0], self.space.len1)
        a2 = circle_kernel_arc(t, y[..., 1] - x[1], self.space.len2)
        return a1 * a2 / self.space.measure_scale

    def kernel_row(self, t: float, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        a1 = circle_kernel_arc(t, self._f1.points - x[0], self.space.len1)
        a2 = circle_kernel_arc(t, self._f2.points - x[1], self.space.len2)
        return np.outer(a1, a2).ravel() / self.space.measure_scale

    def _apply(self, t: float, values: np.ndarray) -> np.ndarray:
        n1, n2 = self._shape
        v = values.T
        lead = v.shape[:-1]
        v = v.reshape(lead + self._shape)
        v = np.fft.irfft(np.fft.rfft(v, axis=-2) * self._f1._multiplier(t)[:, None], n=n1, axis=-2)
        v = np.fft.irfft(np.fft.rfft(v, axis=-1) * self._f2._multiplier(t), n=n2, axis=-1)
        return v.reshape(lead + (n1 * n2,)).T

    def gap(self) -> float:
        return min(self._f1.gap(), self._f2.gap())


class IntervalKernel(SpectralKernel):
    def __init__(self, space: Interval):
        super().__init__(space)
        self._h = space.length / space.n_nodes

    def _density(self, t: float, x, y) -> np.ndarray:
        x = float(x)
        lo, hi = self.space.a - 1e-12, self.space.b + 1e-12
        if not lo <= x <= hi or np.any((y < lo) | (y > hi)):
            raise HeatError("point outside the interval")
        leb = interval_kernel_leb(t, np.asarray(x), y, self.space.a, self.space.length)
        return leb / self.space.measure_scale

    def transition_matrix(self, t: float) -> np.ndarray:
        return self._per_t(t, lambda t: interval_kernel_leb(
            t, self.points[:, None], self.points[None, :],
            self.space.a, self.space.length) * self._h)

    def gap(self) -> float:
        return (np.pi / self.space.length) ** 2


class GaussianKernel(SpectralKernel):
    """Exact semigroup for V(x) = a|x|^2/2 on the line (Mehler / OU), with
    a = 0 degenerating to free Brownian motion.

    ``apply_values`` builds the Mehler matrix MEHLER_SLAB rows at a time in
    one reused buffer.  The Mehler mean is decay * x, so on a grid with
    ``points == -points[::-1]`` exactly (the bundled grid about base 0 is
    one) the matrix satisfies K[n-1-i, n-1-j] == K[i, j] bit for bit: when n
    is even only the top half is built, and each lower slab is the top slab
    reversed along both axes and copied contiguous, so every row's product
    sums in the same order as from the full matrix.
    """

    def __init__(self, space: EuclideanLogConcave):
        if space.dim != 1:
            raise HeatError("closed-form Gaussian semigroup is 1-D only")
        if space.potential.quadratic_coeff is None:
            raise HeatError("no computable kernel for non-quadratic potentials")
        super().__init__(space)
        self.a = float(space.potential.quadratic_coeff)
        self._h = 2 * space.grid_radius / space.n_nodes
        self._mirror = len(self.points) % 2 == 0 and bool(
            np.array_equal(self.points, -self.points[::-1]))

    def _moments(self, t: float, x):
        if self.a > 0:
            decay = np.exp(-self.a * t)
            var = (1.0 - decay * decay) / self.a
        else:
            decay, var = 1.0, 2.0 * t
        return np.asarray(x, dtype=float) * decay, var

    def _density(self, t: float, x, y) -> np.ndarray:
        if t <= 0:
            raise HeatError("t must be positive")
        mean, var = self._moments(t, float(np.atleast_1d(x)[0]))
        with np.errstate(over="ignore", invalid="ignore"):
            row = _gauss(y - mean, var) * np.exp(0.5 * self.a * np.square(y))
        bad = ~np.isfinite(row)
        if np.any(bad):
            # a steep member's far nodes give 0 * inf: take those in log space
            log_row = 0.5 * self.a * np.square(y) - np.square(y - mean) / (2.0 * var)
            row = np.where(bad, np.exp(log_row) / np.sqrt(2.0 * np.pi * var), row)
        return row

    def _apply(self, t: float, values: np.ndarray) -> np.ndarray:
        mean, var = self._moments(t, self.points)
        n = len(mean)
        built = n // 2 if self._mirror else n
        out = np.empty(values.shape)
        buf = np.empty((min(MEHLER_SLAB, built), n))
        for lo in range(0, built, MEHLER_SLAB):
            hi = min(lo + MEHLER_SLAB, built)
            slab = buf[:hi - lo]
            # _gauss(points - mean, var) * h in place, in its order of operations
            np.subtract(self.points, mean[lo:hi, None], out=slab)
            np.square(slab, out=slab)
            np.negative(slab, out=slab)
            np.divide(slab, 2.0 * var, out=slab)
            np.exp(slab, out=slab)
            np.divide(slab, np.sqrt(2.0 * np.pi * var), out=slab)
            np.multiply(slab, self._h, out=slab)
            out[lo:hi] = _per_column(slab, values)
            if self._mirror:
                out[n - hi:n - lo] = _per_column(np.ascontiguousarray(slab[::-1, ::-1]), values)
        return out

    def gap(self) -> float:
        if self.a <= 0:
            raise HeatError("no spectral gap without confinement")
        return self.a


class FiniteKernel(SpectralKernel):
    """Matrix semigroup on a finite space.

    The default generator is an epsilon-neighborhood graph with Gaussian edge
    weights m_i m_j exp(-d^2/eps^2) (eps = 2x median nearest-neighbor
    distance, edges kept up to 3 eps), scaled by 2/eps^2 and divided by m_i so
    detailed balance m_i L_ij = m_j L_ji holds exactly.
    """

    def __init__(self, space: FiniteMms, generator: Optional[np.ndarray] = None):
        super().__init__(space)
        m = space.weights
        if generator is None:
            generator = graph_generator(space)
        L = np.asarray(generator, dtype=float)
        if np.max(np.abs(L.sum(axis=1))) > 1e-9:
            raise HeatError("generator rows must sum to 0")
        sym = m[:, None] * L
        if np.max(np.abs(sym - sym.T)) > DETAILED_BALANCE_TOL * max(1.0, np.max(np.abs(sym))):
            raise HeatError("generator violates detailed balance w.r.t. the weights")
        self.generator = L
        sqrt_m = np.sqrt(m)
        s_mat = (sqrt_m[:, None] / sqrt_m[None, :]) * L
        s_mat = 0.5 * (s_mat + s_mat.T)
        lam, q = np.linalg.eigh(s_mat)
        self._lam = lam
        self._modes_left = q / sqrt_m[:, None]      # D^{-1/2} Q
        self._modes_right = (q * sqrt_m[:, None]).T  # Q^T D^{1/2}

    def transition_matrix(self, t: float) -> np.ndarray:
        return self._per_t(t, lambda t: (self._modes_left * np.exp(t * self._lam))
                           @ self._modes_right)

    def _density(self, t: float, x, y) -> np.ndarray:
        if t <= 0:
            raise HeatError("t must be positive")
        i = int(x)
        y = np.asarray(y, dtype=int)
        if not 0 <= i < self.space.n or np.any((y < 0) | (y >= self.space.n)):
            raise HeatError("atom index out of range")
        return self.transition_matrix(t)[i, y] / self.space.weights[y]

    def gap(self) -> float:
        rates = np.sort(-self._lam)
        if len(rates) < 2 or rates[1] < 1e-10:
            warnings.warn("space appears disconnected; spectral gap is 0")
            return 0.0
        return float(rates[1])


def graph_generator(space: FiniteMms, eps: Optional[float] = None) -> np.ndarray:
    d = space.dist
    m = space.weights
    n = space.n
    if n == 1:
        return np.zeros((1, 1))
    if eps is None:
        off = d + np.diag(np.full(n, np.inf))
        # the median from a sort: np.median would load numpy.ma for its NaN check
        nn = np.sort(np.min(off, axis=1))
        mid = n // 2
        eps = 2.0 * float(nn[mid] if n % 2 else (nn[mid - 1] + nn[mid]) / 2)
    if eps <= 0:
        raise HeatError("degenerate distances: zero nearest-neighbor spacing")
    w = np.outer(m, m) * np.exp(-np.square(d) / (eps * eps))
    w[d > 3 * eps] = 0.0
    np.fill_diagonal(w, 0.0)
    L = (2.0 / (eps * eps)) * (w / m[:, None])
    np.fill_diagonal(L, -L.sum(axis=1))
    return L


def set_generator(space: FiniteMms, generator: np.ndarray) -> None:
    """Pin a custom generator matrix to a finite space; its kernel replaces
    any kernel built before."""
    object.__setattr__(space, "_kernel", FiniteKernel(space, generator))


# the kernel class of each space type, looked up by exact type
KERNELS = {Circle: CircleKernel, Torus: TorusKernel, Interval: IntervalKernel,
           EuclideanLogConcave: GaussianKernel, FiniteMms: FiniteKernel}


def get_kernel(space: PmmSpace) -> SpectralKernel:
    """Semigroup object for a space, built on first use and kept on the
    space, so eigen-data is built once per space.  Pool threads and the main
    thread may ask at once: a per-space lock makes the first caller build and
    the others wait for its kernel."""
    sk = vars(space).get("_kernel")
    if sk is not None:
        return sk
    # dict.setdefault is atomic, so every caller gets the same lock
    with vars(space).setdefault("_kernel_lock", threading.Lock()):
        sk = vars(space).get("_kernel")
        if sk is None:
            build = KERNELS.get(type(space))
            if build is None:
                raise HeatError("no computable heat kernel for %s" % type(space).__name__)
            sk = build(space)
            object.__setattr__(space, "_kernel", sk)
    return sk


def semigroup_apply(space: PmmSpace, t: float, f) -> np.ndarray:
    """P_t f as a vector of values on the space's quadrature grid/atoms.

    ``f`` may be a callable on native points or a grid-value vector.
    """
    if t < 0:
        raise HeatError("t must be nonnegative")
    sk = get_kernel(space)
    return sk.apply_values(t, sk.evaluate(f))


def on_diagonal(space: PmmSpace, t: float, x) -> float:
    """p(t, x, x) computed as the squared L^2(m)-norm of p(t/2, x, .)."""
    if t <= 0:
        raise HeatError("t must be positive")
    sk = get_kernel(space)
    row = sk.kernel_row(0.5 * t, x)
    return float(np.sum(sk.weights * row * row))


def spectral_gap(space: PmmSpace) -> float:
    """Smallest nonzero eigenvalue of minus the generator."""
    return get_kernel(space).gap()


def _block(sk: SpectralKernel, functions) -> np.ndarray:
    """Grid values of the functions as the columns of an (n, m) block."""
    cols = [sk.evaluate(f) for f in functions]
    if not cols:
        raise HeatError("no functions given")
    return np.stack(cols, axis=1)


def mixing_bound_check(space: PmmSpace, t_grid: Sequence[float], trial_functions) -> dict:
    """Exponential L^2 mixing at rate given by the spectral gap.

    Checks ||P_t f - mean(f)||_2 <= e^{-gap t} ||f - mean(f)||_2 in L^2 of
    the probability reference, for every trial f and grid t.
    """
    sk = get_kernel(space)
    lam = sk.gap()
    tw = weighted_measure(space).masses()
    block = _block(sk, trial_functions)
    applied = [sk.apply_values(t, block) for t in t_grid]
    rows = []
    for fi, vals in enumerate(block.T):
        mean = float(np.sum(tw * vals))
        centered = vals - mean
        base = float(np.sqrt(np.sum(tw * centered * centered)))
        for t, p in zip(t_grid, applied):
            pt = p[:, fi] - mean
            lhs = float(np.sqrt(np.sum(tw * pt * pt)))
            rhs = np.exp(-lam * t) * base
            rows.append({"check": "mixing_l2", "f": fi, "t": float(t),
                         "max_violation": max(lhs - rhs, 0.0),
                         "pass": bool(lhs <= rhs + MIXING_TOL)})
    return {"check": "mixing_bound", "gap": lam, "rows": rows,
            "pass": all(r["pass"] for r in rows)}


def relative_entropy(mu, ref) -> float:
    """Ent(mu | ref) = int rho log rho d(ref) for a pair of probability
    vectors; +inf off the support of ref."""
    p = np.asarray(mu, dtype=float)
    q = np.asarray(ref, dtype=float)
    if p.shape != q.shape:
        raise HeatError("probability vectors of different lengths")
    active = p > 0
    if np.any(active & (q <= 0)):
        return float("inf")
    return float(np.sum(p[active] * np.log(p[active] / q[active])))


def entropy_identity_check(space: PmmSpace, C: float, mu_density: np.ndarray) -> dict:
    """Consistency of entropies against the raw and the weighted reference:
    Ent_m(mu) = Ent_mtilde(mu) - C int d^2(., base) dmu - log z
    (the correction vanishing into -log m(X) on finite-mass spaces)."""
    pts, w = space.quadrature()
    rho = np.asarray(mu_density, dtype=float)
    mass = float(np.sum(w * rho))
    if abs(mass - 1.0) > 1e-9:
        raise HeatError("mu must be a probability measure (got mass %g)" % mass)
    tilde = weighted_measure(space, C)
    g = tilde.density          # d(mtilde)/dm
    ent_m = float(np.sum(w * rho * np.where(rho > 0, np.log(np.maximum(rho, 1e-300)), 0.0)))
    ratio = rho / g
    ent_tilde = float(np.sum(w * rho * np.where(rho > 0, np.log(np.maximum(ratio, 1e-300)), 0.0)))
    if isinstance(space, EuclideanLogConcave):
        d2 = np.asarray(space.distance(pts, float(space.base_point[0]))) ** 2
        z = float(np.sum(w * np.exp(-C * d2)))
        correction = C * float(np.sum(w * rho * d2)) + np.log(z)
    else:
        correction = np.log(space.total_mass())
    residual = ent_m - (ent_tilde - correction)
    return {"check": "entropy_identity", "ent_m": ent_m, "ent_tilde": ent_tilde,
            "correction": correction, "residual": residual,
            "pass": bool(abs(residual) <= ENTROPY_IDENTITY_TOL)}


def feller_check(space: PmmSpace, test_functions, t_grid: Sequence[float],
                 tol: float = 1e-2) -> dict:
    """Strong continuity at t -> 0: sup|P_t f - f| shrinks below tol."""
    ts = sorted(float(t) for t in t_grid)
    sk = get_kernel(space)
    block = _block(sk, test_functions)
    applied = [sk.apply_values(t, block) for t in ts]
    rows = []
    ok = True
    for fi, vals in enumerate(block.T):
        gaps = []
        for t, p in zip(ts, applied):
            gap = float(np.max(np.abs(p[:, fi] - vals)))
            gaps.append(gap)
            rows.append({"check": "feller", "f": fi, "t": t, "sup_gap": gap})
        monotone = all(a <= b + 1e-9 for a, b in zip(gaps, gaps[1:]))
        if not (monotone and gaps[0] <= tol):
            ok = False
    return {"check": "feller", "rows": rows, "pass": ok}
