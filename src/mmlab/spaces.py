"""Pointed metric measure spaces: analytic models and finite discretizations.

Each space carries a base point, a reference measure, and (where meaningful)
a deterministic quadrature grid.  Finite spaces are distance matrices with
positive atom weights; collapse maps are the 1-Lipschitz surrogates used to
compare a family of spaces against a declared limit.  ``_evaluate`` states
the batch rule for functions of a point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

TRIANGLE_TOL = 1e-9
CONE_MIN_RESOLUTION = 4   # rings and meridians of the coarsest cone mesh


class SpaceError(ValueError):
    pass


def _evaluate(f: Callable, pts: np.ndarray, item_shape: tuple = ()) -> np.ndarray:
    """Values of ``f`` at the points ``pts``, each of shape ``item_shape``.

    The rule for every function the lab evaluates on many points (test
    functions, collapse maps, potentials and their gradients): it takes an
    array of points, with the points along the leading axes, and returns one
    value per point.  ``f`` is called once, on the whole array; a result of
    any shape other than ``(len(pts),) + item_shape`` raises ``SpaceError``.
    A function written for a single point only, such as ``A @ x`` for a
    gradient, is outside the rule; where its batch result happens to have the
    right shape (``d`` points in dimension ``d``) no check can tell.
    """
    vals = np.asarray(f(pts), dtype=float)
    want = (len(pts),) + item_shape
    if vals.shape != want:
        raise SpaceError("function returned shape %s for %d points; expected %s"
                         % (vals.shape, len(pts), want))
    return vals


@dataclass(frozen=True)
class Potential:
    """A potential V with its gradient and a declared convexity modulus.

    ``value`` and ``grad`` follow the batch rule of ``_evaluate``.
    ``quadratic_coeff`` marks V(x) = a|x|^2/2 exactly; this unlocks the
    closed-form Gaussian semigroup in the heat module.
    """

    value: Callable
    grad: Callable
    convexity_modulus: float = 0.0
    quadratic_coeff: Optional[float] = None


def quadratic_potential(a: float) -> Potential:
    return Potential(
        value=lambda x, a=a: 0.5 * a * np.sum(np.square(x), axis=-1),
        grad=lambda x, a=a: a * np.atleast_1d(np.asarray(x, dtype=float)),
        convexity_modulus=a,
        quadratic_coeff=a,
    )


@dataclass(frozen=True)
class Box:
    """The closed box lo <= x <= hi, coordinate by coordinate, with float
    bound vectors of one length (a bound may be infinite).  A box of one
    coordinate bounds every coordinate of a point by the same interval."""

    lo: np.ndarray
    hi: np.ndarray


def box_domain(lo, hi) -> Box:
    lo = np.array(lo, dtype=float, ndmin=1)
    hi = np.array(hi, dtype=float, ndmin=1)
    if lo.ndim != 1 or lo.shape != hi.shape:
        raise SpaceError("box bounds must be two vectors of one length")
    if np.isnan(lo).any() or np.isnan(hi).any() or np.any(lo > hi):
        raise SpaceError("box bounds must be numbers with lo <= hi")
    return Box(lo, hi)


class PmmSpace:
    """Base interface: distance, base point, reference measure, quadrature."""

    @property
    def base_point(self):
        raise NotImplementedError

    def distance(self, x, y):
        raise NotImplementedError

    def total_mass(self) -> float:
        raise NotImplementedError

    def quadrature(self):
        """(points, weights) with weights w.r.t. the reference measure."""
        raise NotImplementedError

    def ball_mass(self, center, r: float) -> float:
        pts, w = self.quadrature()
        d = self.distance(pts, center)
        return float(np.sum(w[d < r]))


def _fold(d: np.ndarray, circumference: float) -> np.ndarray:
    """The circle distance of the differences d, written into d's buffer."""
    np.mod(d, circumference, out=d)
    np.abs(d, out=d)
    return np.minimum(d, circumference - d, out=d)


def _scalar_if_0d(d: np.ndarray):
    return d if d.ndim else d[()]


def circle_distance(x, y, circumference: float):
    return _scalar_if_0d(_fold(np.asarray(np.subtract(x, y, dtype=float)), circumference))


@dataclass(frozen=True)
class Circle(PmmSpace):
    circumference: float = 2 * np.pi
    base: float = 0.0
    n_nodes: int = 2048
    normalized: bool = False

    def __post_init__(self):
        if not 0 < self.circumference < np.inf:
            raise SpaceError("circumference must be positive and finite")
        if not np.isfinite(self.base):
            raise SpaceError("base must be finite")
        if not self.n_nodes >= 1:
            raise SpaceError("n_nodes must be >= 1")

    @property
    def base_point(self):
        return self.base

    def distance(self, x, y):
        return circle_distance(x, y, self.circumference)

    def total_mass(self) -> float:
        return 1.0 if self.normalized else self.circumference

    @property
    def measure_scale(self) -> float:
        # density of the reference measure w.r.t. arc length
        return 1.0 / self.circumference if self.normalized else 1.0

    def grid(self) -> np.ndarray:
        return np.arange(self.n_nodes) * (self.circumference / self.n_nodes)

    def quadrature(self):
        pts = self.grid()
        w = np.full(self.n_nodes, self.total_mass() / self.n_nodes)
        return pts, w


@dataclass(frozen=True)
class Torus(PmmSpace):
    """Flat product of two circles with circumferences (len1, len2)."""

    len1: float = 2 * np.pi
    len2: float = 2 * np.pi
    base: tuple = (0.0, 0.0)
    n_nodes: tuple = (256, 128)
    normalized: bool = False

    def __post_init__(self):
        if not (0 < self.len1 < np.inf and 0 < self.len2 < np.inf):
            raise SpaceError("circumferences must be positive and finite")
        if not np.all(np.isfinite(self.base)):
            raise SpaceError("base must be finite")
        if not min(self.n_nodes) >= 1:
            raise SpaceError("n_nodes must be >= 1")

    @property
    def base_point(self):
        return np.asarray(self.base, dtype=float)

    def factors(self):
        return (
            Circle(self.len1, self.base[0], self.n_nodes[0], normalized=False),
            Circle(self.len2, self.base[1], self.n_nodes[1], normalized=False),
        )

    def distance(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d1 = _fold(np.asarray(x[..., 0] - y[..., 0]), self.len1)
        d2 = _fold(np.asarray(x[..., 1] - y[..., 1]), self.len2)
        d1 *= d1
        d2 *= d2
        d1 += d2
        return _scalar_if_0d(np.sqrt(d1, out=d1))

    def total_mass(self) -> float:
        return 1.0 if self.normalized else self.len1 * self.len2

    @property
    def measure_scale(self) -> float:
        return 1.0 / (self.len1 * self.len2) if self.normalized else 1.0

    def quadrature(self):
        c1, c2 = self.factors()
        g1, g2 = c1.grid(), c2.grid()
        xx, yy = np.meshgrid(g1, g2, indexing="ij")
        pts = np.stack([xx.ravel(), yy.ravel()], axis=-1)
        w = np.full(len(pts), self.total_mass() / len(pts))
        return pts, w


@dataclass(frozen=True)
class Interval(PmmSpace):
    a: float = 0.0
    b: float = 1.0
    base: Optional[float] = None
    n_nodes: int = 1024
    normalized: bool = False

    def __post_init__(self):
        if not -np.inf < self.a < self.b < np.inf:
            raise SpaceError("need finite a < b")
        if self.base is not None and not np.isfinite(self.base):
            raise SpaceError("base must be finite")
        if not self.n_nodes >= 1:
            raise SpaceError("n_nodes must be >= 1")

    @property
    def base_point(self):
        return 0.5 * (self.a + self.b) if self.base is None else self.base

    def distance(self, x, y):
        return np.abs(np.asarray(x, dtype=float) - np.asarray(y, dtype=float))

    @property
    def length(self) -> float:
        return self.b - self.a

    def total_mass(self) -> float:
        return 1.0 if self.normalized else self.length

    @property
    def measure_scale(self) -> float:
        return 1.0 / self.length if self.normalized else 1.0

    def grid(self) -> np.ndarray:
        # midpoint rule keeps the Neumann kernel quadrature clean at the ends
        h = self.length / self.n_nodes
        return self.a + (np.arange(self.n_nodes) + 0.5) * h

    def quadrature(self):
        pts = self.grid()
        w = np.full(self.n_nodes, self.total_mass() / self.n_nodes)
        return pts, w


@dataclass(frozen=True)
class EuclideanLogConcave(PmmSpace):
    """(R^d, Euclidean, e^{-V} dx); quadrature supported in dimension 1."""

    dim: int
    potential: Potential
    base: object = 0.0
    grid_radius: float = 10.0
    n_nodes: int = 4096

    def __post_init__(self):
        if self.dim < 1:
            raise SpaceError("dim must be positive")

    @property
    def base_point(self):
        return np.atleast_1d(np.asarray(self.base, dtype=float))

    def distance(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if self.dim == 1 and x.ndim <= 1 and y.ndim <= 1:
            return np.abs(x - y)
        return np.linalg.norm(np.atleast_2d(x) - np.atleast_2d(y), axis=-1)

    def total_mass(self) -> float:
        _, w = self.quadrature()
        return float(np.sum(w))

    def quadrature(self):
        if self.dim != 1:
            raise SpaceError("quadrature only available in dimension 1")
        x0 = float(self.base_point[0])
        h = 2 * self.grid_radius / self.n_nodes
        pts = x0 - self.grid_radius + (np.arange(self.n_nodes) + 0.5) * h
        return pts, np.exp(-_evaluate(self.potential.value, pts[:, None])) * h


def _check_triangle(dist: np.ndarray, tol: float, rng_seed: int = 0) -> None:
    n = len(dist)
    if n <= 60:
        worst = np.max(dist[:, None, :] - dist[:, :, None] - dist[None, :, :])
        if worst > tol:
            raise SpaceError("triangle inequality violated by %.2e" % worst)
        return
    rng = np.random.default_rng(rng_seed)
    i, j, k = rng.integers(0, n, size=(3, 20000))
    worst = np.max(dist[i, j] - dist[i, k] - dist[k, j])
    if worst > tol:
        raise SpaceError("triangle inequality violated by %.2e" % worst)


@dataclass(frozen=True)
class FiniteMms(PmmSpace):
    """A finite metric measure space: distance matrix plus atom weights."""

    dist: np.ndarray
    weights: np.ndarray
    base_index: int = 0
    coords: Optional[np.ndarray] = None   # optional embedding, for plots/maps

    def __post_init__(self):
        d = np.asarray(self.dist, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "dist", d)
        object.__setattr__(self, "weights", w)
        n = len(w)
        if d.shape != (n, n):
            raise SpaceError("dist must be n x n")
        if not (np.all(np.isfinite(d)) and np.all(np.isfinite(w))):
            raise SpaceError("distances and weights must be finite")
        if np.any(np.abs(np.diag(d)) > 0):
            raise SpaceError("nonzero diagonal")
        if np.max(np.abs(d - d.T)) > TRIANGLE_TOL:
            raise SpaceError("dist not symmetric")
        if np.any(d < 0):
            raise SpaceError("negative distances")
        if np.any(d[~np.eye(n, dtype=bool)] == 0):
            raise SpaceError("two distinct atoms at distance 0")
        if np.any(w <= 0):
            raise SpaceError("weights must be strictly positive")
        if not 0 <= self.base_index < n:
            raise SpaceError("base_index out of range")
        _check_triangle(d, TRIANGLE_TOL)

    @property
    def n(self) -> int:
        return len(self.weights)

    @property
    def base_point(self) -> int:
        return self.base_index

    def distance(self, x, y):
        return self.dist[np.asarray(x, dtype=int), np.asarray(y, dtype=int)]

    def total_mass(self) -> float:
        return float(np.sum(self.weights))

    def quadrature(self):
        return np.arange(self.n), self.weights.copy()

    def save(self, path) -> None:
        """Flat file: header ``n base_index``, n weight lines, n distance rows."""
        with open(path, "w") as fh:
            fh.write("%d %d\n" % (self.n, self.base_index))
            for w in self.weights:
                fh.write("%.17g\n" % w)
            for row in self.dist:
                fh.write(" ".join("%.17g" % v for v in row) + "\n")

    @staticmethod
    def load(path) -> "FiniteMms":
        with open(path) as fh:
            tokens = fh.read().split()
        try:
            n, base = int(tokens[0]), int(tokens[1])
            values = [float(v) for v in tokens[2:]]
        except (IndexError, ValueError) as exc:
            raise SpaceError("malformed finite space file %s: %s" % (path, exc)) from None
        if n < 1 or len(values) != n + n * n:
            raise SpaceError("finite space file %s: n = %d needs %d weights and distances, "
                             "found %d" % (path, n, n + n * n, len(values)))
        w = np.array(values[:n])
        d = np.array(values[n:]).reshape(n, n)
        return FiniteMms(dist=d, weights=w, base_index=base)


@dataclass(frozen=True)
class CollapseMap:
    """1-Lipschitz map onto a limit space with an explicit fiber bound.

    Stands in for an isometric embedding into a common ambient space: any
    W_1 discrepancy measured after collapsing is off by at most
    ``fiber_diameter_bound`` from the embedded one.
    """

    target: PmmSpace
    map: Callable
    fiber_diameter_bound: float


@dataclass(frozen=True)
class QuadratureDensity:
    """A measure on a quadrature grid: d(mu) = density * d(reference)."""

    points: np.ndarray
    base_weights: np.ndarray
    density: np.ndarray

    def masses(self) -> np.ndarray:
        return self.base_weights * self.density


def weighted_measure(space: PmmSpace, C: float = 1.0) -> QuadratureDensity:
    """The probability reference on the space's quadrature grid (the atoms of
    a finite space): m/m(X) on the finite-mass spaces, and on
    ``EuclideanLogConcave`` the Gaussian-weighted normalization
    (1/z) e^{-C d^2(., base)} m."""
    if C <= 0:
        raise SpaceError("C must be positive")
    pts, w = space.quadrature()
    if not isinstance(space, EuclideanLogConcave):
        # finite-mass branch: C is ignored
        total = float(np.sum(w))
        return QuadratureDensity(pts, w, np.full(len(w), 1.0 / total))
    d2 = np.asarray(space.distance(pts, space.base_point[0] if space.dim == 1 else space.base_point)) ** 2
    weight = np.exp(-C * d2)
    tail = max(weight[0] * w[0], weight[-1] * w[-1])
    z = float(np.sum(w * weight))
    if z <= 0 or tail > 1e-10 * z:
        raise SpaceError("weight e^{-C d^2} not integrable on the grid; C too small")
    return QuadratureDensity(pts, w, weight / z)


def theta_comparison(kappa: float, theta) -> np.ndarray:
    """The comparison function: sin(sqrt(k) t)/sqrt(k), t, or sinh form."""
    t = np.asarray(theta, dtype=float)
    if kappa > 0:
        s = np.sqrt(kappa)
        return np.sin(s * t) / s
    if kappa < 0:
        s = np.sqrt(-kappa)
        return np.sinh(s * t) / s
    return t


def bishop_gromov_check(space: PmmSpace, N: float, K: float, D: float, radii) -> dict:
    """Lower volume bound m(B_r) >= (int_0^r Theta^N / int_0^D Theta^N) m(B_D),
    plus an empirical exponent fit of r -> m(B_r)."""
    if N <= 1:
        raise SpaceError("N must exceed 1")
    radii = [float(r) for r in radii]
    if any(r > D + 1e-12 for r in radii):
        raise SpaceError("radii must not exceed D")
    ts = np.linspace(0.0, D, 4001)

    def theta_integral(r):
        sel = ts <= r
        return float(np.trapezoid(theta_comparison(K / N, ts[sel]) ** N, ts[sel]))

    denom = theta_integral(D)
    mass_d = space.ball_mass(space.base_point, D)
    c_convention = 1.0 / denom
    rows = []
    for r in radii:
        mass = space.ball_mass(space.base_point, r)
        bound = theta_integral(r) / denom * mass_d
        if mass <= 0:
            rows.append({"r": r, "mass": 0.0, "bound": bound, "pass": False,
                         "degenerate": True})
            continue
        rows.append({"r": r, "mass": mass, "bound": bound,
                     "pass": bool(mass >= bound - 1e-12), "degenerate": False})
    good = [(np.log(r["r"]), np.log(r["mass"])) for r in rows if r["mass"] > 0]
    if len(good) >= 2:
        lx, ly = np.array(good).T
        exponent = float(np.polyfit(lx, ly, 1)[0])
    else:
        exponent = float("nan")
    return {"check": "bishop_gromov", "rows": rows, "exponent_fit": exponent,
            "c_convention": c_convention,
            "pass": all(r["pass"] for r in rows if not r.get("degenerate"))}


def mesh_cone(n: int, resolution: int) -> FiniteMms:
    """Triangulated point cloud on {y^2 + z^2 = x/n, 0 <= x <= 1} with
    graph-geodesic distances; ``coords`` holds the nodes, apex first."""
    if n < 1:
        raise SpaceError("n must be >= 1")
    if resolution < CONE_MIN_RESOLUTION:
        raise SpaceError("resolution must be >= %d" % CONE_MIN_RESOLUTION)
    rings = resolution
    angular = resolution
    xs = np.linspace(0.0, 1.0, rings + 1)[1:]
    radii = np.sqrt(xs / n)
    phis = 2 * np.pi * np.arange(angular) / angular

    # node 0 is the apex; ring j node k is 1 + j*angular + k
    coords = [np.array([0.0, 0.0, 0.0])]
    for x, r in zip(xs, radii):
        for p in phis:
            coords.append(np.array([x, r * np.cos(p), r * np.sin(p)]))
    coords = np.asarray(coords)
    n_nodes = len(coords)

    rows, cols = [], []

    def connect(i, j):
        rows.append(i)
        cols.append(j)

    for k in range(angular):
        connect(0, 1 + k)
    for j in range(rings):
        for k in range(angular):
            a = 1 + j * angular + k
            connect(a, 1 + j * angular + (k + 1) % angular)
            if j + 1 < rings:
                b = 1 + (j + 1) * angular + k
                connect(a, b)
                connect(a, 1 + (j + 1) * angular + (k + 1) % angular)
    rows = np.asarray(rows)
    cols = np.asarray(cols)
    lengths = np.linalg.norm(coords[rows] - coords[cols], axis=1)
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components, shortest_path

    graph = coo_matrix((lengths, (rows, cols)), shape=(n_nodes, n_nodes))
    graph = graph.maximum(graph.T)
    n_comp, _ = connected_components(graph, directed=False)
    if n_comp != 1:
        raise SpaceError("cone mesh graph is disconnected; increase resolution")
    dist = shortest_path(graph, method="D", directed=False)

    # Hausdorff-proportional atom weights: meridian arclength times ring girth
    ds = np.empty(rings)
    edges = np.concatenate([[0.0], 0.5 * (xs[:-1] + xs[1:]), [1.0]])
    for j, x in enumerate(xs):
        lo, hi = edges[j], edges[j + 1]
        tt = np.linspace(max(lo, 1e-9), hi, 64)
        rp = 0.5 / np.sqrt(n * tt)
        ds[j] = np.trapezoid(np.sqrt(1.0 + rp * rp), tt)
    w = np.empty(n_nodes)
    w[0] = 1e-3 * np.min(ds * 2 * np.pi * radii / angular)
    for j in range(rings):
        w[1 + j * angular:1 + (j + 1) * angular] = ds[j] * 2 * np.pi * radii[j] / angular
    w /= w.sum()

    return FiniteMms(dist=dist, weights=w, base_index=0, coords=coords)
