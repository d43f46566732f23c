"""Exact optimal transport between discrete measures.

Small-scale, exactness-first: Wasserstein distances are computed by linear
programming (HiGHS), 1-D instances additionally by the quantile formula, and
dual lower bounds come from finite families of Lipschitz functions.  W_1
between measures on a grid of cells, under a sum of 1-D path or cycle
metrics, is the min-cost flow on the grid graph (a sparse LP with O(cells)
arcs); any other ground metric goes to the dense transportation LP.  No
entropic regularization anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

MARGINAL_TOL = 1e-9


class TransportError(ValueError):
    pass


def _as_atoms(atoms) -> np.ndarray:
    a = np.asarray(atoms, dtype=float)
    if a.ndim == 1:
        a = a[:, None]
    if a.ndim != 2:
        raise TransportError("atoms must be a 1-D or 2-D array")
    return a


@dataclass(frozen=True)
class DiscreteMeasure:
    """Weighted atoms in a shared metric context; weights sum to 1.  Equal
    atoms merge into one, which carries their summed weight."""

    atoms: np.ndarray
    weights: np.ndarray

    def __init__(self, atoms, weights=None):
        a = _as_atoms(atoms)
        if len(a) == 0:
            raise TransportError("a measure needs at least one atom")
        if not np.all(np.isfinite(a)):
            raise TransportError("atoms must be finite")
        if weights is None:
            w = np.full(len(a), 1.0 / len(a))
        else:
            w = np.asarray(weights, dtype=float)
        if len(w) != len(a):
            raise TransportError("weights and atoms length mismatch")
        if not np.all(np.isfinite(w)):
            raise TransportError("weights must be finite")
        if np.any(w <= 0):
            raise TransportError("weights must be strictly positive")
        if abs(w.sum() - 1.0) > 1e-6:
            raise TransportError("weights must sum to 1 (got %g)" % w.sum())
        a, inverse = unique_rows(a)
        w = np.bincount(inverse, weights=w, minlength=len(a))
        w = w / w.sum()
        object.__setattr__(self, "atoms", a)
        object.__setattr__(self, "weights", w)

    @property
    def dim(self) -> int:
        return self.atoms.shape[1]

    def __len__(self) -> int:
        return len(self.weights)

    def integrate(self, f: Callable) -> float:
        vals = np.asarray([f(x) for x in self.atoms], dtype=float)
        return float(self.weights @ vals)


def unique_rows(a: np.ndarray):
    """``np.unique(a, axis=0, return_inverse=True)`` for a 2-D array of finite
    numbers, by a stable column sort instead of a sort of structured rows.

    Returns the distinct rows in lexicographic order and, for each row of
    ``a``, the index of its distinct row.
    """
    order = np.lexsort(a.T[::-1])
    rows = a[order]
    first = np.empty(len(rows), dtype=bool)
    first[:1] = True
    np.any(rows[1:] != rows[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(rows), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return rows[first], inverse


def pairwise_distances(mu: DiscreteMeasure, nu: DiscreteMeasure) -> np.ndarray:
    """Euclidean distances between the atoms of ``mu`` and of ``nu``."""
    diff = mu.atoms[:, None, :] - nu.atoms[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=-1))


def wasserstein_exact(p: int, mu: DiscreteMeasure, nu: DiscreteMeasure,
                      dist_matrix: np.ndarray | None = None):
    """W_p between discrete measures via the exact transportation LP.

    The ground metric is ``dist_matrix``, else the Euclidean one.  Returns
    ``(value, plan)`` with an optimal plan, an (n, m) array whose row and
    column sums are the weights of ``mu`` and ``nu``.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    if p not in (1, 2):
        raise TransportError("p must be 1 or 2")
    if abs(mu.weights.sum() - nu.weights.sum()) > 1e-9:
        raise TransportError("unbalanced masses")
    d = dist_matrix if dist_matrix is not None else pairwise_distances(mu, nu)
    if not np.all(np.isfinite(d)):
        raise TransportError("non-finite distances")
    n, m = d.shape
    cost = (d ** p).ravel()
    # Row-sum and column-sum equality constraints (sparse; one of them is
    # redundant but HiGHS copes with the degeneracy).
    var = np.arange(n * m)
    rows = np.concatenate([var // m, n + var % m])
    cols = np.concatenate([var, var])
    a_eq = coo_matrix((np.ones(2 * n * m), (rows, cols)), shape=(n + m, n * m)).tocsr()
    b_eq = np.concatenate([mu.weights, nu.weights])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    if not res.success:
        raise TransportError("transport LP failed: %s" % res.message)
    plan = res.x.reshape(n, m)
    if np.max(np.abs(plan.sum(axis=1) - mu.weights)) > MARGINAL_TOL \
            or np.max(np.abs(plan.sum(axis=0) - nu.weights)) > MARGINAL_TOL:
        raise TransportError("transport plan violates its marginals")
    value = float(max(res.fun, 0.0)) ** (1.0 / p)
    return value, plan


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.union1d(a, b), the sorted distinct values, without the np.unique
    that loads numpy.ma on its first call."""
    u = np.sort(np.concatenate([a, b]))
    first = np.ones(len(u), dtype=bool)
    first[1:] = u[1:] != u[:-1]
    return u[first]


def _quantile_refinement(mu: DiscreteMeasure, nu: DiscreteMeasure):
    """Common refinement of the two quantile functions on (0,1).

    Returns (x, y, w): aligned atom positions under the monotone coupling and
    the shared interval masses.
    """
    if mu.dim != 1 or nu.dim != 1:
        raise TransportError("1-D atoms required")
    xs, xw = mu.atoms[:, 0], mu.weights
    ys, yw = nu.atoms[:, 0], nu.weights
    ox, oy = np.argsort(xs), np.argsort(ys)
    xs, xw = xs[ox], xw[ox]
    ys, yw = ys[oy], yw[oy]
    cx, cy = np.cumsum(xw), np.cumsum(yw)
    cuts = _sorted_union(cx[:-1], cy[:-1])
    edges = np.concatenate([[0.0], cuts, [1.0]])
    w = np.diff(edges)
    mids = 0.5 * (edges[:-1] + edges[1:])
    # cumsum rounding can push a midpoint a hair past the final cumulative
    # weight, so clamp the quantile indices
    ix = np.minimum(np.searchsorted(cx, mids), len(xs) - 1)
    iy = np.minimum(np.searchsorted(cy, mids), len(ys) - 1)
    keep = w > 1e-15
    return xs[ix][keep], ys[iy][keep], w[keep]


def wasserstein_1d(p: int, mu: DiscreteMeasure, nu: DiscreteMeasure) -> float:
    """W_p on the real line by sorted quantile matching."""
    x, y, w = _quantile_refinement(mu, nu)
    return float(np.sum(w * np.abs(x - y) ** p)) ** (1.0 / p)


def wasserstein_grid(mu_cells, mu_weights, nu_cells, nu_weights,
                     edge_costs: Sequence, periodic: Sequence[bool]) -> float:
    """Exact W_1 between two measures on a grid of cells under the sum metric.

    Axis j of the grid is a path graph, or a cycle when ``periodic[j]``;
    ``edge_costs[j][i]`` is the length of the edge from cell i to cell i+1,
    and on a cycle the last entry closes it from the last cell back to cell 0.
    Cells are integer rows of shape (n, k).  W_1 for the graph's shortest-path
    metric, summed over the axes, is the min-cost flow that moves the supply
    mu - nu along the grid edges (Beckmann's form), solved as a sparse LP with
    one balance row per cell and two directed arcs per edge.
    """
    costs = [np.asarray(c, dtype=float) for c in edge_costs]
    sizes = tuple(len(c) + (0 if cyc else 1) for c, cyc in zip(costs, periodic))
    n_cells = int(np.prod(sizes))
    mu_flat = np.ravel_multi_index(np.asarray(mu_cells).T, sizes)
    nu_flat = np.ravel_multi_index(np.asarray(nu_cells).T, sizes)
    supply = (np.bincount(mu_flat, weights=mu_weights, minlength=n_cells)
              - np.bincount(nu_flat, weights=nu_weights, minlength=n_cells))
    grid = np.arange(n_cells).reshape(sizes)
    tails, heads, arc_costs = [], [], []
    for j, (c, cyc) in enumerate(zip(costs, periodic)):
        take = [slice(None)] * len(sizes)
        take[j] = slice(None) if cyc else slice(0, sizes[j] - 1)
        take = tuple(take)
        here = grid[take].ravel()
        there = np.roll(grid, -1, axis=j)[take].ravel()
        shape = [1] * len(sizes)
        shape[j] = len(c)
        cost = np.broadcast_to(c.reshape(shape), grid[take].shape).ravel()
        tails += [here, there]
        heads += [there, here]
        arc_costs += [cost, cost]
    tails, heads = np.concatenate(tails), np.concatenate(heads)
    n_arcs = len(tails)
    if n_arcs == 0:  # a single cell: nothing moves
        flow, value = np.zeros(0), 0.0
    else:
        from scipy.optimize import linprog
        from scipy.sparse import coo_matrix

        arcs = np.arange(n_arcs)
        incidence = coo_matrix(
            (np.concatenate([np.ones(n_arcs), -np.ones(n_arcs)]),
             (np.concatenate([tails, heads]), np.concatenate([arcs, arcs]))),
            shape=(n_cells, n_arcs)).tocsr()
        # HiGHS's default primal feasibility tolerance, 1e-7, lets a flow
        # miss its node balance by more than MARGINAL_TOL
        res = linprog(np.concatenate(arc_costs), A_eq=incidence, b_eq=supply,
                      bounds=(0, None), method="highs",
                      options={"primal_feasibility_tolerance": 1e-10})
        if not res.success:
            raise TransportError("grid flow LP failed: %s" % res.message)
        flow, value = res.x, float(max(res.fun, 0.0))
    balance = np.bincount(tails, weights=flow, minlength=n_cells) \
        - np.bincount(heads, weights=flow, minlength=n_cells)
    if np.max(np.abs(balance - supply)) > MARGINAL_TOL:
        raise TransportError("grid flow violates node balance")
    return value


def kr_dual_bound(mu: DiscreteMeasure, nu: DiscreteMeasure,
                  lipschitz_family: Sequence[tuple]) -> float:
    """Dual lower bound max_f (mu(f) - nu(f)) / L over a declared family.

    Each family member is a pair ``(f, L)`` with L its Lipschitz constant.
    Always <= W_1(mu, nu).
    """
    if len(lipschitz_family) == 0:
        raise TransportError("empty Lipschitz family")
    best = 0.0
    for f, lip in lipschitz_family:
        gap = abs(mu.integrate(f) - nu.integrate(f))
        if lip > 0:
            best = max(best, gap / lip)
    return float(best)


def displacement_interpolation_1d(mu0: DiscreteMeasure, mu1: DiscreteMeasure,
                                  t: float) -> DiscreteMeasure:
    """Point on the W_2 geodesic under the monotone quantile coupling."""
    if not 0.0 <= t <= 1.0:
        raise TransportError("t must lie in [0,1]")
    x, y, w = _quantile_refinement(mu0, mu1)
    return DiscreteMeasure((1.0 - t) * x + t * y, w)


def entropy_1d(mu: DiscreteMeasure, reference_logdensity: Callable = None) -> float:
    """Differential relative entropy of a quantile-discretized 1-D measure.

    Treats the atoms as an equal-level discretization of the quantile function
    Q and uses Ent_Leb = -int_0^1 log Q'(u) du; the reference log-density is
    subtracted atom-wise.  Intended for absolutely continuous measures sampled
    at their quantiles, not for genuinely atomic ones.
    """
    if mu.dim != 1:
        raise TransportError("1-D atoms required")
    order = np.argsort(mu.atoms[:, 0])
    x = mu.atoms[order, 0]
    w = mu.weights[order]
    if len(x) < 5:
        raise TransportError("too few atoms for the quantile entropy estimator")
    u = np.cumsum(w) - 0.5 * w
    dq = np.empty_like(x)
    dq[1:-1] = (x[2:] - x[:-2]) / (u[2:] - u[:-2])
    dq[0] = (x[1] - x[0]) / (u[1] - u[0])
    dq[-1] = (x[-1] - x[-2]) / (u[-1] - u[-2])
    if np.any(dq <= 0):
        raise TransportError("quantile function not strictly increasing")
    ent = -float(np.sum(w * np.log(dq)))
    if reference_logdensity is not None:
        ent -= float(np.sum(w * np.asarray([reference_logdensity(v) for v in x])))
    return ent


def _entropy_with_margin(mu: DiscreteMeasure, logdensity) -> tuple[float, float]:
    full = entropy_1d(mu, logdensity)
    order = np.argsort(mu.atoms[:, 0])
    x, w = mu.atoms[order, 0], mu.weights[order]
    thin = DiscreteMeasure(x[::2], w[::2] / w[::2].sum())
    coarse = entropy_1d(thin, logdensity)
    return full, 2.0 * abs(full - coarse)


def entropy_convexity_check(reference_logdensity, mu0: DiscreteMeasure,
                            mu1: DiscreteMeasure, K: float,
                            t_grid: Sequence[float]) -> dict:
    """Displacement K-convexity of the entropy along the quantile geodesic.

    Checks Ent(mu_t) <= (1-t)Ent(mu_0) + t Ent(mu_1) - (K/2)t(1-t)W_2^2 at
    each grid t, with a discretization-error margin reported alongside.
    """
    w2 = wasserstein_1d(2, mu0, mu1)
    e0, m0 = _entropy_with_margin(mu0, reference_logdensity)
    e1, m1 = _entropy_with_margin(mu1, reference_logdensity)
    rows = []
    for t in t_grid:
        mu_t = displacement_interpolation_1d(mu0, mu1, t)
        et, mt = _entropy_with_margin(mu_t, reference_logdensity)
        rhs = (1 - t) * e0 + t * e1 - 0.5 * K * t * (1 - t) * w2 ** 2
        margin = mt + (1 - t) * m0 + t * m1 + 1e-9
        rows.append({
            "t": float(t),
            "entropy": et,
            "bound": rhs,
            "margin": margin,
            "pass": bool(et <= rhs + margin),
        })
    return {
        "check": "entropy_convexity",
        "K": float(K),
        "w2": w2,
        "rows": rows,
        "pass": all(r["pass"] for r in rows),
    }
