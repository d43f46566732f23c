"""Exact optimal transport between discrete measures.

Small-scale, exactness-first: W_1 between measures on a grid of cells, under
a sum of 1-D path or cycle metrics, is the min-cost flow on the grid graph
(O(cells) edges), solved exactly by a network simplex in numpy and Python
that certifies its own optimality; the lab's binned W_1 is always such a
flow.  W_p between measures under any finite ground metric is the dense
transportation LP (HiGHS, imported only there), kept as a library function
and as the oracle the grid flow is tested against.  1-D instances also
have the quantile formula, and dual lower bounds come from finite families
of Lipschitz functions.  No entropic regularization anywhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

MARGINAL_TOL = 1e-9
# wasserstein_grid's optimality certificate: dual feasibility on every edge
# and the primal-dual gap, relative to the scale of the potentials
CERTIFICATE_TOL = 1e-9
# the network simplex's candidate list, and the fraction of the longest edge
# below which a negative reduced cost is round-off
PRICING_CANDIDATES = 50
PRICING_TOL = 1e-11


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
    atoms merge into one, which carries their summed weight, so the atoms are
    distinct and in lexicographic order (``unique_rows``): a 1-D measure's
    atoms strictly increase."""

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
    xs, xw = mu.atoms[:, 0], mu.weights  # sorted, as every measure's atoms are
    ys, yw = nu.atoms[:, 0], nu.weights
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
    metric, summed over the axes, is the uncapacitated min-cost flow that
    moves the supply mu - nu along the grid edges (Beckmann's form), solved
    exactly by ``_network_simplex``.  The solution certifies itself, or
    TransportError is raised: the flow meets every node balance within
    MARGINAL_TOL, and within CERTIFICATE_TOL (relative to the potentials'
    scale) the potentials change by at most the edge length along every edge
    and the flow's cost equals the potentials' dual value.
    """
    sizes, tails, heads, cost = _grid_edges(edge_costs, periodic)
    if not np.all(np.isfinite(cost) & (cost >= 0)):
        raise TransportError("edge lengths must be finite and nonnegative")
    n_cells = int(np.prod(sizes))
    mu_flat = np.ravel_multi_index(np.asarray(mu_cells).T, sizes)
    nu_flat = np.ravel_multi_index(np.asarray(nu_cells).T, sizes)
    supply = (np.bincount(mu_flat, weights=mu_weights, minlength=n_cells)
              - np.bincount(nu_flat, weights=nu_weights, minlength=n_cells))
    if not np.all(np.isfinite(supply)):
        raise TransportError("weights must be finite")
    flow, pi, _ = _network_simplex(supply, tails, heads, cost)
    balance = np.bincount(tails, weights=flow, minlength=n_cells) \
        - np.bincount(heads, weights=flow, minlength=n_cells)
    if np.max(np.abs(balance - supply)) > MARGINAL_TOL:
        raise TransportError("grid flow violates node balance")
    value = float(cost @ np.abs(flow))
    tol = CERTIFICATE_TOL * (1.0 + float(np.max(np.abs(pi))))
    if np.max(np.abs(pi[tails] - pi[heads]) - cost, initial=0.0) > tol:
        raise TransportError("grid flow potentials are not dual feasible")
    if abs(value - float(supply @ pi)) > tol * max(1.0, float(np.sum(np.abs(supply)))):
        raise TransportError("grid flow cost and its dual value disagree")
    return value


def _grid_edges(edge_costs: Sequence, periodic: Sequence[bool]):
    """The grid of ``wasserstein_grid`` as a graph: its sizes, and the
    tails, heads and lengths of its edges between cells numbered in C order.
    The cycle through a single cell closes on that cell and is left out."""
    costs = [np.asarray(c, dtype=float) for c in edge_costs]
    sizes = tuple(len(c) + (0 if cyc else 1) for c, cyc in zip(costs, periodic))
    grid = np.arange(int(np.prod(sizes))).reshape(sizes)
    tails, heads, cost = [], [], []
    for j, (c, cyc) in enumerate(zip(costs, periodic)):
        take = [slice(None)] * len(sizes)
        take[j] = slice(None) if cyc else slice(0, sizes[j] - 1)
        take = tuple(take)
        shape = [1] * len(sizes)
        shape[j] = len(c)
        tails.append(grid[take].ravel())
        heads.append(np.roll(grid, -1, axis=j)[take].ravel())
        cost.append(np.broadcast_to(c.reshape(shape), grid[take].shape).ravel())
    tails, heads, cost = np.concatenate(tails), np.concatenate(heads), np.concatenate(cost)
    keep = tails != heads
    return sizes, tails[keep], heads[keep], cost[keep]


class _SpanningTree:
    """A strongly feasible spanning-tree basis of the uncapacitated min-cost
    flow on a connected undirected graph, whose edges carry flow either way
    at their cost per unit (Ahuja, Magnanti & Orlin, *Network Flows*, 1993,
    ch. 11).

    The tree hangs from node 0.  Every other node v holds the tree edge to
    its parent: ``pred[v]``, the edge; ``up[v]``, whether the basic arc
    points to the parent; ``flow[v]`` >= 0, the flow on that arc; and
    ``step[v]``, v's potential minus its parent's, which prices that arc at
    reduced cost zero.  Every arc with zero flow points to the root, which
    makes the tree strongly feasible.
    """

    def __init__(self, supply, tails, heads, cost):
        n = len(supply)
        self.tails, self.heads, self.cost = tails, heads, cost
        # the far end and the edge of each edge end, grouped by node
        ends = np.concatenate([tails, heads])
        by_end = np.argsort(ends, kind="stable")
        other = np.concatenate([heads, tails])[by_end].tolist()
        edge = (by_end % max(len(tails), 1)).tolist()
        start = np.searchsorted(ends[by_end], np.arange(n + 1)).tolist()
        parent, pred = [-1] * n, [-1] * n
        seen, order = [True] + [False] * (n - 1), [0]
        for v in order:  # breadth first: the list grows while it is read
            for s in range(start[v], start[v + 1]):
                w = other[s]
                if not seen[w]:
                    seen[w] = True
                    parent[w], pred[w] = v, edge[s]
                    order.append(w)
        if len(order) < n:
            raise TransportError("the flow graph is not connected")
        # a tree edge carries the net supply of the subtree below it, and
        # a subtree with none sends zero flow towards the root
        below = supply.tolist()
        for v in reversed(order[1:]):
            below[parent[v]] += below[v]
        cost_list = cost.tolist()
        up = [b >= 0.0 for b in below]
        flow = [abs(b) for b in below]
        flow[0] = 0.0
        step, pi, depth = [0.0] * n, [0.0] * n, [0] * n
        children = [[] for _ in range(n)]
        for v in order[1:]:
            p = parent[v]
            step[v] = cost_list[pred[v]] if up[v] else -cost_list[pred[v]]
            pi[v] = pi[p] + step[v]
            depth[v] = depth[p] + 1
            children[p].append(v)
        self.parent, self.pred, self.up, self.flow, self.step = parent, pred, up, flow, step
        self.pi, self.depth, self.children = pi, depth, children

    def solve(self) -> int:
        """Pivot to an optimal tree and return the number of pivots.

        Pricing keeps a candidate list: one numpy pass over every edge finds
        the ``PRICING_CANDIDATES`` arcs of most negative reduced cost, and
        each is priced again from the current potentials before it enters.
        The leaving arc is the last blocking arc met going round the cycle
        from its apex, which keeps the tree strongly feasible, so the method
        cannot cycle.
        """
        tails, heads, cost = self.tails, self.heads, self.cost
        tail_list, head_list, cost_list = tails.tolist(), heads.tolist(), cost.tolist()
        parent, pred, up, flow, step = self.parent, self.pred, self.up, self.flow, self.step
        pi, depth, children = self.pi, self.depth, self.children
        # a reduced cost within this of zero is round-off in the potentials
        tol = PRICING_TOL * float(np.max(cost, initial=0.0))
        inf = float("inf")
        pivots = 0
        while True:
            p = np.array(pi)
            gain = np.abs(p[tails] - p[heads]) - cost
            cand = np.flatnonzero(gain > tol)
            if len(cand) == 0:
                return pivots
            if len(cand) > PRICING_CANDIDATES:
                cand = cand[np.argpartition(gain[cand], -PRICING_CANDIDATES)
                            [-PRICING_CANDIDATES:]]
            # a candidate that has fallen below the list's last place since
            # the pass waits for the next pass
            floor = float(np.min(gain[cand]))
            for e in cand[np.argsort(-gain[cand], kind="stable")].tolist():
                u, v, c = tail_list[e], head_list[e], cost_list[e]
                d = pi[u] - pi[v]
                if abs(d) - c < floor:
                    continue
                if d < 0.0:
                    u, v = v, u  # the arc u -> v enters
                pivots += 1
                # Walk up from u and from v to their apex.  The cycle runs
                # apex -> u -> v -> apex, and an arc against it blocks.  Of
                # the blocking arcs of least flow the last one met from the
                # apex leaves: on the way up from v the one nearest the apex,
                # else on the way down to u the one nearest u.
                a, b = u, v
                delta_u = delta_v = inf
                leave_u = leave_v = -1
                while a != b:
                    da, db = depth[a], depth[b]
                    if da >= db:
                        if up[a] and flow[a] < delta_u:
                            delta_u, leave_u = flow[a], a
                        a = parent[a]
                    if db >= da:
                        if not up[b] and flow[b] <= delta_v:
                            delta_v, leave_v = flow[b], b
                        b = parent[b]
                # with no negative edge the cycle has a blocking arc, as
                # its cost, the entering arc's reduced cost, is negative
                from_v = leave_v >= 0 and delta_v <= delta_u
                delta, leave = (delta_v, leave_v) if from_v else (delta_u, leave_u)
                if delta > 0.0:
                    w = u
                    while w != a:
                        flow[w] += -delta if up[w] else delta
                        w = parent[w]
                    w = v
                    while w != a:
                        flow[w] += delta if up[w] else -delta
                        w = parent[w]
                # cut the leaving arc and hang its side of the tree from the
                # entering arc, reversing the tree path between the two
                if from_v:
                    x, new_parent, new_up, new_step = v, u, False, -c
                else:
                    x, new_parent, new_up, new_step = u, v, True, c
                new_pred, new_flow, w = e, delta, x
                while True:
                    old_parent, old_pred, old_up, old_flow, old_step = \
                        parent[w], pred[w], up[w], flow[w], step[w]
                    children[old_parent].remove(w)
                    children[new_parent].append(w)
                    parent[w], pred[w], up[w], flow[w], step[w] = \
                        new_parent, new_pred, new_up, new_flow, new_step
                    if w == leave:
                        break
                    new_parent, new_pred, new_up, new_flow, new_step = \
                        w, old_pred, not old_up, old_flow, -old_step
                    w = old_parent
                # only the potentials and depths of the moved side change
                stack = [x]
                while stack:
                    w = stack.pop()
                    q = parent[w]
                    pi[w] = pi[q] + step[w]
                    depth[w] = depth[q] + 1
                    stack += children[w]

    def edge_flows(self) -> np.ndarray:
        """The flow on every edge, positive from its tail to its head."""
        nodes = np.arange(1, len(self.pi))
        pred = np.array(self.pred[1:], dtype=np.intp)
        along = np.array(self.up[1:], dtype=bool) == (self.tails[pred] == nodes)
        x = np.zeros(len(self.tails))
        x[pred] = np.where(along, 1.0, -1.0) * np.array(self.flow[1:])
        return x


def _network_simplex(supply, tails, heads, cost):
    """Min-cost flow meeting ``supply`` (out minus in, per node) on a
    connected undirected graph with edges ``tails[i] -- heads[i]`` of
    ``cost[i]`` >= 0 per unit either way.

    Returns the flow on every edge (positive from tail to head), node
    potentials with pi[tail] - pi[head] = cost on every edge that carries
    flow from tail to head, and the number of pivots.
    """
    tree = _SpanningTree(supply, tails, heads, cost)
    pivots = tree.solve()
    return tree.edge_flows(), np.array(tree.pi), pivots


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
    x, w = mu.atoms[:, 0], mu.weights
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
    x, w = mu.atoms[:, 0], mu.weights
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
