"""Convergence harness across a family of spaces.

Given a family of spaces collapsing onto a declared limit, this module
checks measured-Gromov style convergence of the reference measures, compares
nested finite-dimensional-distribution (fdd) functionals of the heat
semigroups, measures W_1 gaps between sampled path laws, and tracks entropy
tightness — all with explicit fiber-bound and Monte Carlo error budgets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .heat import get_kernel, relative_entropy
from .paths import PathEnsemble, extract_fdd, make_rng
from .spaces import (
    Circle,
    CollapseMap,
    FiniteMms,
    Interval,
    PmmSpace,
    _evaluate,
    weighted_measure,
)
from .transport import (
    DiscreteMeasure,
    unique_rows,
    wasserstein_1d,
    wasserstein_grid,
)

QUAD_TOL = 1e-6  # declared round-off slack of every fdd budget; the torus fdd gaps are <= 1.1e-16
BASELINE_PARTS = 2   # pathlaw_w1's baseline compares two halves of the limit's paths
BASELINE_SPLITS = 4  # the random half/half splits that baseline averages
INITIAL_LAW_BINS = 64  # arcs or atoms of initial_law_w1's binned W_1


class ConvergenceError(ValueError):
    pass


@dataclass(frozen=True)
class LipschitzTestFunction:
    """A test function on the limit space with declared constants."""

    f: Callable
    lip: float
    sup_bound: float
    name: str = "f"

    def __call__(self, x):
        return self.f(x)


@dataclass(frozen=True)
class SpaceFamily:
    """Ordered members (label, space, collapse map) with a common limit."""

    members: tuple
    limit: PmmSpace

    def __init__(self, members, limit):
        members = tuple(members)
        labels = [label for label, _, _ in members]
        if len(set(labels)) != len(labels):
            raise ConvergenceError("member labels must be distinct")
        for _, _, cmap in members:
            if cmap is not None and not np.isfinite(cmap.fiber_diameter_bound):
                raise ConvergenceError("fiber bound must be finite")
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "limit", limit)


def _mapped_points(cmap: Optional[CollapseMap], pts: np.ndarray) -> np.ndarray:
    if cmap is None:
        return pts
    return _evaluate(cmap.map, pts)


def pmg_test(family: SpaceFamily, test_functions: Sequence[LipschitzTestFunction],
             slack: float) -> dict:
    """Convergence of pushed-forward reference measures against the test
    family, plus base-point convergence, member by member.  A member passes
    when every gap and its base-point gap are within the largest Lipschitz
    constant times its fiber bound, plus ``slack``."""
    limit_pts, limit_masses = weighted_measure(family.limit)
    limit_vals = {fi: _evaluate(f, limit_pts) for fi, f in enumerate(test_functions)}
    max_lip = max(f.lip for f in test_functions)
    rows = []
    for label, space, cmap in family.members:
        pts, masses = weighted_measure(space)
        mapped = _mapped_points(cmap, pts)
        base = _mapped_points(cmap, np.asarray([space.base_point]))[0]
        base_gap = np.asarray(family.limit.distance(base, family.limit.base_point)).item()
        fiber = 0.0 if cmap is None else cmap.fiber_diameter_bound
        tol = max_lip * fiber + slack
        for fi, f in enumerate(test_functions):
            val_n = float(np.sum(masses * _evaluate(f, mapped)))
            val_inf = float(np.sum(limit_masses * limit_vals[fi]))
            gap = abs(val_n - val_inf)
            rows.append({"label": label, "f": getattr(f, "name", str(fi)), "gap": gap,
                         "base_gap": base_gap, "pass": bool(gap <= tol and base_gap <= tol)})
    return {"check": "pmg", "rows": rows, "pass": all(r["pass"] for r in rows)}


def _nested_functional(space: PmmSpace, cmap: Optional[CollapseMap], times, function_lists,
                       start) -> list:
    """The nested semigroup functional
    P_{t1}(f1 P_{t2-t1}(f2 ... P_{tk-t_{k-1}} fk)), with t0 = 0, of each list
    f1..fk in ``function_lists``, with each f_i pulled back through ``cmap``,
    evaluated at the point ``start``, or integrated against the probability
    reference when ``start`` is None; it is bounded by the product of the sup
    norms of the f_i.  The lists are the columns of one block, so each time
    step is one ``apply_values`` call for all of them."""
    times = [float(t) for t in times]
    if any(len(times) != len(functions) for functions in function_lists):
        raise ConvergenceError("times and functions must align")
    if any(b <= a for a, b in zip(times, times[1:])) or times[0] < 0:
        raise ConvergenceError("times must be strictly increasing and nonnegative")
    if not function_lists:
        return []
    sk = get_kernel(space)
    pts = _mapped_points(cmap, sk.points)
    # fvals[i][:, j] holds the i-th function of list j on the grid
    fvals = [np.stack([_evaluate(functions[i], pts) for functions in function_lists], axis=1)
             for i in range(len(times))]
    vals = fvals[-1]
    for i in range(len(times) - 1, 0, -1):
        vals = fvals[i - 1] * sk.apply_values(times[i] - times[i - 1], vals)
    t1 = times[0]
    if start is None:
        _, masses = weighted_measure(space)
        vals = sk.apply_values(t1, vals)
        return [float(np.sum(masses * v)) for v in vals.T]
    if t1 == 0:
        # evaluate at the grid point nearest the start; atoms are separated,
        # so a finite start is its own nearest atom
        d = np.asarray(space.distance(sk.points, start))
        return [float(v) for v in vals[int(np.argmin(d))]]
    weighted_row = sk.weights * sk.kernel_row(t1, start)
    return [float(np.sum(weighted_row * v)) for v in vals.T]


def mcshane_extend(domain_points, values, H: float, metric) -> Callable:
    """Extend an H-Lipschitz function to the whole space by the clamped
    sup-convolution  ((sup_a f(a) - H d(a, x)) /\\ sup f) \\/ inf f."""
    pts = list(domain_points)
    vals = np.asarray(values, dtype=float)
    if len(pts) != len(vals) or len(pts) == 0:
        raise ConvergenceError("domain points and values must align and be nonempty")
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = float(np.asarray(metric(pts[i], pts[j])))
            if abs(vals[i] - vals[j]) > H * d + 1e-9:
                raise ConvergenceError("input is not H-Lipschitz on the domain")
    lo, hi = float(np.min(vals)), float(np.max(vals))
    tail = np.shape(pts[0])

    def one(x):
        ds = np.asarray([float(np.asarray(metric(x, a))) for a in pts])
        return float(min(max(np.max(vals - H * ds), lo), hi))

    def extension(x):
        # the metric takes one pair of points, so a batch goes point by point
        x = np.asarray(x)
        if x.shape == tail:
            return one(x)
        lead = x.shape[:x.ndim - len(tail)]
        return np.asarray([one(p) for p in x.reshape((-1,) + tail)]).reshape(lead)

    return extension


def fdd_convergence_report(family: SpaceFamily, times: Sequence[float],
                           functions: Sequence[LipschitzTestFunction],
                           mode: str = "point-start",
                           extra_budgets: Optional[dict] = None,
                           map: Callable = map) -> dict:
    """Per-member gaps |value_n - value_limit| of the nested fdd functional,
    with the test functions pulled back through the collapse maps and a
    fiber-bound error budget (sum of Lip_i x fiber, plus quadrature slack).

    ``extra_budgets`` maps member labels to additional declared tolerance,
    for families whose semigroups differ beyond the collapse geometry.
    The limit's and each member's functionals are evaluated through ``map``,
    which must give its results in order: a pool's ``map`` spreads them over
    its threads and the rows are the same as with the builtin.
    """
    if mode not in ("point-start", "weighted-start"):
        raise ConvergenceError("mode must be point-start or weighted-start")
    k = len(times)
    lists = [[f] * k for f in functions]

    def values_on(space, cmap):
        start = space.base_point if mode == "point-start" else None
        return _nested_functional(space, cmap, times, lists, start)

    spaces = [(family.limit, None)] + [(space, cmap) for _, space, cmap in family.members]
    vals_limit, *vals_members = map(lambda pair: values_on(*pair), spaces)
    rows = []
    for fi, f in enumerate(functions):
        val_limit = vals_limit[fi]
        for (label, _, cmap), vals in zip(family.members, vals_members):
            val_n = vals[fi]
            fiber = 0.0 if cmap is None else cmap.fiber_diameter_bound
            budget = k * f.lip * fiber + QUAD_TOL
            if extra_budgets is not None:
                budget += float(extra_budgets.get(label, 0.0))
            gap = abs(val_n - val_limit)
            rows.append({"label": label, "f": f.name, "k": k,
                         "times": [float(t) for t in times], "mode": mode,
                         "value": val_n, "value_limit": val_limit,
                         "gap": gap, "budget": budget,
                         "gap_plus_budget": gap + budget,
                         "pass": bool(gap <= budget)})
    return {"check": "fdd_convergence", "rows": rows,
            "pass": all(r["pass"] for r in rows)}


def _bin_edges(limit: PmmSpace, pooled: Optional[np.ndarray], bins: int):
    """Bins of one coordinate: (lo, width, count, period); period is the
    circumference of a periodic coordinate and None otherwise.  Circle bins
    start half a grid node below 0, so for ``bins`` up to ``n_nodes`` every
    grid node lies well inside a bin and each bin holds whole nodes.

    The limit's metric between bin centers is the path metric through the
    bins in order, or on a circle the cycle metric; a finite limit whose
    atoms do not form such a chain, in index order, raises ConvergenceError."""
    if isinstance(limit, Circle):
        c = limit.circumference
        return -c / (2 * limit.n_nodes), c / bins, bins, c
    if isinstance(limit, Interval):
        return limit.a, limit.length / bins, bins, None
    if isinstance(limit, FiniteMms):
        # states are atom indices: unit bins snap to the indices themselves
        pos = np.concatenate([[0.0], np.cumsum(np.diagonal(limit.dist, 1))])
        if not np.allclose(np.abs(pos[:, None] - pos[None, :]), limit.dist,
                           rtol=1e-12, atol=0.0):
            raise ConvergenceError("the finite limit's atoms must form a chain in index order")
        return -0.5, 1.0, limit.n, None
    lo = float(np.min(pooled)) - 1e-9
    hi = float(np.max(pooled)) + 1e-9
    return lo, (hi - lo) / bins, bins, None


def pathlaw_w1(members: Sequence, ensembles: dict, ensemble_limit: PathEnsemble,
               times: Sequence[float], bins: int = 24, seed: int = 0,
               map: Callable = map) -> dict:
    """W_1 between each member's mapped empirical fdd and the limit's, with an
    error budget, one row per member of ``members`` (label, space, collapse
    map); ``ensembles`` maps each label to the member's paths.

    The path rows are snapped onto one set of per-coordinate bins, taken
    from the limit and every member pooled (bin diameter reported in the
    budget, which is 0 on a finite limit, whose bins are its atoms), each
    row with weight one, and W_1 is solved exactly on the bins as a min-cost
    flow on the bin grid, by a network simplex (see ``_binned_w1``).  The
    self-distance baseline and its spread are the mean and standard
    deviation of the binned W_1 between the two halves of
    ``BASELINE_SPLITS`` random half/half splits of the limit's paths.

    Every binned pair is built first, the splits and then each member
    against the limit, and the solves go through ``map``, which must give
    its results in order: a pool's ``map`` spreads them over its threads
    and the rows are the same as with the builtin.
    """
    for label, _, _ in members:
        grid = ensembles[label].times
        if len(grid) != len(ensemble_limit.times) or \
                np.max(np.abs(grid - ensemble_limit.times)) > 1e-12:
            raise ConvergenceError("mismatched time grids")
    limit = ensemble_limit.space
    k = len(times)
    mus = [extract_fdd(ensembles[label], times, cmap) for label, _, cmap in members]
    # the limit's law, and its splits below, from the same rows
    states = extract_fdd(ensemble_limit, times)
    pooled = np.concatenate([states] + mus, axis=0)
    specs = [_bin_edges(limit, pooled[:, j], bins) for j in range(k)]

    def binned(law):
        return _weighted_rebin(law, np.ones(len(law)), specs)

    rng = make_rng(seed, 7)
    half = ensemble_limit.count // BASELINE_PARTS
    pairs = []
    for _ in range(BASELINE_SPLITS):
        perm = rng.permutation(ensemble_limit.count)
        pairs.append((binned(states[perm[:half]]), binned(states[perm[half:2 * half]])))
    nu_binned = binned(states)
    pairs += [(binned(mu), nu_binned) for mu in mus]
    values = list(map(lambda pair: _binned_w1(limit, *pair, specs), pairs))
    split_vals = values[:BASELINE_SPLITS]
    baseline = float(np.mean(split_vals))
    se = float(np.std(split_vals)) + 1e-12
    # a finite limit's bins are its atoms, so binning moves no mass there
    bin_budget = 0.0 if isinstance(limit, FiniteMms) else float(sum(s[1] for s in specs))
    rows = []
    for (label, _, cmap), value in zip(members, values[BASELINE_SPLITS:]):
        fiber = 0.0 if cmap is None else cmap.fiber_diameter_bound
        bound = baseline + k * fiber + 3 * se
        rows.append({"label": label, "w1": value, "baseline": baseline, "se": se,
                     "fiber_budget": k * fiber, "bin_budget": bin_budget,
                     "bound": bound, "pass": bool(value <= bound)})
    return {"check": "pathlaw_w1", "rows": rows, "pass": all(r["pass"] for r in rows)}


def _weighted_rebin(atoms: np.ndarray, weights: np.ndarray, specs):
    """Snap atoms to per-coordinate bins and merge their weights.

    Returns the occupied integer cells (unique rows, lexicographic) and their
    normalized weights.
    """
    cells = np.empty(atoms.shape, dtype=int)
    for j, (lo, width, count, period) in enumerate(specs):
        idx = np.floor((atoms[:, j] - lo) / width).astype(int)
        # a periodic coordinate wraps by its bin index; a closed coordinate's
        # right end (x == b on an Interval) joins the last bin
        cells[:, j] = np.mod(idx, count) if period is not None else np.minimum(idx, count - 1)
    uniq, inverse = unique_rows(cells)
    w = np.bincount(inverse, weights=weights, minlength=len(uniq))
    return uniq, w / w.sum()


def _axis_graph(limit: PmmSpace, spec, first: int, last: int):
    """Edge lengths of the path through bins first..last of one coordinate,
    closed into a cycle on a periodic coordinate, and whether it is closed.
    Each edge is the limit's distance between neighbouring bin centers."""
    lo, width, _, period = spec
    centers = lo + (np.arange(first, last + 1) + 0.5) * width
    edges = limit.distance(centers[:-1], centers[1:])
    # closing a cycle through one or two bins adds no route
    cyclic = period is not None and len(centers) > 2
    if cyclic:
        # the closing edge may jump over empty bins: their supply is zero
        edges = np.append(edges, limit.distance(centers[-1], centers[0]))
    return edges, cyclic


def _binned_w1(limit: PmmSpace, mu, nu, specs) -> float:
    """W_1 under the sum metric between binned laws ``(cells, weights)``.

    On every coordinate the limit's metric between bins is a path metric,
    or a cycle metric on a circle (``_bin_edges``), so W_1 is the min-cost
    flow on the grid of bins from the first to the last occupied one on each
    coordinate, solved by ``wasserstein_grid`` with numpy alone.
    """
    (a, wa), (b, wb) = mu, nu
    first = np.minimum(a.min(axis=0), b.min(axis=0))
    last = np.maximum(a.max(axis=0), b.max(axis=0))
    edges, cyclic = zip(*(_axis_graph(limit, spec, f, l)
                          for spec, f, l in zip(specs, first, last)))
    return wasserstein_grid(a - first, wa, b - first, wb, edges, cyclic)


def entropy_tightness(family: SpaceFamily, eps: float) -> dict:
    """Relative entropy of the time-eps kernel measure started at the base
    point, w.r.t. each member's probability reference."""
    if eps <= 0:
        raise ConvergenceError("eps must be positive")

    def one(label, space):
        sk = get_kernel(space)
        _, masses = weighted_measure(space)
        # a steep potential's far nodes underflow to mass 0, as in
        # ``_probability``; the kernel's mass there is negligible too
        keep = masses > 0
        mu = (sk.kernel_row(eps, space.base_point) * sk.weights)[keep]
        mu = mu / mu.sum()
        ent = relative_entropy(mu, masses[keep] / masses[keep].sum())
        return {"label": label, "entropy": float(ent)}

    rows = [one(label, space) for label, space, _ in family.members]
    rows.append(one("limit", family.limit))
    ents = [r["entropy"] for r in rows]
    finite = all(np.isfinite(e) for e in ents)
    return {"check": "entropy_tightness", "eps": float(eps), "rows": rows,
            "sup": float(np.max(ents)), "pass": bool(finite)}


def _probability(points, masses: np.ndarray):
    """The quadrature nodes of positive mass, as one column, and their
    normalized masses: a steep potential's far nodes underflow to mass 0 and
    move no W_1."""
    keep = masses > 0
    return np.asarray(points, dtype=float)[keep].reshape(-1, 1), masses[keep] / masses.sum()


def initial_law_w1(family: SpaceFamily) -> dict:
    """W_1 between each mapped probability reference and the limit's: on a
    circle or a finite limit, binned W_1 on ``INITIAL_LAW_BINS`` arcs or on
    the atoms, with the nodes binned as they are; on the line, the quantile
    formula between ``DiscreteMeasure``s."""
    limit = family.limit
    lim_law = _probability(*weighted_measure(limit))
    if isinstance(limit, (Circle, FiniteMms)):
        spec = [_bin_edges(limit, None, INITIAL_LAW_BINS)]
        lim_binned = _weighted_rebin(*lim_law, spec)

        def w1_to_limit(pts, masses):
            return _binned_w1(limit, _weighted_rebin(pts, masses, spec), lim_binned, spec)
    else:
        lim_measure = DiscreteMeasure(*lim_law)

        def w1_to_limit(pts, masses):
            return wasserstein_1d(1, DiscreteMeasure(pts, masses), lim_measure)
    rows = []
    for label, space, cmap in family.members:
        pts, masses = weighted_measure(space)
        law = _probability(_mapped_points(cmap, pts), masses)
        fiber = 0.0 if cmap is None else cmap.fiber_diameter_bound
        rows.append({"label": label, "w1": float(w1_to_limit(*law)), "fiber": fiber})
    return {"check": "initial_law_w1", "rows": rows}
