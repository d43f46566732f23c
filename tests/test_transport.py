from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import shortest_path

from mmlab import (
    DiscreteMeasure,
    entropy_convexity_check,
    kr_dual_bound,
    wasserstein_1d,
    wasserstein_exact,
    wasserstein_grid,
)
import mmlab.transport as transport
from mmlab.transport import (
    TransportError,
    _grid_edges,
    _network_simplex,
    _sorted_union,
    displacement_interpolation_1d,
    unique_rows,
)

from _oracles import random_measure, wasserstein_vertex


def random_pair(rng, max_atoms=4, dim=1):
    a, wa = random_measure(rng, max_atoms, dim)
    b, wb = random_measure(rng, max_atoms, dim)
    return DiscreteMeasure(a, wa), DiscreteMeasure(b, wb)


def test_matches_vertex_enumeration():
    rng = np.random.default_rng(11)
    for _ in range(40):
        dim = int(rng.integers(1, 3))
        mu, nu = random_pair(rng, 4, dim)
        p = int(rng.integers(1, 3))
        val, _ = wasserstein_exact(p, mu, nu)
        ref = wasserstein_vertex(p, mu.atoms, mu.weights, nu.atoms, nu.weights)
        assert abs(val - ref) <= 1e-9


def assert_marginals(plan, mu, nu):
    assert plan.shape == (len(mu), len(nu))
    assert np.max(np.abs(plan.sum(axis=1) - mu.weights)) <= 1e-9
    assert np.max(np.abs(plan.sum(axis=0) - nu.weights)) <= 1e-9


def test_identical_measures_zero():
    mu = DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7])
    val, plan = wasserstein_exact(2, mu, mu)
    assert val <= 1e-9
    assert_marginals(plan, mu, mu)


def test_point_masses_distance():
    mu = DiscreteMeasure([[0.0, 0.0]])
    nu = DiscreteMeasure([[3.0, 4.0]])
    for p in (1, 2):
        val, _ = wasserstein_exact(p, mu, nu)
        assert abs(val - 5.0) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_metric_properties(seed):
    rng = np.random.default_rng(seed)
    mu, nu = random_pair(rng, 4, 1)
    rho = DiscreteMeasure(*random_measure(rng, 4, 1))
    p = int(rng.integers(1, 3))
    ab, _ = wasserstein_exact(p, mu, nu)
    ba, _ = wasserstein_exact(p, nu, mu)
    ac, _ = wasserstein_exact(p, mu, rho)
    cb, _ = wasserstein_exact(p, rho, nu)
    assert abs(ab - ba) <= 1e-10
    assert ab <= ac + cb + 1e-8


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_plan_marginals_match(seed):
    rng = np.random.default_rng(seed)
    mu, nu = random_pair(rng, 5, 2)
    _, plan = wasserstein_exact(1, mu, nu)
    assert_marginals(plan, mu, nu)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_1d_quantile_equals_lp(seed):
    rng = np.random.default_rng(seed)
    mu, nu = random_pair(rng, 6, 1)
    p = int(rng.integers(1, 3))
    lp, _ = wasserstein_exact(p, mu, nu)
    assert abs(lp - wasserstein_1d(p, mu, nu)) <= 1e-9


@pytest.mark.parametrize("n, m", [(4, 8), (3, 6), (5, 5), (1, 7), (1, 1), (4096, 10000)])
def test_quantile_cuts_equal_union1d_of_shared_cumsums(n, m):
    # uniform weights: the cumsums share the cuts at the multiples of 1/gcd,
    # exactly for 1/4 and 1/8 and up to rounding for 1/3 and 1/6
    rng = np.random.default_rng(n * m)
    cx = np.cumsum(DiscreteMeasure(rng.normal(size=n)).weights)[:-1]
    cy = np.cumsum(DiscreteMeasure(rng.normal(size=m)).weights)[:-1]
    want = np.union1d(cx, cy)
    assert np.array_equal(_sorted_union(cx, cy), want)
    assert np.array_equal(_sorted_union(cy, cx), want)
    if n == 4:
        assert len(want) == len(cy)  # every cut of cx is one of cy's
    repeats = rng.integers(0, 5, 40) / 4.0  # repeats within one input too
    assert np.array_equal(_sorted_union(repeats, cx), np.union1d(repeats, cx))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_kr_dual_below_primal(seed):
    rng = np.random.default_rng(seed)
    mu, nu = random_pair(rng, 5, 1)
    primal, _ = wasserstein_exact(1, mu, nu)
    knots = np.linspace(-4, 4, 9)
    family = [(lambda x, k=k: abs(float(np.atleast_1d(x)[0]) - k), 1.0) for k in knots]
    family += [(lambda x: float(np.atleast_1d(x)[0]) * 2.0, 2.0)]
    dual = kr_dual_bound(mu, nu, family)
    assert dual <= primal + 1e-10


def test_kr_dual_point_masses():
    mu = DiscreteMeasure([[0.0]])
    nu = DiscreteMeasure([[1.0]])
    dual = kr_dual_bound(mu, nu, [(lambda x: float(np.atleast_1d(x)[0]), 1.0)])
    primal, _ = wasserstein_exact(1, mu, nu)
    assert abs(dual - 1.0) <= 1e-12
    assert abs(primal - 1.0) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_displacement_geodesic(seed):
    rng = np.random.default_rng(seed)
    mu0, mu1 = random_pair(rng, 6, 1)
    w = wasserstein_1d(2, mu0, mu1)
    grid = [0.0, 0.25, 0.5, 0.75, 1.0]
    for s in grid:
        mus = displacement_interpolation_1d(mu0, mu1, s)
        for t in grid:
            mut = displacement_interpolation_1d(mu0, mu1, t)
            assert abs(wasserstein_1d(2, mus, mut) - abs(t - s) * w) <= 1e-8


def gaussian_quantile_measure(mean, sigma, n=512):
    q = (np.arange(n) + 0.5) / n
    return DiscreteMeasure(mean + sigma * scipy.stats.norm.ppf(q))


def test_entropy_convexity_flat_and_gaussian():
    mu0 = gaussian_quantile_measure(-1.0, 0.8)
    mu1 = gaussian_quantile_measure(1.5, 1.2)
    flat = entropy_convexity_check(None, mu0, mu1, 0.0, [0.25, 0.5, 0.75])
    assert flat["pass"]
    logref = lambda x: -0.5 * x * x - 0.5 * np.log(2 * np.pi)
    curved = entropy_convexity_check(logref, mu0, mu1, 1.0, [0.25, 0.5, 0.75])
    assert curved["pass"]


def test_degenerate_inputs_raise():
    with pytest.raises((TransportError, ValueError)):
        DiscreteMeasure([[0.0]], [0.0])
    with pytest.raises((TransportError, ValueError)):
        DiscreteMeasure([[0.0]], [-1.0])
    mu = DiscreteMeasure([[0.0]])
    with pytest.raises(TransportError):
        displacement_interpolation_1d(mu, mu, 1.5)
    with pytest.raises(TransportError):
        kr_dual_bound(mu, mu, [])
    # what the atom merge cannot order or weigh
    for empty in ([], np.empty((0, 2))):
        with pytest.raises(TransportError, match="at least one atom"):
            DiscreteMeasure(empty)
    for bad in ([np.nan, 1.0], [[0.0, np.inf], [1.0, 1.0]], [-np.inf]):
        with pytest.raises(TransportError, match="atoms must be finite"):
            DiscreteMeasure(bad)
    with pytest.raises(TransportError, match="weights must be finite"):
        DiscreteMeasure([0.0, 1.0], [np.nan, 1.0])


def assert_unique_rows_like_numpy(a):
    rows, inverse = unique_rows(a)
    want_rows, want_inverse = np.unique(a, axis=0, return_inverse=True)
    assert rows.dtype == want_rows.dtype and inverse.dtype == want_inverse.dtype
    assert np.array_equal(rows, want_rows)
    assert np.array_equal(inverse, want_inverse.ravel())


def test_unique_rows_matches_numpy():
    rng = np.random.default_rng(21)
    # torus-lattice states, exact and within 5e-13 of a node
    for jitter in (0.0, 5e-13):
        for dim in (1, 2, 3):
            nodes = rng.integers(0, 256, size=(3000, dim)) * (2 * np.pi / 256)
            assert_unique_rows_like_numpy(nodes + jitter * rng.integers(-1, 2, size=nodes.shape))
    # integer bin cells with 1, 2 and 3 columns
    for dim in (1, 2, 3):
        assert_unique_rows_like_numpy(rng.integers(0, 24, size=(4000, dim)))
    assert_unique_rows_like_numpy(rng.normal(size=(50, 1)))
    assert_unique_rows_like_numpy(np.array([[3.0, -1.0]]))
    assert_unique_rows_like_numpy(np.full((7, 2), 0.25))
    # the first column decides before the second
    rows, inverse = unique_rows(np.array([[1, 0], [0, 9], [1, 0], [0, 2]]))
    assert rows.tolist() == [[0, 2], [0, 9], [1, 0]] and inverse.tolist() == [2, 1, 2, 0]


@settings(max_examples=80, deadline=None)
@given(st.one_of(
    arrays(np.int64, st.tuples(st.integers(1, 30), st.integers(1, 4)),
           elements=st.integers(-3, 3)),
    arrays(np.float64, st.tuples(st.integers(1, 30), st.integers(1, 4)),
           elements=st.one_of(st.sampled_from([-1.5, 0.0, 1e-300, 2.0]),
                              st.floats(-1e6, 1e6, allow_subnormal=False)))))
def test_unique_rows_property(a):
    assert_unique_rows_like_numpy(a)


def grid_metric(edge_costs, periodic):
    """Sum over the axes of each axis graph's shortest-path metric, between
    all cells of the grid in C order (Dijkstra on each axis)."""
    blocks = []
    for c, cyc in zip(edge_costs, periodic):
        size = len(c) + (0 if cyc else 1)
        heads = np.arange(len(c))
        tails = (heads + 1) % size
        graph = coo_matrix((c, (heads, tails)), shape=(size, size)).tocsr()
        blocks.append(shortest_path(graph, directed=False))
    total = blocks[0]
    for block in blocks[1:]:
        total = (total[:, None, :, None] + block[None, :, None, :]).reshape(
            total.shape[0] * block.shape[0], -1)
    return total


def random_grid(rng, k):
    periodic = [bool(rng.integers(0, 2)) for _ in range(k)]
    sizes = [int(rng.integers(3, 7)) if cyc else int(rng.integers(1, 7)) for cyc in periodic]
    costs = [rng.uniform(0.1, 2.0, size=s if cyc else s - 1) for s, cyc in zip(sizes, periodic)]
    return sizes, costs, periodic


def random_cells(rng, sizes, n):
    cells = np.unique(np.stack([rng.integers(0, s, n) for s in sizes], axis=1), axis=0)
    return cells, rng.dirichlet(np.ones(len(cells)))


def dense_grid_w1(sizes, costs, periodic, a, wa, b, wb):
    d = grid_metric(costs, periodic)
    ia, ib = np.ravel_multi_index(a.T, sizes), np.ravel_multi_index(b.T, sizes)
    val, _ = wasserstein_exact(1, DiscreteMeasure(ia.astype(float), wa),
                               DiscreteMeasure(ib.astype(float), wb),
                               dist_matrix=d[np.ix_(ia, ib)])
    return val


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3))
def test_grid_flow_matches_dense_lp(seed, k):
    rng = np.random.default_rng(seed)
    sizes, costs, periodic = random_grid(rng, k)
    a, wa = random_cells(rng, sizes, int(rng.integers(1, 12)))
    b, wb = random_cells(rng, sizes, int(rng.integers(1, 12)))
    flow = wasserstein_grid(a, wa, b, wb, costs, periodic)
    assert abs(flow - dense_grid_w1(sizes, costs, periodic, a, wa, b, wb)) <= 1e-9


def test_grid_flow_identical_measures_zero():
    rng = np.random.default_rng(8)
    for k in (1, 2, 3):
        sizes, costs, periodic = random_grid(rng, k)
        a, wa = random_cells(rng, sizes, 10)
        assert abs(wasserstein_grid(a, wa, a, wa, costs, periodic)) <= 1e-12


def test_grid_flow_disjoint_supports():
    # point masses at the two ends of a path, and of a cycle
    costs = [np.array([1.0, 0.5, 2.0, 0.25])]
    ends = np.array([[0]]), np.array([[4]])
    assert wasserstein_grid(ends[0], [1.0], ends[1], [1.0], costs, [False]) \
        == pytest.approx(3.75, abs=1e-12)
    costs = [np.array([1.0, 0.5, 2.0, 0.25, 0.1])]
    assert wasserstein_grid(ends[0], [1.0], ends[1], [1.0], costs, [True]) \
        == pytest.approx(0.1, abs=1e-12)
    # random measures on the two halves of a 2-D grid
    rng = np.random.default_rng(9)
    for periodic in ([False, False], [True, False], [True, True]):
        sizes = [6, 5]
        costs = [rng.uniform(0.1, 2.0, size=s if cyc else s - 1)
                 for s, cyc in zip(sizes, periodic)]
        a, wa = random_cells(rng, [3, 5], 8)
        b, wb = random_cells(rng, [3, 5], 8)
        b = b + [3, 0]
        flow = wasserstein_grid(a, wa, b, wb, costs, periodic)
        assert flow > 0
        assert abs(flow - dense_grid_w1(sizes, costs, periodic, a, wa, b, wb)) <= 1e-9


def test_grid_flow_rejects_negative_or_non_finite_input():
    cells = np.array([[0], [2]])
    for costs in ([np.array([1.0, -0.5])], [np.array([1.0, np.nan])],
                  [np.array([np.inf, 1.0])]):
        with pytest.raises(TransportError, match="edge lengths"):
            wasserstein_grid(cells, [0.5, 0.5], cells[::-1], [0.5, 0.5], costs, [False])
    with pytest.raises(TransportError, match="weights"):
        wasserstein_grid(cells, [np.nan, 0.5], cells, [0.5, 0.5], [np.ones(2)], [False])


def test_grid_flow_single_cell():
    for costs, periodic in (([np.zeros(0)], [False]), ([np.array([0.7])], [True]),
                            ([np.array([0.7]), np.zeros(0)], [True, False])):
        cell = np.zeros((1, len(costs)), dtype=int)
        assert wasserstein_grid(cell, [1.0], cell, [1.0], costs, periodic) == 0.0
        assert _grid_edges(costs, periodic)[1].size == 0


def test_grid_flow_cycles_of_one_and_two_cells():
    # a one-cell cycle is a self-loop, a two-cell cycle two parallel edges,
    # of which the flow takes the shorter
    two = [np.array([2.0, 0.5])]
    assert wasserstein_grid([[0]], [1.0], [[1]], [1.0], two, [True]) == 0.5
    assert wasserstein_grid([[1]], [1.0], [[0]], [1.0], two, [True]) == 0.5
    rng = np.random.default_rng(3)
    for sizes, periodic in (([1, 5], [True, False]), ([2, 4], [True, True]),
                            ([2, 1, 3], [True, True, False]), ([4, 2], [False, True])):
        costs = [rng.uniform(0.1, 2.0, size=s if cyc else s - 1)
                 for s, cyc in zip(sizes, periodic)]
        for _ in range(5):
            a, wa = random_cells(rng, sizes, 6)
            b, wb = random_cells(rng, sizes, 6)
            flow = wasserstein_grid(a, wa, b, wb, costs, periodic)
            assert abs(flow - dense_grid_w1(sizes, costs, periodic, a, wa, b, wb)) <= 1e-12


def test_grid_flow_zero_supply_moves_nothing():
    rng = np.random.default_rng(12)
    for k in (1, 2, 3):
        sizes, costs, periodic = random_grid(rng, k)
        _, tails, heads, cost = _grid_edges(costs, periodic)
        flow, pi, _ = _network_simplex(np.zeros(int(np.prod(sizes))), tails, heads, cost)
        assert not flow.any()
        assert np.all(np.abs(pi[tails] - pi[heads]) <= cost * (1 + 1e-12))
        a, wa = random_cells(rng, sizes, 10)
        assert wasserstein_grid(a, wa, a, wa, costs, periodic) == 0.0


@pytest.mark.parametrize("sizes, periodic", [((24, 24), (True, True)),
                                             ((24, 25), (False, False))])
def test_grid_flow_integer_counts_end_within_two_pivots_per_cell(sizes, periodic):
    # the bundled path-law grids with unit edges and integer supplies: every
    # flow is an integer, and many pivots move none of it
    n = int(np.prod(sizes))
    _, tails, heads, cost = _grid_edges([np.ones(s if cyc else s - 1)
                                         for s, cyc in zip(sizes, periodic)], periodic)
    rng = np.random.default_rng(2024)
    smooth = np.exp(np.cos(2 * np.pi * np.arange(n) / n) + rng.normal(0, 0.3, n))
    smooth /= smooth.sum()
    for count in (20, 2000, 10000):
        # a rough law against the uniform one, and two samples of one law
        for p, q in ((rng.dirichlet(np.ones(n)), np.full(n, 1.0 / n)), (smooth, smooth)):
            supply = (rng.multinomial(count, p) - rng.multinomial(count, q)).astype(float)
            flow, pi, pivots = _network_simplex(supply, tails, heads, cost)
            assert pivots <= 2 * n
            assert np.array_equal(flow, np.round(flow))
            assert np.all(np.abs(pi[tails] - pi[heads]) <= cost * (1 + 1e-12))
            assert cost @ np.abs(flow) == pytest.approx(supply @ pi, rel=1e-14, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.lists(st.integers(1, 12), min_size=1, max_size=3))
def test_grid_flow_matches_dense_lp_up_to_twelve_cells_an_axis(seed, sizes):
    rng = np.random.default_rng(seed)
    periodic = [bool(rng.integers(0, 2)) for _ in sizes]
    costs = [rng.uniform(0.1, 2.0, size=s if cyc else s - 1) for s, cyc in zip(sizes, periodic)]
    a, wa = random_cells(rng, sizes, int(rng.integers(1, 12)))
    b, wb = random_cells(rng, sizes, int(rng.integers(1, 12)))
    flow = wasserstein_grid(a, wa, b, wb, costs, periodic)
    assert abs(flow - dense_grid_w1(sizes, costs, periodic, a, wa, b, wb)) <= 1e-12


def test_grid_flow_is_the_same_on_a_pool_thread():
    rng = np.random.default_rng(6)
    costs, periodic = [np.full(24, 2 * np.pi / 24)] * 2, [True, True]
    a, wa = random_cells(rng, [24, 24], 300)
    b, wb = random_cells(rng, [24, 24], 300)
    here = wasserstein_grid(a, wa, b, wb, costs, periodic)
    with ThreadPoolExecutor(2) as pool:
        there = list(pool.map(lambda _: wasserstein_grid(a, wa, b, wb, costs, periodic),
                              range(2)))
    assert there == [here, here]


def _two_dimensional_pair():
    rng = np.random.default_rng(9)
    sizes, periodic = [6, 5], [True, False]
    costs = [rng.uniform(0.1, 2.0, size=s if cyc else s - 1) for s, cyc in zip(sizes, periodic)]
    a, wa = random_cells(rng, sizes, 8)
    b, wb = random_cells(rng, sizes, 8)
    return a, wa, b, wb, costs, periodic


def test_grid_flow_certificate_rejects_a_solve_stopped_before_any_pivot(monkeypatch):
    def no_pivots(supply, tails, heads, cost):
        tree = transport._SpanningTree(supply, tails, heads, cost)
        return tree.edge_flows(), np.array(tree.pi), 0

    pair = _two_dimensional_pair()
    assert wasserstein_grid(*pair) > 0
    monkeypatch.setattr(transport, "_network_simplex", no_pivots)
    # the starting tree's flow is feasible, so the node balance holds and
    # the dual side of the certificate is what fails
    with pytest.raises(TransportError, match="dual feasible"):
        wasserstein_grid(*pair)


def test_grid_flow_certificate_rejects_a_primal_dual_gap(monkeypatch):
    real = transport._network_simplex

    def flat_potentials(*args):
        flow, pi, pivots = real(*args)
        return flow, np.zeros_like(pi), pivots

    pair = _two_dimensional_pair()
    monkeypatch.setattr(transport, "_network_simplex", flat_potentials)
    # zero potentials are feasible, but their dual value 0 is below the cost
    with pytest.raises(TransportError, match="disagree"):
        wasserstein_grid(*pair)


def test_discrete_measure_merges_only_equal_atoms():
    # atoms 5e-13 apart stay two atoms; equal atoms sum their weights
    mu = DiscreteMeasure([[0.0, 1.0], [5e-13, 1.0], [0.0, 1.0]], [0.25, 0.25, 0.5])
    assert mu.atoms.tolist() == [[0.0, 1.0], [5e-13, 1.0]]
    assert mu.weights.tolist() == [0.75, 0.25]


def test_discrete_measure_atoms_are_sorted_and_distinct():
    # the quantile and entropy routines read a measure's atoms as they are
    rng = np.random.default_rng(8)
    values = rng.integers(0, 40, 200) * 0.125 - 2.0  # about 40 values, most repeated
    shuffled = DiscreteMeasure(values)
    x = shuffled.atoms[:, 0]
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, np.unique(values))
    pairs = rng.integers(0, 3, (50, 2)).astype(float)  # rows in lexicographic order
    assert np.array_equal(DiscreteMeasure(pairs).atoms, np.unique(pairs, axis=0))
    order = np.sort(values)
    other = DiscreteMeasure(rng.normal(size=150))
    for p in (1, 2):
        assert wasserstein_1d(p, shuffled, other) == wasserstein_1d(p, DiscreteMeasure(order),
                                                                    other)
