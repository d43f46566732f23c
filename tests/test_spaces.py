import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmlab import (
    Circle,
    EuclideanLogConcave,
    FiniteMms,
    Interval,
    Potential,
    Torus,
    bishop_gromov_check,
    box_domain,
    get_kernel,
    mesh_cone,
    quadratic_potential,
    theta_comparison,
    weighted_measure,
)
from mmlab.spaces import SpaceError, _evaluate, ring_heads, ring_rows

from _oracles import circle_distance_reference, mesh_cone_jacobi, torus_distance_reference


def random_finite(rng, n):
    """Metric space from a random point cloud (triangle inequality free)."""
    pts = rng.normal(size=(n, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    w = rng.random(n) + 0.1
    return FiniteMms(dist=dist, weights=w, base_index=0, coords=pts)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(2, 25))
def test_finite_construction_and_reference(seed, n):
    rng = np.random.default_rng(seed)
    space = random_finite(rng, n)
    _, masses = weighted_measure(space)
    assert abs(masses.sum() - 1.0) <= 1e-9
    assert np.all(space.weights > 0)
    assert np.all(np.diag(space.dist) == 0)


def test_triangle_violation_rejected():
    dist = np.array([[0.0, 1.0, 3.5], [1.0, 0.0, 1.0], [3.5, 1.0, 0.0]])
    with pytest.raises(SpaceError):
        FiniteMms(dist=dist, weights=np.ones(3), base_index=0)


def test_nonpositive_weight_rejected():
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SpaceError):
        FiniteMms(dist=dist, weights=np.array([1.0, 0.0]), base_index=0)


def test_coincident_atoms_rejected():
    # a metric separates points: two distinct atoms may not lie at distance 0
    dist = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    with pytest.raises(SpaceError, match="distance 0"):
        FiniteMms(dist=dist, weights=np.ones(3), base_index=0)
    FiniteMms(dist=np.zeros((1, 1)), weights=np.ones(1), base_index=0)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weight_or_distance_rejected(bad):
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(SpaceError, match="finite"):
        FiniteMms(dist=dist, weights=np.array([1.0, bad]), base_index=0)
    dist[0, 1] = dist[1, 0] = bad
    with pytest.raises(SpaceError, match="finite"):
        FiniteMms(dist=dist, weights=np.ones(2), base_index=0)


@pytest.mark.parametrize("kwargs,message", [
    ({"circumference": np.nan}, "circumference"),
    ({"circumference": np.inf}, "circumference"),
    ({"circumference": -1.0}, "circumference"),
    ({"base": np.nan}, "base"),
    ({"base": np.inf}, "base"),
    ({"base": -np.inf}, "base"),
    ({"n_nodes": 0}, "n_nodes"),
], ids=str)
def test_circle_rejects_bad_inputs(kwargs, message):
    with pytest.raises(SpaceError, match=message):
        Circle(**kwargs)


@pytest.mark.parametrize("kwargs,message", [
    ({"len1": np.nan}, "circumference"),
    ({"len2": np.inf}, "circumference"),
    ({"len2": 0.0}, "circumference"),
    ({"base": (np.nan, 0.0)}, "base"),
    ({"base": (0.0, np.inf)}, "base"),
    ({"n_nodes": (0, 64)}, "n_nodes"),
    ({"n_nodes": (256, 0)}, "n_nodes"),
], ids=str)
def test_torus_rejects_bad_inputs(kwargs, message):
    with pytest.raises(SpaceError, match=message):
        Torus(**kwargs)


@pytest.mark.parametrize("kwargs,message", [
    ({"a": np.nan}, "finite a < b"),
    ({"b": np.inf}, "finite a < b"),
    ({"a": -np.inf}, "finite a < b"),
    ({"a": 1.0}, "finite a < b"),
    ({"base": np.nan}, "base"),
    ({"base": np.inf}, "base"),
    ({"n_nodes": 0}, "n_nodes"),
], ids=str)
def test_interval_rejects_bad_inputs(kwargs, message):
    with pytest.raises(SpaceError, match=message):
        Interval(**kwargs)


@pytest.mark.parametrize("kwargs,message", [
    ({"base": np.nan}, "base"),
    ({"base": np.inf}, "base"),
    ({"base": -np.inf}, "base"),
    ({"grid_radius": 0.0}, "grid_radius"),
    ({"grid_radius": -1.0}, "grid_radius"),
    ({"grid_radius": np.inf}, "grid_radius"),
    ({"grid_radius": np.nan}, "grid_radius"),
    ({"n_nodes": 0}, "n_nodes"),
], ids=str)
def test_line_rejects_bad_inputs(kwargs, message):
    with pytest.raises(SpaceError, match=message):
        EuclideanLogConcave(quadratic_potential(1.0), **kwargs)


def test_line_base_point_is_a_float():
    base = EuclideanLogConcave(quadratic_potential(1.0), base=1).base_point
    assert type(base) is float and base == 1.0


@pytest.mark.parametrize("shapes", [((), ()), ((5,), ()), ((3, 4), (4,)), ((1, 4), (3, 1)),
                                    ((200, 7), (200, 7))], ids=str)
def test_distances_in_place_equal_the_plain_formula(shapes):
    # same ufuncs in the same order, so the same bits; a 0-d input gives a
    # numpy scalar, as before
    rng = np.random.default_rng(len(shapes[0]) + 10 * len(shapes[1]))
    x, y = rng.normal(size=shapes[0]) * 9, rng.normal(size=shapes[1]) * 9
    got, want = Circle(2.5).distance(x, y), circle_distance_reference(x, y, 2.5)
    assert type(got) is type(want) and np.array_equal(got, want)
    torus = Torus(2 * np.pi, 0.7)
    xt, yt = rng.normal(size=shapes[0] + (2,)) * 9, rng.normal(size=shapes[1] + (2,)) * 9
    got, want = torus.distance(xt, yt), torus_distance_reference(xt, yt, torus.len1, torus.len2)
    assert type(got) is type(want) and np.array_equal(got, want)
    assert Circle(2.5).distance(1, [3, 4]).tolist() == [0.5, 0.5]
    # the 1-D spaces with no wrap: |x - y| in the broadcast shape
    for space in (Interval(-3.0, 3.0), EuclideanLogConcave(quadratic_potential(1.0))):
        got, want = space.distance(x, y), np.abs(x - y)
        assert type(got) is type(want) and np.shape(got) == np.broadcast_shapes(*shapes)
        assert np.array_equal(got, want)


def _spy_on_mod(monkeypatch):
    """The sizes of the arrays np.mod is called on, in call order."""
    calls, real = [], np.mod

    def spy(x, *args, **kwargs):
        calls.append(np.size(x))
        return real(x, *args, **kwargs)

    monkeypatch.setattr(np, "mod", spy)
    return calls


def _same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


def _edge_differences(c):
    """Differences inside (-c, c) where the fold is easiest to get wrong."""
    below = np.nextafter(c, 0.0)
    return np.array([0.0, -0.0, -5e-324, 5e-324, -np.spacing(c) / 4, -1e-300, below, -below,
                     0.5 * c, -0.5 * c, 0.25 * c, -0.75 * c])


@pytest.mark.parametrize("c", [2.5, 2 * np.pi, 0.7, 1e-3, 1e6])
def test_in_range_differences_fold_without_np_mod(monkeypatch, c):
    d = _edge_differences(c)
    # -5e-324 + c and -spacing/4 + c round to c; -1e-300 + c does at every c here
    assert np.all(d[[2, 4, 5]] + c == c)
    pairs = np.stack(np.broadcast_arrays(d[:, None], 0.3 * d[None, :]), axis=-1)
    want = circle_distance_reference(d, 0.0, c)
    want_torus = torus_distance_reference(pairs, np.zeros(2), c, 0.3 * c)
    calls = _spy_on_mod(monkeypatch)
    got = Circle(c).distance(d, 0.0)
    assert calls == [] and _same_bits(got, want)
    # +-0.0 give +0.0, not -0.0
    assert got[:2].view(np.int64).tolist() == [0, 0]
    # a 0-d difference gives a numpy scalar, through the same path
    for v, w in zip(d, want):
        got = Circle(c).distance(v, 0.0)
        assert type(got) is np.float64 and _same_bits(got, w)
    # the torus folds each coordinate on its own circumference
    assert _same_bits(Torus(c, 0.3 * c).distance(pairs, np.zeros(2)), want_torus)
    assert calls == []


@pytest.mark.parametrize("extra", [np.nan, np.inf, -np.inf, 1.0, -1.0, 7.3, -2.0],
                         ids=["nan", "inf", "-inf", "c", "-c", "past c", "past -c"])
def test_differences_out_of_range_take_np_mod(monkeypatch, extra):
    # one entry that is NaN, infinite or outside (-c, c) sends the whole
    # array through np.mod; the in-range entries beside it come out the same
    c = 2.5
    d = np.append(_edge_differences(c), extra * c if np.isfinite(extra) else extra)
    pairs = np.stack([d, d[::-1]], axis=-1)
    with np.errstate(invalid="ignore"):  # np.mod(+-inf, c) is NaN, with a warning
        want = circle_distance_reference(d, 0.0, c)
        want_torus = torus_distance_reference(pairs, np.zeros(2), c, c)
        calls = _spy_on_mod(monkeypatch)
        assert _same_bits(Circle(c).distance(d, 0.0), want)
        assert calls == [len(d)]
        got = Circle(c).distance(d[-1], 0.0)
        assert type(got) is np.float64 and _same_bits(got, want[-1])
        assert calls == [len(d), 1]
        assert _same_bits(Torus(c, c).distance(pairs, np.zeros(2)), want_torus)


def test_empty_differences_take_np_mod(monkeypatch):
    calls = _spy_on_mod(monkeypatch)
    got = Circle(2.5).distance(np.empty(0), 0.0)
    assert got.shape == (0,) and calls == [0]
    assert Torus(2.5, 1.0).distance(np.empty((0, 2)), np.zeros(2)).shape == (0,)


@st.composite
def _circumference_and_differences(draw):
    c = draw(st.floats(1e-6, 1e6))
    edges = [0.0, -0.0, c, -c, np.nextafter(c, 0.0), -np.nextafter(c, 0.0), 2 * c, -2 * c]
    values = st.one_of(st.floats(-2 * c, 2 * c, exclude_min=True, exclude_max=True),
                       st.sampled_from(edges))
    return c, np.array(draw(st.lists(values, max_size=40)), dtype=float)


@settings(max_examples=200, deadline=None)
@given(_circumference_and_differences())
def test_fold_equals_np_mod_on_draws_within_two_circumferences(case):
    c, d = case
    assert _same_bits(Circle(c).distance(d, 0.0), circle_distance_reference(d, 0.0, c))
    pairs = np.stack([d, d[::-1]], axis=-1)
    assert _same_bits(Torus(c, 2 * c).distance(pairs, np.zeros(2)),
                      torus_distance_reference(pairs, np.zeros(2), c, 2 * c))


@pytest.mark.parametrize("weight,distance", [("nan", "1"), ("1", "inf")])
def test_load_rejects_non_finite_values(tmp_path, weight, distance):
    path = tmp_path / "space.txt"
    path.write_text("2 0\n1\n%s\n0 %s\n%s 0\n" % (weight, distance, distance))
    with pytest.raises(SpaceError, match="finite"):
        FiniteMms.load(path)


def test_finite_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(2)
    space = random_finite(rng, 9)
    path = tmp_path / "space.txt"
    space.save(path)
    back = FiniteMms.load(path)
    assert back.base_index == space.base_index
    assert np.allclose(back.weights, space.weights, atol=0, rtol=1e-15)
    assert np.allclose(back.dist, space.dist, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(st.floats(0.2, 5.0), st.integers(0, 10 ** 6))
def test_weighted_measure_normalizes(C, seed):
    rng = np.random.default_rng(seed)
    for space in (Circle(2 * np.pi), Interval(0.0, 1.0),
                  Torus(2 * np.pi, np.pi),
                  EuclideanLogConcave(quadratic_potential(1.0)),
                  random_finite(rng, 8)):
        _, masses = weighted_measure(space, C)
        assert abs(masses.sum() - 1.0) <= 1e-9


def test_weighted_measure_gaussian_normalizer():
    # e^{-V} with V = 3x^2/2 times e^{-x^2} integrates to sqrt(2 pi / (3/2 + 1)^-1)...
    space = EuclideanLogConcave(quadratic_potential(3.0))
    pts, masses = weighted_measure(space, 1.0)
    _, w = space.quadrature()
    # density against m should be proportional to e^{-x^2}
    mid = len(pts) // 2
    ratio = masses / w / np.exp(-pts ** 2)
    assert np.allclose(ratio[mid - 50:mid + 50], ratio[mid], rtol=1e-10)


def test_weighted_measure_small_C_rejected():
    space = EuclideanLogConcave(quadratic_potential(0.0), grid_radius=6.0)
    with pytest.raises(SpaceError):
        weighted_measure(space, 1e-6)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 12), st.integers(0, 10 ** 6))
def test_torus_collapse_lipschitz(n, seed):
    # the first-coordinate projection Torus(2 pi, 2 pi / n) -> Circle(2 pi)
    rng = np.random.default_rng(seed)
    torus = Torus(2 * np.pi, 2 * np.pi / n)
    circle = Circle(2 * np.pi)
    xs = rng.random((40, 2)) * [2 * np.pi, 2 * np.pi / n]
    ys = rng.random((40, 2)) * [2 * np.pi, 2 * np.pi / n]
    excess = circle.distance(xs[:, 0], ys[:, 0]) - torus.distance(xs, ys)
    assert np.max(excess) <= 1e-9


def test_torus_pushforward_exact():
    # the first-factor marginal of the product measure is the circle measure
    n = 4
    torus = Torus(2 * np.pi, 2 * np.pi / n, n_nodes=(256, 64))
    circle = Circle(2 * np.pi, n_nodes=256)
    pts, w = torus.quadrature()
    mapped = pts[:, 0]
    cpts, cw = circle.quadrature()
    marg = np.zeros(len(cpts))
    idx = np.searchsorted(cpts, mapped - 1e-9)
    np.add.at(marg, idx, w)
    assert np.max(np.abs(marg - cw)) <= 1e-12


@pytest.mark.parametrize("space", [Circle(3.0), Torus(2 * np.pi, 1.0, n_nodes=(32, 16)),
                                   Interval(2.5, 3.2)], ids=["circle", "torus", "interval"])
def test_compact_models_carry_probability_measures(space):
    _, w = space.quadrature()
    assert space.total_mass() == 1.0
    assert abs(w.sum() - 1.0) <= 1e-12
    # the kernel is a density w.r.t. that measure, so its row integrates to 1
    assert abs(np.sum(w * get_kernel(space).kernel_row(0.2, space.base_point)) - 1.0) <= 1e-9


def test_potential_gradient_check():
    # the gradient against central differences of the value, in 3-D
    rng = np.random.default_rng(0)
    v = quadratic_potential(2.5)
    xs = rng.normal(size=(20, 3))
    h = 1e-5
    steps = h * np.eye(3)
    fd = (v.value(xs[:, None, :] + steps) - v.value(xs[:, None, :] - steps)) / (2 * h)
    assert np.max(np.abs(v.grad(xs) - fd)) <= 1e-5 * max(1.0, np.max(np.abs(v.grad(xs))))


def _counted(f, calls):
    def g(x):
        calls.append(np.shape(x))
        return f(x)
    return g


def test_evaluate_calls_once_on_the_whole_array():
    pts = Torus(n_nodes=(8, 4)).quadrature()[0]
    calls = []
    vals = _evaluate(_counted(lambda x: np.cos(x[..., 0]) * x[..., 1], calls), pts)
    assert calls == [(32, 2)]
    assert np.array_equal(vals, np.cos(pts[:, 0]) * pts[:, 1])
    calls.clear()
    grads = _evaluate(_counted(lambda x: 2.0 * x, calls), pts, (2,))
    assert calls == [(32, 2)] and np.array_equal(grads, 2.0 * pts)
    # an error inside the function is the caller's to see
    with pytest.raises(ZeroDivisionError):
        _evaluate(lambda x: 1 / 0, pts)


def test_evaluate_rejects_the_wrong_number_of_items():
    pts = np.linspace(0.0, 1.0, 5)
    # written for one point: one number for the whole array
    with pytest.raises(SpaceError, match=r"shape \(\) for 5 points; expected \(5,\)"):
        _evaluate(lambda x: float(np.cos(np.atleast_1d(x)[0])), pts)
    with pytest.raises(SpaceError, match=r"shape \(4,\) for 5 points"):
        _evaluate(lambda x: x[:4], pts)
    with pytest.raises(SpaceError, match=r"expected \(5, 1\)"):
        _evaluate(lambda x: x, pts, (1,))
    # on a torus grid the kernel passes all points at once as well
    sk = get_kernel(Torus(n_nodes=(8, 4)))
    calls = []
    assert np.array_equal(sk.evaluate(_counted(lambda x: x[..., 0], calls)), sk.points[:, 0])
    assert calls == [(32, 2)]
    # written for one point (x, y): reads the first two grid points instead
    with pytest.raises(SpaceError, match=r"shape \(2,\) for 32 points"):
        sk.evaluate(lambda x: np.cos(x[0]) * np.sin(x[1]))


def test_quadrature_calls_the_potential_once():
    a = 1.5
    calls = []
    pot = Potential(_counted(lambda x: 0.5 * a * np.sum(np.square(x), axis=-1), calls),
                    lambda x: a * x)
    space = EuclideanLogConcave(pot, n_nodes=64, grid_radius=4.0)
    pts, w = space.quadrature()
    assert calls == [(64, 1)]
    h = 8.0 / 64
    per_node = np.exp(-np.asarray([0.5 * a * float(np.sum(np.square([p]))) for p in pts])) * h
    assert np.array_equal(w, per_node)
    assert np.array_equal(pts, -4.0 + (np.arange(64) + 0.5) * h)
    # a value written for one point gives one number for all nodes
    scalar = Potential(lambda x: 0.5 * a * float(np.sum(np.square(x))), lambda x: a * x)
    with pytest.raises(SpaceError, match=r"shape \(\) for 64 points; expected \(64,\)"):
        EuclideanLogConcave(scalar, n_nodes=64, grid_radius=4.0).quadrature()


@pytest.mark.parametrize("lo, hi", [
    (np.nan, 1.0), (0.0, np.nan), (1.0, 0.0), ((0.0, 0.0), (1.0, -0.5)),
    ((0.0, 0.0), (1.0,)), ([[0.0]], [[1.0]]),
])
def test_box_domain_rejects_bad_bounds(lo, hi):
    with pytest.raises(SpaceError, match="^box bounds must be "):
        box_domain(lo, hi)


def test_mesh_cone_geometry():
    space = mesh_cone(2, 16)
    assert space.n == 1 + 16 * 16
    assert abs(space.total_mass() - 1.0) <= 1e-9
    # graph distance apex -> outermost ring approximates the slant length
    # (substituting u = sqrt(x) removes the apex singularity)
    u = np.linspace(0.0, 1.0, 2000)
    slant = np.trapezoid(2.0 * np.sqrt(u * u + 1.0 / 8.0), u)
    far = space.dist[0, 1 + 15 * 16]
    assert abs(far - slant) / slant <= 0.02
    # the x-projection onto [0, 1] is 1-Lipschitz on every pair of nodes
    x = space.coords[:, 0]
    assert np.all(np.abs(x[:, None] - x[None, :]) <= space.dist + 1e-12)


def _rotate(res):
    """Node map of the cone mesh's rotation by 2 pi / res: the apex stays,
    ring j node k goes to node k + 1 of the same ring."""
    node = np.arange(1, 1 + res * res).reshape(res, res)
    return np.concatenate([[0], np.roll(node, -1, axis=1).ravel()])


def _mesh_dijkstra(space, res):
    """The mesh's graph distances by scipy's Dijkstra, each edge as long as
    the segment between its own two nodes."""
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import shortest_path

    ring = lambda j, k: 1 + j * res + k % res
    edges = [(0, ring(0, k)) for k in range(res)]
    for j in range(res):
        for k in range(res):
            edges.append((ring(j, k), ring(j, k + 1)))
            if j + 1 < res:
                edges += [(ring(j, k), ring(j + 1, k)), (ring(j, k), ring(j + 1, k + 1))]
    a, b = np.array(edges).T
    lengths = np.linalg.norm(space.coords[a] - space.coords[b], axis=1)
    graph = coo_matrix((lengths, (a, b)), shape=(space.n, space.n))
    return shortest_path(graph, method="D", directed=False)


@pytest.mark.parametrize("n", [1, 8, 4096])
@pytest.mark.parametrize("res", [4, 6, 24])
def test_mesh_cone_distances(n, res):
    space = mesh_cone(n, res)
    d = space.dist
    np.testing.assert_allclose(d, _mesh_dijkstra(space, res), rtol=1e-13, atol=0.0)
    rot = _rotate(res)
    assert np.array_equal(d[np.ix_(rot, rot)], d)
    assert np.max(np.abs(d - d.T)) <= 1e-14
    # the apex reaches angle 0 of each ring along meridian 0, edge by edge
    meridian = np.concatenate([[0], 1 + res * np.arange(res)])
    steps = np.linalg.norm(np.diff(space.coords[meridian], axis=0), axis=1)
    assert np.array_equal(d[0, meridian[1:]], np.cumsum(steps))


@pytest.mark.parametrize("n", [1, 2, 8, 4096, 262144])
@pytest.mark.parametrize("res", [4, 5, 6, 24, 48])
def test_mesh_cone_distances_are_the_jacobi_sweeps_bit_for_bit(n, res):
    # the ring-ordered rounds may relax in any order; the bits are those of
    # sweeping every edge at once until nothing changes
    space = mesh_cone(n, res)
    assert np.array_equal(space.dist, mesh_cone_jacobi(space.coords, res))


@pytest.mark.parametrize("res", [4, 5, 24])
def test_ring_rows_turn_each_head_row(res):
    rng = np.random.default_rng(res)
    n = 1 + res * res
    heads = ring_heads(n, res)
    head = rng.random((res + 1, n))
    full = ring_rows(head, res)
    rot = _rotate(res)
    assert np.array_equal(full[np.ix_(rot, rot)], full)
    # the head rows come back, but the apex row's only from each ring's angle 0
    assert np.array_equal(full[heads[1:]], head[1:])
    assert np.array_equal(full[0, heads], head[0, heads])
    # row (j, k) is row (j, 0) turned forward by k atoms within each ring
    j, k = res // 2, res - 1
    rings = head[1 + j, 1:].reshape(res, res)
    assert np.array_equal(full[1 + j * res + k, 1:], np.roll(rings, k, axis=1).ravel())


def test_mesh_cone_declares_its_rings():
    space = mesh_cone(2, 6)
    assert space.turns == 6
    assert FiniteMms(dist=space.dist, weights=space.weights, turns=6).turns == 6
    # the default: rings of one atom, which every space has
    assert FiniteMms(dist=space.dist, weights=space.weights).turns == 1


@pytest.mark.parametrize("change", ["distance", "weight", "divisor", "sign", "zero"])
def test_finite_space_rejects_a_ring_symmetry_it_lacks(change):
    space = mesh_cone(1, 6)
    d, w, turns = space.dist.copy(), space.weights.copy(), 6
    i, j = 1 + 3 * 6, 1 + 3 * 6 + 2  # two atoms of ring 3
    if change == "distance":
        d[i, j] = d[j, i] = np.nextafter(d[i, j], np.inf)
    elif change == "weight":
        w[i] = np.nextafter(w[i], 1.0)
    else:
        turns = {"divisor": 5, "sign": -6, "zero": 0}[change]
    with pytest.raises(SpaceError, match="turn"):
        FiniteMms(dist=d, weights=w, turns=turns)


def test_ring_rows_at_one_turn_is_its_input():
    head = np.random.default_rng(0).random((5, 5))
    assert ring_rows(head, 1) is head


def test_finite_space_checks_symmetry_on_its_head_rows():
    # one head-row distance and all its turned copies moved, their transposes
    # not: the space stays ring-invariant, so the symmetry check must see it
    space = mesh_cone(1, 6)
    d = space.dist.copy()
    for k in range(6):
        i, j = 1 + 1 * 6 + k, 1 + 3 * 6 + (2 + k) % 6   # ring 1 at k, ring 3 at k + 2
        d[i, j] += 1e-6
    assert np.array_equal(ring_rows(d[ring_heads(space.n, 6)], 6), d)
    with pytest.raises(SpaceError, match="dist not symmetric"):
        FiniteMms(dist=d, weights=space.weights, turns=6)


def test_mesh_cone_rejects_tiny_resolution():
    with pytest.raises(SpaceError):
        mesh_cone(1, 3)


def test_theta_comparison_forms():
    t = np.array([0.5, 1.0])
    assert np.allclose(theta_comparison(0.0, t), t)
    assert np.allclose(theta_comparison(1.0, t), np.sin(t))
    assert np.allclose(theta_comparison(-1.0, t), np.sinh(t))


def test_bishop_gromov_flat_models():
    circle = bishop_gromov_check(Circle(2 * np.pi), N=2, K=0.0, D=np.pi,
                                 radii=[0.2, 0.5, 1.0, 2.0])
    assert circle["pass"]
    torus = bishop_gromov_check(Torus(2 * np.pi, np.pi), N=2, K=0.0, D=np.pi,
                                radii=[0.2, 0.4, 0.8])
    assert torus["pass"]
