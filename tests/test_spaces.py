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
from mmlab.spaces import SpaceError, _evaluate


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
    ref = weighted_measure(space)
    assert abs(ref.masses().sum() - 1.0) <= 1e-9
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


def _circle_distance_reference(x, y, c):
    d = np.abs(np.mod(np.asarray(x, dtype=float) - np.asarray(y, dtype=float), c))
    return np.minimum(d, c - d)


@pytest.mark.parametrize("shapes", [((), ()), ((5,), ()), ((3, 4), (4,)), ((1, 4), (3, 1)),
                                    ((200, 7), (200, 7))], ids=str)
def test_distances_in_place_equal_the_plain_formula(shapes):
    # same ufuncs in the same order, so the same bits; a 0-d input gives a
    # numpy scalar, as before
    rng = np.random.default_rng(len(shapes[0]) + 10 * len(shapes[1]))
    x, y = rng.normal(size=shapes[0]) * 9, rng.normal(size=shapes[1]) * 9
    got, want = Circle(2.5).distance(x, y), _circle_distance_reference(x, y, 2.5)
    assert type(got) is type(want) and np.array_equal(got, want)
    torus = Torus(2 * np.pi, 0.7)
    xt, yt = rng.normal(size=shapes[0] + (2,)) * 9, rng.normal(size=shapes[1] + (2,)) * 9
    d1 = _circle_distance_reference(xt[..., 0], yt[..., 0], torus.len1)
    d2 = _circle_distance_reference(xt[..., 1], yt[..., 1], torus.len2)
    got, want = torus.distance(xt, yt), np.sqrt(d1 * d1 + d2 * d2)
    assert type(got) is type(want) and np.array_equal(got, want)
    assert Circle(2.5).distance(1, [3, 4]).tolist() == [0.5, 0.5]


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
                  EuclideanLogConcave(1, quadratic_potential(1.0)),
                  random_finite(rng, 8)):
        ref = weighted_measure(space, C)
        assert abs(ref.masses().sum() - 1.0) <= 1e-9


def test_weighted_measure_gaussian_normalizer():
    # e^{-V} with V = 3x^2/2 times e^{-x^2} integrates to sqrt(2 pi / (3/2 + 1)^-1)...
    space = EuclideanLogConcave(1, quadratic_potential(3.0))
    ref = weighted_measure(space, 1.0)
    pts = ref.points
    # density against m should be proportional to e^{-x^2}
    mid = len(pts) // 2
    ratio = ref.density / np.exp(-pts ** 2)
    assert np.allclose(ratio[mid - 50:mid + 50], ratio[mid], rtol=1e-10)


def test_weighted_measure_small_C_rejected():
    space = EuclideanLogConcave(1, quadratic_potential(0.0), grid_radius=6.0)
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
    torus = Torus(2 * np.pi, 2 * np.pi / n, n_nodes=(256, 64), normalized=True)
    circle = Circle(2 * np.pi, n_nodes=256, normalized=True)
    pts, w = torus.quadrature()
    mapped = pts[:, 0]
    cpts, cw = circle.quadrature()
    marg = np.zeros(len(cpts))
    idx = np.searchsorted(cpts, mapped - 1e-9)
    np.add.at(marg, idx, w)
    assert np.max(np.abs(marg - cw)) <= 1e-12


def test_potential_gradient_check():
    # the gradient against central differences of the value, in 3-D
    rng = np.random.default_rng(0)
    v = quadratic_potential(2.5)
    xs = rng.normal(size=(20, 3))
    h = 1e-5
    steps = h * np.eye(3)
    fd = (v.value(xs[:, None, :] + steps) - v.value(xs[:, None, :] - steps)) / (2 * h)
    assert np.max(np.abs(v.grad(xs) - fd)) <= 1e-5 * max(1.0, np.max(np.abs(v.grad(xs))))
    assert v.convexity_modulus == 2.5


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
    space = EuclideanLogConcave(1, pot, n_nodes=64, grid_radius=4.0)
    pts, w = space.quadrature()
    assert calls == [(64, 1)]
    h = 8.0 / 64
    per_node = np.exp(-np.asarray([0.5 * a * float(np.sum(np.square([p]))) for p in pts])) * h
    assert np.array_equal(w, per_node)
    assert np.array_equal(pts, -4.0 + (np.arange(64) + 0.5) * h)
    # a value written for one point gives one number for all nodes
    scalar = Potential(lambda x: 0.5 * a * float(np.sum(np.square(x))), lambda x: a * x)
    with pytest.raises(SpaceError, match=r"shape \(\) for 64 points; expected \(64,\)"):
        EuclideanLogConcave(1, scalar, n_nodes=64, grid_radius=4.0).quadrature()


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
