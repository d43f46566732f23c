import gc
import sys
import threading
import time
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmlab import (
    Circle,
    EuclideanLogConcave,
    FiniteMms,
    Interval,
    Torus,
    entropy_identity_check,
    feller_check,
    get_kernel,
    graph_generator,
    mesh_cone,
    mixing_bound_check,
    on_diagonal,
    quadratic_potential,
    relative_entropy,
    semigroup_apply,
    set_generator,
    spectral_gap,
    weighted_measure,
)
import mmlab.heat as heat
from mmlab.cli import _interval_chain
from mmlab.heat import HeatError
from mmlab.spaces import ring_heads, ring_rows

from _oracles import (circle_kernel_series, finite_transition_eigh, graph_generator_dense,
                      interval_cdf_images, interval_kernel_series, ou_mean_var)

EXAMPLE_FINITE = Path(__file__).resolve().parent.parent / "scripts" / "example_finite.txt"


def random_finite(rng, n):
    pts = rng.normal(size=(n, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    w = rng.random(n) + 0.1
    return FiniteMms(dist=dist, weights=w, base_index=0, coords=pts)


ANALYTIC = [Circle(2 * np.pi), Interval(0.0, 1.0), Torus(2 * np.pi, np.pi / 2)]


@pytest.mark.parametrize("t", [0.05, 0.3, 1.0])
def test_symmetry_analytic(t):
    rng = np.random.default_rng(0)
    for space in ANALYTIC:
        sk = get_kernel(space)
        pts = sk.points
        for _ in range(10):
            x = pts[rng.integers(len(pts))]
            y = pts[rng.integers(len(pts))]
            assert abs(sk.kernel_value(t, x, y) - sk.kernel_value(t, y, x)) <= 1e-10


@pytest.mark.parametrize("s,t", [(0.1, 0.2), (0.3, 0.5)])
def test_chapman_kolmogorov_quadrature(s, t):
    for space in ANALYTIC:
        sk = get_kernel(space)
        w = sk.weights
        x = space.base_point
        row_s = sk.kernel_row(s, x)
        composed = sk.apply_values(t, row_s)
        direct = sk.kernel_row(s + t, x)
        assert np.max(np.abs(composed - direct)) <= 1e-8


def test_chapman_kolmogorov_matrix():
    rng = np.random.default_rng(1)
    space = random_finite(rng, 12)
    sk = get_kernel(space)
    p1 = sk.transition_matrix(0.3)
    p2 = sk.transition_matrix(0.7)
    p3 = sk.transition_matrix(1.0)
    assert np.max(np.abs(p1 @ p2 - p3)) <= 1e-12


@pytest.mark.parametrize("t", [0.05, 0.5, 2.0])
def test_conservativeness(t):
    rng = np.random.default_rng(2)
    for space in ANALYTIC + [random_finite(rng, 10)]:
        sk = get_kernel(space)
        row = sk.kernel_row(t, space.base_point)
        assert abs(np.sum(sk.weights * row) - 1.0) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.05, 2.0))
def test_contraction_and_invariance(seed, t):
    rng = np.random.default_rng(seed)
    space = ANALYTIC[seed % len(ANALYTIC)]
    sk = get_kernel(space)
    f = rng.standard_normal(len(sk.points))
    pf = sk.apply_values(t, f)
    assert np.max(np.abs(pf)) <= np.max(np.abs(f)) + 1e-9
    w = sk.weights
    assert abs(np.sum(w * pf) - np.sum(w * f)) <= 1e-9 * max(1.0, np.max(np.abs(f)))


def test_on_diagonal_monotone():
    rng = np.random.default_rng(3)
    ts = np.arange(0.1, 2.01, 0.1)
    for space in ANALYTIC + [random_finite(rng, 10)]:
        diag = [on_diagonal(space, t, space.base_point) for t in ts]
        assert all(b <= a + 1e-12 for a, b in zip(diag, diag[1:]))


def test_circle_kernel_vs_series():
    # the kernel is a density w.r.t. the probability measure; times
    # measure_scale it is the arc-length density the series sums
    space = Circle(2 * np.pi)
    for t in (0.01, 0.1, 0.2999, 0.3001, 1.0):
        for dx in (0.0, 0.5, np.pi):
            ref = circle_kernel_series(t, dx, 2 * np.pi)
            got = get_kernel(space).kernel_value(t, 0.0, dx) * space.measure_scale
            assert abs(got - ref) <= 1e-10


def test_interval_kernel_vs_series():
    # a != 0 puts weight on the reflected image x + y - 2a; t lies on both
    # sides of the image/eigen-sum switch at SERIES_CROSSOVER (L/pi)^2
    for a, b in ((0.0, 1.0), (-3.0, 3.0), (2.5, 3.2)):
        length = b - a
        space = Interval(a, b)
        sk = get_kernel(space)
        switch = heat.SERIES_CROSSOVER * (length / np.pi) ** 2
        for t in switch * np.array([0.1, 0.5, 0.99, 1.01, 2.0, 16.0]):
            for fx, fy in ((0.2, 0.7), (0.0, 0.0), (0.5, 0.5), (0.0, 0.3), (1.0, 1.0),
                           (0.5, 1.0)):
                x, y = a + fx * length, a + fy * length
                ref = interval_kernel_series(t, x, y, a, length, terms=4000)
                assert abs(sk.kernel_value(t, x, y) * space.measure_scale - ref) <= 1e-9


# (a, L, x0) of the Neumann CDF tests: the reflected runner's boxes, one off 0
CDF_BOXES = [(0.0, 0.5, 0.25), (0.0, 1.0, 0.25), (2.5, 0.5, 2.9), (-1.0, 1.0, -0.9)]


@pytest.mark.parametrize("t", [0.01, 1.0, 1.5])
@pytest.mark.parametrize("a, length, x0", CDF_BOXES)
def test_interval_cdf_is_a_cdf_on_the_box(t, a, length, x0):
    x = np.linspace(a, a + length, 2001)
    cdf = heat.interval_cdf_leb(t, x0, x, a, length)
    assert cdf[0] == 0.0 and abs(cdf[-1] - 1.0) <= 1e-15
    assert np.all(np.diff(cdf) >= -1e-15)


@pytest.mark.parametrize("t", [0.01, 1.0, 1.5])
@pytest.mark.parametrize("a, length, x0", CDF_BOXES)
def test_interval_cdf_differentiates_to_the_kernel(t, a, length, x0):
    h = 1e-5
    x = a + length * np.linspace(0.01, 0.99, 99)
    slope = (heat.interval_cdf_leb(t, x0, x + h, a, length)
             - heat.interval_cdf_leb(t, x0, x - h, a, length)) / (2 * h)
    density = heat.interval_kernel_leb(t, x0, x, a, length)
    assert np.max(np.abs(slope - density)) <= 1e-8 * max(1.0, np.max(density))


@pytest.mark.parametrize("t", [0.01, 1.0, 1.5])
@pytest.mark.parametrize("a, length, x0", CDF_BOXES)
def test_interval_cdf_matches_the_image_sum(t, a, length, x0):
    # at t = 0.01 the series needs its e^-42 cut: a fixed short series is off
    x = a + length * np.linspace(0.0, 1.0, 41)
    got = heat.interval_cdf_leb(t, x0, x, a, length)
    ref = [interval_cdf_images(t, x0, xi, a, length) for xi in x]
    assert np.max(np.abs(got - ref)) <= 1e-13


def test_interval_cdf_rejects_nonpositive_t():
    with pytest.raises(HeatError):
        heat.interval_cdf_leb(0.0, 0.25, 0.5, 0.0, 1.0)


def test_torus_product_structure():
    torus = Torus(2 * np.pi, np.pi)
    t = 0.4
    x = np.array([0.3, 0.2])
    y = np.array([1.0, 1.5])
    ref = circle_kernel_series(t, y[0] - x[0], 2 * np.pi) * \
        circle_kernel_series(t, y[1] - x[1], np.pi)
    assert abs(get_kernel(torus).kernel_value(t, x, y) * torus.measure_scale - ref) <= 1e-10


def test_gaussian_kernel_moments():
    a = 1.5
    space = EuclideanLogConcave(quadratic_potential(a))
    sk = get_kernel(space)
    for t in (0.1, 0.5, 1.0):
        x0 = 0.7
        row = sk.kernel_row(t, x0)
        w = sk.weights
        mass = np.sum(w * row)
        mean = np.sum(w * row * sk.points) / mass
        var = np.sum(w * row * (sk.points - mean) ** 2) / mass
        m_ref, v_ref = ou_mean_var(a, x0, t)
        assert abs(mass - 1.0) <= 1e-9
        assert abs(mean - m_ref) <= 1e-8
        assert abs(var - v_ref) <= 1e-7


@pytest.mark.parametrize("a", [21.0, 101.0])
def test_steep_gaussian_row_is_finite_and_conservative(a):
    # exp(a y^2 / 2) overflows on the far nodes, where the Gaussian factor
    # is 0 or subnormal, so the plain product is inf or nan there
    sk = get_kernel(EuclideanLogConcave(quadratic_potential(a)))
    for t in (0.25, 0.75):
        for x in (0.0, 0.5):
            mean, var = sk._moments(t, x)
            with np.errstate(over="ignore", invalid="ignore"):
                plain = heat._gauss(sk.points - mean, var) * np.exp(0.5 * a * sk.points ** 2)
            assert not np.all(np.isfinite(plain))
            row = sk.kernel_row(t, x)
            assert np.all(np.isfinite(row))
            assert abs(np.sum(sk.weights * row) - 1.0) <= 1e-12


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_gaussian_row_is_the_direct_product(a):
    sk = get_kernel(EuclideanLogConcave(quadratic_potential(a)))
    for t in (0.25, 0.75):
        for x in (0.0, 0.7):
            mean, var = sk._moments(t, x)
            direct = heat._gauss(sk.points - mean, var) * np.exp(0.5 * a * np.square(sk.points))
            assert np.array_equal(sk.kernel_row(t, x), direct)


def test_spectral_gaps_closed_form():
    assert abs(spectral_gap(Circle(2 * np.pi)) - 1.0) <= 1e-9
    assert abs(spectral_gap(Interval(0.0, 1.0)) - np.pi ** 2) <= 1e-9
    assert abs(spectral_gap(Torus(2 * np.pi, np.pi)) - 1.0) <= 1e-9
    a = 2.0
    assert abs(spectral_gap(EuclideanLogConcave(quadratic_potential(a))) - a) <= 1e-9


def test_two_state_generator_override():
    # explicit 2-state generator: gap is a+b, detailed balance wrt weights
    a, b = 2.0, 3.0
    dist = np.array([[0.0, 1.0], [1.0, 0.0]])
    w = np.array([b, a]) / (a + b)
    space = FiniteMms(dist=dist, weights=w, base_index=0)
    L = np.array([[-a, a], [b, -b]])
    set_generator(space, L)
    sk = get_kernel(space)
    assert abs(sk.gap() - (a + b)) <= 1e-9
    p = sk.transition_matrix(0.37)
    from scipy.linalg import expm
    assert np.max(np.abs(p - expm(0.37 * L))) <= 1e-10


def _ring_turn(space):
    """Atom map of turning every ring of a ring-symmetric space by one atom."""
    node = np.arange(1, space.n).reshape(-1, space.turns)
    return np.concatenate([[0], np.roll(node, -1, axis=1).ravel()])


def _finite_case(case):
    """A space and the eps of its generator: a cone run's member "res-n" or
    limit chain "chain-res" with the run's eps 2.5/res, or with the default
    eps the bundled example file or a path of k atoms, "atoms-k"."""
    if case == "example":
        return FiniteMms.load(EXAMPLE_FINITE), None
    if case.startswith("atoms"):
        pts = np.arange(int(case.split("-")[1]), dtype=float)
        w = np.array([0.2, 0.5, 0.3])[:len(pts)]
        return FiniteMms(dist=np.abs(pts[:, None] - pts), weights=w), None
    if case.startswith("chain"):
        res = int(case.split("-")[1])
        return _interval_chain(res), 2.5 / res
    res, n = (int(v) for v in case.split("-"))
    return mesh_cone(n, res), 2.5 / res


MESH_CASES = ["%d-%d" % (res, n) for res in (5, 6, 24) for n in (1, 8, 4096)]
# spaces without ring symmetry: rings of one atom, block 0 alone
CHAIN_CASES = ["example", "chain-6", "chain-24", "atoms-1", "atoms-2", "atoms-3"]


@pytest.mark.parametrize("case", MESH_CASES + CHAIN_CASES)
def test_ring_kernel_matches_a_dense_eigh(case):
    space, eps = _finite_case(case)
    L = graph_generator(space, eps=eps)
    set_generator(space, L)
    sk = get_kernel(space)
    m = space.weights
    turn = _ring_turn(space)
    p = {}
    for t in (0.05, 0.25, 0.5, 2.0):
        lam, want = finite_transition_eigh(L, m, t)
        p[t] = sk.transition_matrix(t)
        # without symmetry block 0 is the oracle's matrix, bit for bit, and
        # P_t differs from its product by a few ulps, from where D^{1/2}
        # scales it (worst seen 8.3e-16, on chain-6)
        assert np.max(np.abs(p[t] - want)) <= (2e-15 if space.turns == 1 else 1e-13)
        assert np.array_equal(p[t][np.ix_(turn, turn)], p[t])
        assert np.max(np.abs(p[t].sum(axis=1) - 1.0)) <= 1e-13
        flux = m[:, None] * p[t]
        assert np.max(np.abs(flux - flux.T)) <= 1e-15
    assert np.max(np.abs(np.sort(sk._lam) - lam)) <= 1e-12 * np.max(np.abs(lam))
    if space.turns == 1:
        assert np.array_equal(np.sort(sk._lam), lam)
    assert np.max(np.abs(p[0.25] @ p[0.25] - p[0.5])) <= 1e-12


@pytest.mark.parametrize("case", MESH_CASES + CHAIN_CASES)
def test_graph_generator_is_the_dense_one_turned_from_its_head_rows(case):
    space, eps = _finite_case(case)
    L = graph_generator(space, eps=eps)
    want = graph_generator_dense(space.dist, space.weights, eps)
    heads = ring_heads(space.n, space.turns)
    assert np.array_equal(L[heads], want[heads])
    if space.turns == 1:
        assert np.array_equal(L, want)
    # turning the rings maps the generator onto itself exactly, as it maps
    # the distances; the dense diagonal sums each turned row in its own order
    turn = _ring_turn(space)
    assert np.array_equal(L[np.ix_(turn, turn)], L)


def test_ring_kernel_rejects_a_generator_that_breaks_the_ring_symmetry():
    space = mesh_cone(1, 6)
    L = graph_generator(space, eps=2.5 / 6)
    m = space.weights
    # one more edge across ring 3: rows still sum to 0 and detailed balance
    # holds, but no other pair of that ring gets it
    i, j = 1 + 3 * 6, 1 + 3 * 6 + 3
    edge = 1e-3 * np.max(np.abs(L)) * m[i]
    for a, b in ((i, j), (j, i)):
        L[a, b] += edge / m[a]
        L[a, a] -= edge / m[a]
    with pytest.raises(HeatError, match="turning"):
        set_generator(space, L)
    # without the declared symmetry the same generator is a valid one
    set_generator(FiniteMms(dist=space.dist, weights=m), L)


@pytest.mark.parametrize("row", ["head", "turned"])
def test_ring_kernel_rejects_a_generator_one_ulp_off_the_ring_symmetry(row):
    space = mesh_cone(1, 6)
    L = graph_generator(space, eps=2.5 / 6)
    i = 1 + 3 * 6 + (0 if row == "head" else 4)   # ring 3, angle 0 or 4
    j = i + 1                                      # its neighbour on the ring
    L[i, j] = np.nextafter(L[i, j], np.inf)
    with pytest.raises(HeatError, match="turning"):
        set_generator(space, L)


def test_ring_kernel_rejects_a_ring_invariant_generator_out_of_detailed_balance():
    space = mesh_cone(1, 6)
    L = graph_generator(space, eps=2.5 / 6)
    heads = ring_heads(space.n, 6)
    # one rate of ring 2's head row to an atom of ring 3, and so every turned
    # copy of it, grows; the rates back are left as they are
    head = L[heads]
    h, j = 3, 1 + 3 * 6 + 1
    assert head[h, j] > 0
    head[h, heads[h]] -= 1e-3 * head[h, j]
    head[h, j] *= 1.001
    L = ring_rows(head, 6)
    assert np.max(np.abs(L.sum(axis=1))) <= 1e-9
    with pytest.raises(HeatError, match="detailed balance"):
        set_generator(space, L)


def test_kernel_is_kept_on_its_space_and_dies_with_it():
    space = Interval(0.0, 1.0, n_nodes=64)
    sk = get_kernel(space)
    assert get_kernel(space) is sk
    ref = weakref.ref(sk)
    del space, sk
    gc.collect()
    assert ref() is None


def test_concurrent_first_calls_build_one_kernel(monkeypatch):
    # a slow build leaves every thread inside get_kernel at once
    builds = []

    class SlowKernel:
        def __init__(self, space):
            builds.append(space)
            time.sleep(0.2)

    monkeypatch.setitem(heat.KERNELS, Circle, SlowKernel)
    space = Circle(2 * np.pi, n_nodes=16)
    callers = 4  # more than the cores of a small machine
    start = threading.Barrier(callers)

    def first_call(_):
        start.wait(timeout=10)
        return get_kernel(space)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(callers) as pool:
            kernels = list(pool.map(first_call, range(callers), timeout=10))
    finally:
        sys.setswitchinterval(interval)
    assert len(builds) == 1
    assert all(sk is kernels[0] for sk in kernels)
    assert get_kernel(space) is kernels[0]


@pytest.mark.parametrize("load", [lambda: FiniteMms.load(EXAMPLE_FINITE),
                                  lambda: Interval(0.0, 1.5, n_nodes=40)],
                         ids=["example_finite", "interval"])
def test_transition_matrix_is_a_fresh_array_per_call(load):
    sk = get_kernel(load())
    p = sk.transition_matrix(0.3)
    p[...] = 0.0
    assert np.array_equal(sk.transition_matrix(0.3), get_kernel(load()).transition_matrix(0.3))


def test_disconnected_space_zero_gap():
    # two tight clusters far beyond the neighborhood-graph cutoff
    pts = np.concatenate([np.linspace(0, 0.2, 3), 100.0 + np.linspace(0, 0.2, 3)])
    dist = np.abs(pts[:, None] - pts[None, :])
    space = FiniteMms(dist=dist, weights=np.ones(6), base_index=0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        gap = spectral_gap(space)
    assert gap == 0.0


def test_graph_generator_detailed_balance():
    rng = np.random.default_rng(5)
    space = random_finite(rng, 15)
    L = graph_generator(space)
    m = space.weights
    flux = m[:, None] * L
    assert np.max(np.abs(flux - flux.T)) <= 1e-9
    assert np.max(np.abs(L.sum(axis=1))) <= 1e-9


@pytest.mark.parametrize("n", [2, 3, 14, 15])
def test_graph_generator_default_eps_is_twice_the_median_spacing(n):
    # the sorted middle entry (or the mean of the two) is np.median's, bit for bit
    space = random_finite(np.random.default_rng(n), n)
    off = space.dist + np.diag(np.full(n, np.inf))
    eps = 2.0 * float(np.median(np.min(off, axis=1)))
    assert np.array_equal(graph_generator(space), graph_generator(space, eps=eps))


def test_mixing_bound_with_chain():
    rng = np.random.default_rng(6)
    space = Circle(2 * np.pi)
    trials = [rng.standard_normal(2048) for _ in range(10)]
    out = mixing_bound_check(space, [0.1, 0.5, 1.0, 2.0], trials)
    assert out["pass"]
    assert abs(out["gap"] - 1.0) <= 1e-9


def test_relative_entropy_basics():
    p = np.array([0.5, 0.5])
    q = np.array([0.25, 0.75])
    ref = 0.5 * np.log(2.0) + 0.5 * np.log(2.0 / 3.0)
    assert abs(relative_entropy(p, q) - ref) <= 1e-12
    assert relative_entropy(p, p) == 0.0
    assert relative_entropy(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == np.inf


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.floats(0.3, 2.0))
def test_entropy_identity_sigma_finite(seed, C):
    rng = np.random.default_rng(seed)
    space = EuclideanLogConcave(quadratic_potential(1.0))
    pts, w = space.quadrature()
    center = rng.uniform(-1.0, 1.0)
    width = rng.uniform(0.3, 1.0)
    rho = np.exp(-0.5 * ((pts - center) / width) ** 2)
    rho /= np.sum(w * rho)
    out = entropy_identity_check(space, C, rho)
    assert out["pass"]
    assert abs(out["residual"]) <= 1e-6


@pytest.mark.parametrize("a", [21.0, 101.0])
def test_entropy_identity_skips_nodes_of_zero_mass(a):
    # a steep potential's far nodes have m-mass 0 or subnormal, so the tilted
    # masses there are 0; mu keeps positive density on them all the same
    space = EuclideanLogConcave(quadratic_potential(a))
    pts, w = space.quadrature()
    assert np.any(w == 0)
    rho = np.exp(-0.5 * (pts / 3.0) ** 2)
    rho /= np.sum(w * rho)
    out = entropy_identity_check(space, 1.0, rho)
    assert out["pass"]
    assert abs(out["residual"]) <= 1e-6


def test_entropy_identity_finite_mass():
    space = Circle(2 * np.pi)
    pts, w = space.quadrature()
    rho = 1.0 + 0.5 * np.cos(pts)
    rho /= np.sum(w * rho)
    out = entropy_identity_check(space, 1.0, rho)
    assert out["pass"]


def test_feller_small_time_continuity():
    space = Circle(2 * np.pi)
    pts = space.grid()
    fs = [np.sin(pts), np.cos(2 * pts)]
    out = feller_check(space, fs, [1e-4, 1e-3, 1e-2], tol=0.05)
    assert out["pass"]


def test_error_conditions():
    space = Circle(2 * np.pi)
    with pytest.raises(HeatError):
        get_kernel(space).kernel_value(0.0, 0.0, 1.0)
    with pytest.raises(HeatError):
        get_kernel(Interval(0.0, 1.0)).kernel_value(0.5, -0.5, 0.5)
    with pytest.raises(HeatError):
        on_diagonal(space, -0.1, 0.0)


def test_points_outside_the_space_are_rejected():
    interval = Interval(0.0, 1.0)
    sk = get_kernel(interval)
    with pytest.raises(HeatError, match="outside the interval"):
        on_diagonal(interval, 0.5, -0.5)
    with pytest.raises(HeatError, match="outside the interval"):
        sk.kernel_value(0.5, -0.5, 0.5)
    with pytest.raises(HeatError, match="outside the interval"):
        sk.kernel_value(0.5, 0.5, -0.5)
    # the ends, up to a 1e-12 slack, are inside
    assert sk.kernel_value(0.5, 1.0 + 5e-13, 0.5) > 0
    assert on_diagonal(interval, 0.5, -5e-13) > 0
    with pytest.raises(HeatError, match="outside the interval"):
        sk.kernel_value(0.5, 1.0 + 1e-9, 0.5)
    space = random_finite(np.random.default_rng(8), 6)
    for i in (space.n, -1):
        with pytest.raises(HeatError, match="atom index out of range"):
            on_diagonal(space, 0.5, i)
        with pytest.raises(HeatError, match="atom index out of range"):
            get_kernel(space).kernel_value(0.5, i, 0)
        with pytest.raises(HeatError, match="atom index out of range"):
            get_kernel(space).kernel_value(0.5, 0, i)


def test_semigroup_apply_matches_kernel_row():
    space = Interval(0.0, 1.0)
    sk = get_kernel(space)
    pts = sk.points
    f = np.sin(np.pi * pts)
    pf = semigroup_apply(space, 0.2, f)
    # eigenfunction cos(pi x) decays at rate pi^2; sin projected onto cosines
    direct = np.array([np.sum(sk.weights * sk.kernel_row(0.2, x) * f) for x in pts[::64]])
    assert np.max(np.abs(pf[::64] - direct)) <= 1e-9


BLOCK_SPACES = [Circle(2 * np.pi, n_nodes=256), Torus(2 * np.pi, np.pi / 2, n_nodes=(64, 32)),
                Interval(0.0, 1.0, n_nodes=200),
                EuclideanLogConcave(quadratic_potential(1.5), n_nodes=600)]


@pytest.mark.parametrize("space", BLOCK_SPACES + [None],
                         ids=["circle", "torus", "interval", "gaussian", "finite"])
def test_apply_values_block_is_columnwise_identical(space):
    rng = np.random.default_rng(5)
    if space is None:
        space = random_finite(rng, 15)
    sk = get_kernel(space)
    block = rng.standard_normal((len(sk.points), 3))
    for t in (0.0, 0.1, 1.0):
        out = sk.apply_values(t, block)
        assert out.shape == block.shape
        for j in range(3):
            assert np.array_equal(out[:, j], sk.apply_values(t, block[:, j].copy()))


@pytest.mark.parametrize("space", BLOCK_SPACES + [None],
                         ids=["circle", "torus", "interval", "gaussian", "finite"])
def test_apply_values_at_zero_returns_the_values_as_floats(space):
    if space is None:
        space = random_finite(np.random.default_rng(5), 15)
    sk = get_kernel(space)
    n = len(sk.points)
    for values in (np.arange(n), np.arange(3 * n).reshape(n, 3)):
        out = sk.apply_values(0, values)
        assert out.dtype == float
        assert np.array_equal(out, values)


# (n_nodes, a, base, mirrored): 600 and 1000 end on a short slab, and their
# inexact step leaves the grid off its mirror image; 512 and 4096 about 0
# are mirrored, free motion (a = 0) too; a shifted base or an odd grid is not
MEHLER_GRIDS = [(600, 1.5, 0.0, False), (1000, 1.5, 0.0, False), (512, 1.5, 0.0, True),
                (4096, 1.5, 0.0, True), (512, 0.0, 0.0, True), (4096, 1.5, 0.3, False),
                (601, 1.5, 0.0, False)]


@pytest.mark.parametrize("n_nodes, a, base, mirrored", MEHLER_GRIDS,
                         ids=["600", "1000", "512", "4096", "512-free", "4096-base", "601"])
def test_mehler_slabs_match_the_dense_matrix(n_nodes, a, base, mirrored):
    sk = get_kernel(EuclideanLogConcave(quadratic_potential(a), base=base, n_nodes=n_nodes))
    assert sk._mirror is mirrored
    t = 0.5
    mean, var = sk._moments(t, sk.points)
    dense = heat._gauss(sk.points[None, :] - mean[:, None], var) * sk._h
    block = np.random.default_rng(6).standard_normal((n_nodes, 3))
    out = sk.apply_values(t, block)
    for j in range(3):
        assert np.array_equal(out[:, j], dense @ np.ascontiguousarray(block[:, j]))


@pytest.mark.parametrize("n_nodes, a, base, mirrored", MEHLER_GRIDS,
                         ids=["600", "1000", "512", "4096", "512-free", "4096-base", "601"])
def test_mehler_apply_is_bit_identical_at_every_slab_height(monkeypatch, n_nodes, a, base,
                                                          mirrored):
    # from half the default slab height to eight times it
    sk = get_kernel(EuclideanLogConcave(quadratic_potential(a), base=base, n_nodes=n_nodes))
    assert sk._mirror is mirrored
    block = np.random.default_rng(7).standard_normal((n_nodes, 3))
    outs = []
    for slab in (16, 32, 64, 128, 256):
        monkeypatch.setattr(heat, "MEHLER_SLAB", slab)
        outs.append(sk.apply_values(0.5, block))
    for out in outs[1:]:
        assert np.array_equal(out.view(np.int64), outs[0].view(np.int64))


@pytest.mark.parametrize("n", [1, 4, 16])
def test_torus_row_is_its_density_on_the_grid(n):
    sk = get_kernel(Torus(2 * np.pi, 2 * np.pi / n, n_nodes=(256, 64)))
    # t on both sides of the image/eigen-sum switch of the first factor
    for t in (0.5 * heat.SERIES_CROSSOVER, 2.5 * heat.SERIES_CROSSOVER):
        for x in (np.zeros(2), np.array([1.3, 0.1]), sk.points[777]):
            assert np.array_equal(sk.kernel_row(t, x), sk._density(t, x, sk.points))


@pytest.mark.parametrize("space", BLOCK_SPACES + [None],
                         ids=["circle", "torus", "interval", "gaussian", "finite"])
def test_kernel_value_is_the_row_entry(space):
    if space is None:
        space = random_finite(np.random.default_rng(8), 15)
    sk = get_kernel(space)
    x = sk.points[3]
    for t in (0.05, 1.0):
        row = sk.kernel_row(t, x)
        for j in (0, 7, len(sk.points) - 1):
            assert sk.kernel_value(t, x, sk.points[j]) == row[j]
