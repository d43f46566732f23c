import gc
import sys
import threading
import time
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

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
from mmlab.heat import HeatError

from _oracles import circle_kernel_series, interval_kernel_series, ou_mean_var


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
    space = Circle(2 * np.pi)
    for t in (0.01, 0.1, 0.2999, 0.3001, 1.0):
        for dx in (0.0, 0.5, np.pi):
            ref = circle_kernel_series(t, dx, 2 * np.pi)
            got = get_kernel(space).kernel_value(t, 0.0, dx)
            assert abs(got - ref) <= 1e-10


def test_interval_kernel_vs_series():
    space = Interval(0.0, 1.0)
    for t in (0.005, 0.02, 0.05, 0.5):
        for x, y in ((0.2, 0.7), (0.0, 0.0), (0.5, 0.5)):
            ref = interval_kernel_series(t, x, y, 0.0, 1.0, terms=4000)
            got = get_kernel(space).kernel_value(t, x, y)
            assert abs(got - ref) <= 1e-9


def test_torus_product_structure():
    torus = Torus(2 * np.pi, np.pi)
    t = 0.4
    x = np.array([0.3, 0.2])
    y = np.array([1.0, 1.5])
    ref = circle_kernel_series(t, y[0] - x[0], 2 * np.pi) * \
        circle_kernel_series(t, y[1] - x[1], np.pi)
    assert abs(get_kernel(torus).kernel_value(t, x, y) - ref) <= 1e-10


def test_gaussian_kernel_moments():
    a = 1.5
    space = EuclideanLogConcave(1, quadratic_potential(a))
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
    sk = get_kernel(EuclideanLogConcave(1, quadratic_potential(a)))
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
    sk = get_kernel(EuclideanLogConcave(1, quadratic_potential(a)))
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
    assert abs(spectral_gap(EuclideanLogConcave(1, quadratic_potential(a))) - a) <= 1e-9


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

    monkeypatch.setattr(heat, "CircleKernel", SlowKernel)
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
    space = EuclideanLogConcave(1, quadratic_potential(1.0))
    pts, w = space.quadrature()
    center = rng.uniform(-1.0, 1.0)
    width = rng.uniform(0.3, 1.0)
    rho = np.exp(-0.5 * ((pts - center) / width) ** 2)
    rho /= np.sum(w * rho)
    out = entropy_identity_check(space, C, rho)
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
                EuclideanLogConcave(1, quadratic_potential(1.5), n_nodes=600)]


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


# (n_nodes, a, base, mirrored): 600 and 1000 end on a short slab, and their
# inexact step leaves the grid off its mirror image; 512 and 4096 about 0
# are mirrored, free motion (a = 0) too; a shifted base or an odd grid is not
MEHLER_GRIDS = [(600, 1.5, 0.0, False), (1000, 1.5, 0.0, False), (512, 1.5, 0.0, True),
                (4096, 1.5, 0.0, True), (512, 0.0, 0.0, True), (4096, 1.5, 0.3, False),
                (601, 1.5, 0.0, False)]


@pytest.mark.parametrize("n_nodes, a, base, mirrored", MEHLER_GRIDS,
                         ids=["600", "1000", "512", "4096", "512-free", "4096-base", "601"])
def test_mehler_slabs_match_the_dense_matrix(n_nodes, a, base, mirrored):
    sk = get_kernel(EuclideanLogConcave(1, quadratic_potential(a), base=base, n_nodes=n_nodes))
    assert sk._mirror is mirrored
    t = 0.5
    mean, var = sk._moments(t, sk.points)
    dense = heat._gauss(sk.points[None, :] - mean[:, None], var) * sk._h
    block = np.random.default_rng(6).standard_normal((n_nodes, 3))
    out = sk.apply_values(t, block)
    for j in range(3):
        assert np.array_equal(out[:, j], dense @ np.ascontiguousarray(block[:, j]))


@pytest.mark.parametrize("n", [1, 4, 16])
def test_torus_row_is_its_density_on_the_grid(n):
    sk = get_kernel(Torus(2 * np.pi, 2 * np.pi / n, n_nodes=(256, 64), normalized=True))
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
