import re
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings, strategies as st

from mmlab import (
    Circle,
    DiscreteMeasure,
    EuclideanLogConcave,
    FiniteMms,
    Interval,
    PathEnsemble,
    Potential,
    Torus,
    box_domain,
    euler_maruyama,
    extract_fdd,
    get_kernel,
    kolmogorov_moment,
    modulus_statistic,
    quadratic_potential,
    sample_kernel_chain,
)
import mmlab.paths as paths
from mmlab.heat import circle_kernel_arc
from mmlab.paths import PathError, _pair_distance, grid_index
from mmlab.spaces import SpaceError, mesh_cone

from _oracles import (
    euler_maruyama_loop,
    folded_normal_cdf,
    kernel_chain_loop,
    modulus_statistic_loop,
    ou_mean_var,
)


def test_chain_determinism():
    space = Circle(2 * np.pi)
    times = np.linspace(0.0, 1.0, 21)
    a = sample_kernel_chain(space, "base", times, 200, seed=9)
    b = sample_kernel_chain(space, "base", times, 200, seed=9)
    assert np.array_equal(a.states, b.states)
    c = sample_kernel_chain(space, "base", times, 200, seed=10)
    assert not np.array_equal(a.states, c.states)


@pytest.mark.parametrize("space", [Circle(2 * np.pi), Interval(0.0, 1.0)])
def test_chain_marginal_matches_semigroup(space):
    times = np.linspace(0.0, 0.5, 11)
    count = 10000
    ens = sample_kernel_chain(space, "base", times, count, seed=21)
    sk = get_kernel(space)
    if isinstance(space, Circle):
        f = lambda x: np.cos(x)
    else:
        f = lambda x: np.cos(np.pi * x)
    final = ens.states[:, -1, 0]
    emp = float(np.mean(f(final)))
    se = float(np.std(f(final))) / np.sqrt(count)
    fvals = f(sk.points)
    pt = sk.apply_values(0.5, fvals)
    x0 = np.asarray(space.base_point, dtype=float)
    ref = float(pt[np.argmin(np.abs(np.asarray(space.distance(sk.points, x0))))])
    assert abs(emp - ref) <= 3 * se + 1e-3


def test_chain_marginal_finite():
    pts = np.linspace(0.0, 2 * np.pi, 16, endpoint=False)
    dist = np.abs(pts[:, None] - pts[None, :])
    dist = np.minimum(dist, 2 * np.pi - dist)
    space = FiniteMms(dist=dist, weights=np.full(16, 2 * np.pi / 16), base_index=0)
    times = np.linspace(0.0, 1.0, 11)
    ens = sample_kernel_chain(space, "base", times, 8000, seed=5)
    sk = get_kernel(space)
    p_ref = sk.transition_matrix(1.0)[0]
    counts = np.bincount(ens.states[:, -1, 0].astype(int), minlength=16) / 8000
    se = np.sqrt(p_ref * (1 - p_ref) / 8000)
    assert np.all(np.abs(counts - p_ref) <= 4 * se + 1e-3)


def test_chain_bad_grid_rejected():
    space = Circle(2 * np.pi)
    with pytest.raises(PathError):
        sample_kernel_chain(space, "base", [0.5, 1.0], 10, seed=0)
    with pytest.raises(PathError):
        sample_kernel_chain(space, "base", [0.0, 0.5, 0.5], 10, seed=0)


@pytest.mark.parametrize("law", ["weighted", None, "nonsense"])
def test_chain_rejects_an_unknown_start_law(law):
    # a chain starts at the base point or from a DiscreteMeasure
    for space in (Circle(), Interval(0.0, 1.0), EuclideanLogConcave(1, quadratic_potential(1.0))):
        with pytest.raises(PathError, match="^unknown initial law %s$" % re.escape(repr(law))):
            sample_kernel_chain(space, law, [0.0, 0.5], 10, seed=0)


EXAMPLE_FINITE = FiniteMms.load(Path(__file__).resolve().parent.parent
                                / "scripts" / "example_finite.txt")

# (space, initial law) pairs for the chain oracle: circles started on and
# off [0, c), the bundled torus, a small cone member, the example finite
# file and intervals with their base on a node tie and outside
CHAIN_STARTS = {
    "circle-0": (Circle(), "base"),
    "circle-minus1": (Circle(base=-1.0), "base"),
    "circle-7": (Circle(base=7.0), "base"),
    "circle-c": (Circle(base=2 * np.pi), "base"),
    "circle-law": (Circle(), DiscreteMeasure([[0.5], [3.0], [-2.0], [2 * np.pi]],
                                             [0.4, 0.3, 0.2, 0.1])),
    "torus": (Torus(2 * np.pi, 2 * np.pi / 4, n_nodes=(256, 64), normalized=True), "base"),
    "torus-off": (Torus(2 * np.pi, 2 * np.pi / 4, base=(-1.0, 7.0), n_nodes=(256, 64)), "base"),
    "torus-c": (Torus(2 * np.pi, 2 * np.pi / 4, base=(2 * np.pi, np.pi / 2),
                      n_nodes=(256, 64)), "base"),
    "torus-law": (Torus(2 * np.pi, 2 * np.pi / 4, n_nodes=(256, 64)),
                  DiscreteMeasure([[0.5, 1.0], [-3.0, 9.0]], [0.25, 0.75])),
    "cone": (mesh_cone(2, 6), "base"),
    "finite": (EXAMPLE_FINITE, "base"),
    "finite-law": (EXAMPLE_FINITE, DiscreteMeasure([[0.0], [2.0], [5.0]], [0.2, 0.5, 0.3])),
    "interval": (Interval(0.0, 1.0), "base"),
    "interval-outside": (Interval(-1.0, 2.0, base=2.5, n_nodes=300), "base"),
    "interval-law": (Interval(-1.0, 2.0, n_nodes=300),
                     DiscreteMeasure([[-1.5], [0.0], [0.7], [2.0]], [0.1, 0.2, 0.3, 0.4])),
}

# several step lengths; steps so small that the kernel sits on a few nodes;
# steps so large that it is flat
CHAIN_GRIDS = {
    "steps": [0.0, 0.01, 0.03, 0.04, 0.1, 0.35],
    "tiny": [0.0, 1e-6, 2e-6, 3e-6],
    "flat": [0.0, 20.0, 40.0],
}


@pytest.mark.parametrize("grid", CHAIN_GRIDS)
@pytest.mark.parametrize("case", CHAIN_STARTS)
def test_chain_is_bit_identical_to_the_full_search_loop(case, grid):
    space, initial = CHAIN_STARTS[case]
    times = CHAIN_GRIDS[grid]
    count, seed = 700, 41
    ens = sample_kernel_chain(space, initial, times, count, seed=seed)
    if isinstance(initial, DiscreteMeasure):
        start = (initial.atoms, initial.weights)
    else:
        start = paths._initial_states(space, initial, count, None, ens.states.shape[2])
    if isinstance(space, (Circle, Torus)):
        factors = [space] if isinstance(space, Circle) else space.factors()
        circles = lambda dt: [(circle_kernel_arc(dt, c.grid(), c.circumference), c.grid(),
                               c.circumference) for c in factors]
        ref = kernel_chain_loop(times, start, count, seed, circles=circles)
    else:
        sk = get_kernel(space)
        ref = kernel_chain_loop(times, start, count, seed,
                                chain=(sk.points, sk.transition_matrix))
    assert np.array_equal(ens.states, ref)


# one start of each sampler branch, at a point and from a law
RECORD_STARTS = {
    **{case: CHAIN_STARTS[case] for case in
       ("circle-7", "circle-law", "torus-off", "torus-law", "finite", "finite-law",
        "interval-outside", "interval-law")},
    "line": (EuclideanLogConcave(1, quadratic_potential(1.5), base=0.7), "base"),
    "line-law": (EuclideanLogConcave(1, quadratic_potential(1.5)),
                 DiscreteMeasure([[-1.0], [0.3], [2.0]], [0.5, 0.3, 0.2])),
}
RECORD_TIMES = [0.0, 0.01, 0.03, 0.04, 0.1, 0.2, 0.35]


def _rng_spy(monkeypatch):
    """The generators the samplers make, in order."""
    made, real = [], paths.make_rng

    def spy(*args):
        made.append(real(*args))
        return made[-1]

    monkeypatch.setattr(paths, "make_rng", spy)
    return made


@pytest.mark.parametrize("record", [(0.0, 0.03, 0.1), (0.01, 0.04), (0.35,)])
@pytest.mark.parametrize("case", RECORD_STARTS)
def test_chain_record_equals_full_grid_columns(monkeypatch, case, record):
    space, initial = RECORD_STARTS[case]
    rngs = _rng_spy(monkeypatch)
    full = sample_kernel_chain(space, initial, RECORD_TIMES, 300, seed=8)
    part = sample_kernel_chain(space, initial, RECORD_TIMES, 300, seed=8, record=record)
    cols = [grid_index(full.times, t) for t in record]
    assert np.array_equal(part.times, record)
    assert part.states.shape == (300, len(record), full.states.shape[2])
    assert np.array_equal(part.states, full.states[:, cols])
    # the chain stops at the last record time: its stream is where a chain
    # on the grid up to that time leaves it
    upto = sample_kernel_chain(space, initial, RECORD_TIMES[:cols[-1] + 1], 300, seed=8)
    assert np.array_equal(upto.states[:, -1], part.states[:, -1])
    assert np.array_equal(rngs[1].random(8), rngs[2].random(8))


def test_chain_record_off_grid_rejected():
    times = np.linspace(0.0, 1.0, 101)
    for record in [(0.5, 0.505), (1.2,), (0.5, 0.2), (0.5, 0.5), ()]:
        with pytest.raises(PathError):
            sample_kernel_chain(Circle(), "base", times, 4, seed=0, record=record)


class _FixedUniforms:
    """A stand-in generator whose ``random(n)`` returns given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, n):
        assert n == len(self.u)
        return self.u.copy()


@pytest.mark.parametrize("total", [64, 128, 256, 384])
def test_increment_draws_at_bucket_edges_equal_the_full_search(total):
    # integer masses summing to total, with zeros inside and at the end: with
    # 8 nodes there are 128 buckets, so for total 64 and 128 every CDF entry
    # sits on a bucket edge
    weights = np.zeros(8)
    weights[[1, 4, 5, 6]] = np.array([3, 37, 1, 23]) * total // 64
    weights[7] = total - weights.sum()
    grid = np.arange(8.0)
    m = paths._bucket_count(len(grid))
    assert m == 128
    cdf = np.cumsum(weights)
    cdf /= cdf[-1]
    edges = np.arange(m) / m
    u = np.concatenate([[0.0, 1.0 - 2.0 ** -53], edges, np.nextafter(edges[1:], 0.0),
                        np.nextafter(edges, 1.0), cdf, np.nextafter(cdf, 1.0)])
    u = u[u < 1.0]  # the range of Generator.random
    draw = paths._increment_sampler(weights, grid, 1.0)
    got = draw(_FixedUniforms(u), len(u))
    assert np.array_equal(got, grid[np.searchsorted(cdf, u, side="left")])


def test_chain_step_at_cdf_entries_equals_the_row_argmax():
    # rows of integer masses with zeros: the CDFs repeat values, and each
    # path's u is an entry of its own row, or a neighbour of one
    rng = np.random.default_rng(7)
    masses = rng.integers(0, 4, size=(6, 9)).astype(float)
    masses[:, -1] += 1.0
    cdf = paths._row_cdf_matrix(masses)
    state = rng.integers(0, 6, size=400)
    u = cdf[state, rng.integers(0, 9, size=400)]
    u = np.concatenate([u, np.nextafter(u, 0.0), np.nextafter(u, 1.0), [0.0]])
    state = np.append(np.tile(state, 3), 0)
    keep = u < 1.0  # the range of Generator.random
    u, state = u[keep], state[keep]
    want = np.argmax(cdf[state] > u[:, None], axis=1)
    assert np.array_equal(paths._chain_step(cdf, state, u), want)


def test_em_ou_moments_and_weak_order():
    a, x0, T = 1.0, 1.0, 1.0
    v = quadratic_potential(a)
    m_ref, _ = ou_mean_var(a, x0, T)
    errs = []
    for dt in (2e-2, 1e-2, 5e-3):
        ens = euler_maruyama(v, x0, dt, T, 40000, seed=3)
        errs.append(abs(float(np.mean(ens.states[:, -1, 0])) - m_ref))
    # first-order weak error: halving dt roughly halves the bias
    assert errs[2] < errs[0]
    assert errs[0] <= 0.05


@pytest.mark.parametrize("a", [0.0, 1.5])
def test_chain_on_a_line_has_the_ou_moments(a):
    # the exact OU (a > 0) and free (a = 0) transitions of the kernel chain
    space = EuclideanLogConcave(1, quadratic_potential(a), base=0.7)
    ens = sample_kernel_chain(space, "base", [0.0, 0.2, 0.5], 40000, seed=4)
    for k, t in ((1, 0.2), (2, 0.5)):
        m_ref, v_ref = ou_mean_var(a, 0.7, t)
        x = ens.states[:, k, 0]
        assert abs(np.mean(x) - m_ref) <= 4 * np.sqrt(v_ref / len(x))
        assert abs(np.var(x) / v_ref - 1.0) <= 4 * np.sqrt(2.0 / len(x))


def test_em_zero_noise_gradient_flow():
    a, x0, T = 2.0, 1.0, 1.0
    ens = euler_maruyama(quadratic_potential(a), x0, 1e-4, T, 1, seed=0, noise=False)
    assert abs(ens.states[0, -1, 0] - x0 * np.exp(-a * T)) <= 1e-3


def test_em_divergence_guard_flags():
    # unstable drift dX = 5X dt with a large step blows up and gets frozen
    ens = euler_maruyama(quadratic_potential(-5.0), 1.0, 0.5, 20.0, 8, seed=1)
    assert np.all(ens.flags)
    assert np.all(np.isfinite(ens.states))


EM_CASES = {
    # (keyword arguments, recorded times)
    "free": (dict(potential=quadratic_potential(1.0), x0=0.3, dt=1e-2, T=1.0, count=64),
             (0.0, 0.37, 1.0)),
    "reflected": (dict(potential=quadratic_potential(0.0), x0=0.25, dt=5e-3, T=1.5, count=64,
                       domain=box_domain(0.0, 1.0)),
                  (1.0, 1.5)),
    # dX = 5X dt with a large step: every path is frozen by t = 10
    "flagged": (dict(potential=quadratic_potential(-5.0), x0=1.0, dt=0.5, T=20.0, count=8),
                (0.5, 10.0, 20.0)),
}


@pytest.mark.parametrize("case", sorted(EM_CASES))
def test_em_record_equals_full_grid_columns(case):
    kwargs, record = EM_CASES[case]
    full = euler_maruyama(seed=21, **kwargs)
    part = euler_maruyama(seed=21, record=record, **kwargs)
    cols = [grid_index(full.times, t) for t in record]
    assert np.array_equal(part.times, record)
    assert part.states.shape == (kwargs["count"], len(record), 1)
    assert np.array_equal(part.states, full.states[:, cols])
    assert np.array_equal(part.flags, full.flags)
    if case == "flagged":
        assert np.all(part.flags)
        assert np.array_equal(part.states[:, 1], part.states[:, 2])


# horizons t' < T on each case's grid; the flagged case's paths are all
# unfrozen at 0.5 and all frozen by 10
EM_PREFIXES = [("free", 0.37), ("reflected", 1.0), ("flagged", 0.5), ("flagged", 10.0)]


@pytest.mark.parametrize("case, t", EM_PREFIXES)
def test_em_stopped_early_equals_the_full_run_at_its_horizon(case, t):
    kwargs, _ = EM_CASES[case]
    full = euler_maruyama(seed=21, **kwargs)
    part = euler_maruyama(seed=21, **{**kwargs, "T": t}, record=(t,))
    assert np.array_equal(part.states[:, 0], full.state_at(t))
    assert not np.any(part.flags & ~full.flags)
    if case == "flagged":
        assert np.all(full.flags)
        assert part.flags.tolist() == [t == 10.0] * kwargs["count"]


def test_em_record_off_grid_rejected():
    v = quadratic_potential(1.0)
    for record in [(0.5, 0.505), (1.2,), (0.5, 0.2), ()]:
        with pytest.raises(PathError):
            euler_maruyama(v, 0.0, 1e-2, 1.0, 4, seed=0, record=record)


def _linear_potential(A):
    """V(x) = x.Ax/2 in batch form: points along the leading axes."""
    A = np.asarray(A)
    return Potential(value=lambda x: 0.5 * np.sum(x * (x @ A.T), axis=-1),
                     grad=lambda x: x @ A.T)


@pytest.mark.parametrize("count", [2, 3])
@pytest.mark.parametrize("A, x0, x1", [
    ([[1.0, 0.5], [0.0, 2.0]], (1.0, 1.0), (0.85, 0.8)),
    # x0 is an eigenvector whose eigenvalue is A's first row sum, so the
    # first row of a per-point A @ X would be right and only the last wrong
    ([[2.0, 0.0], [0.0, 3.0]], (1.0, 0.0), (0.8, 0.0)),
    # the rows of a per-point A @ X would be .8, .7, .8 with count 3: only a
    # middle row shows the mix-up
    ([[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [0.0, 0.0, 2.0]], (1.0, 0.0, 0.0),
     (0.8, 0.0, 0.0)),
])
def test_em_batch_gradient_when_count_equals_dim(count, A, x0, x1):
    """Each path gets its own gradient A x_i from the batch form X @ A.T,
    also when the path count equals the dimension.  A gradient written for
    one point (A @ x) is outside the batch rule; with count == d its batch
    result has the right shape, and no check can catch it."""
    ens = euler_maruyama(_linear_potential(A), x0, 0.1, 0.1, count, seed=0, noise=False)
    assert np.allclose(ens.states[:, 1], [x1] * count, rtol=0, atol=1e-15)


def test_em_calls_the_gradient_once_per_step():
    calls = []

    def grad(x):
        calls.append(x.shape)
        return x @ np.diag([1.0, 2.0]).T

    v = Potential(value=lambda x: 0.0, grad=grad)
    euler_maruyama(v, (1.0, 1.0), 0.1, 0.5, 7, seed=0)
    assert calls == [(7, 2)] * 5


def test_em_rejects_a_gradient_of_the_wrong_shape():
    # a gradient written for one point reads the first two paths of a batch
    # as its two coordinates: two items for three paths
    v = Potential(value=lambda x: 0.0, grad=lambda x: np.array([x[0], 2.0 * x[1]]))
    with pytest.raises(SpaceError, match=r"shape \(2, 2\) for 3 points; expected \(3, 2\)"):
        euler_maruyama(v, (1.0, 1.0), 0.1, 0.1, 3, seed=0, noise=False)


def _nan_rows_gradient(x):
    """grad of |x|^2/2, except NaN on every third path."""
    return np.where(np.arange(len(x))[:, None] % 3 == 0, np.nan, x)


ORACLE_CASES = {
    **{case: kwargs for case, (kwargs, _) in EM_CASES.items()},
    # steps of sd 0.14 in a box of width 0.05: mirror images land past the
    # opposite face, so the second projection pass runs
    "narrow_box": dict(potential=quadratic_potential(0.0), x0=0.02, dt=1e-2, T=0.5, count=64,
                       domain=box_domain(0.0, 0.05)),
    "box_2d": dict(potential=quadratic_potential(1.0), x0=(0.5, 0.25), dt=5e-3, T=0.5,
                   count=64, domain=box_domain((0.0, 0.0), (1.0, 0.5))),
    # the whole line: every projection is the identity, and 2x - x is exact
    "identity_projection": dict(potential=quadratic_potential(1.0), x0=0.3, dt=1e-2, T=0.5,
                                count=64, domain=box_domain(-np.inf, np.inf)),
    # above the screen (5e5 in 1-D), below the guard: the full rule runs, no flag
    "above_screen": dict(potential=quadratic_potential(0.0), x0=6e5, dt=1e-2, T=0.5,
                         count=64),
    # steps of sd 1 from just under the guard: some paths flag, others do not
    "partly_flagged": dict(potential=quadratic_potential(0.0), x0=1e6 - 0.5, dt=0.5, T=5.0,
                           count=64),
    # a * dt = 1 cancels the state, so each step is pure noise of sd 4e5: now
    # and then one path passes the guard, and at later steps every path, the
    # frozen one's next step too, can lie under the screen again
    "frozen_under_screen": dict(potential=quadratic_potential(1.25e-11), x0=0.0, dt=8e10,
                                T=3.2e12, count=4),
    "nan_rows": dict(potential=Potential(value=lambda x: 0.0, grad=_nan_rows_gradient),
                     x0=0.3, dt=1e-2, T=0.5, count=64),
    "no_noise": dict(potential=quadratic_potential(2.0), x0=1.0, dt=1e-2, T=1.0, count=4,
                     noise=False),
}


def _clip_to(box):
    """The projection onto a box, as the oracle's ``project``."""
    return lambda x: np.clip(x, box.lo, box.hi)


def _em_loop(seed, potential, domain=None, **kwargs):
    return euler_maruyama_loop(potential.grad, seed=seed,
                               project=None if domain is None else _clip_to(domain), **kwargs)


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_em_is_bit_identical_to_the_step_loop(case):
    kwargs = ORACLE_CASES[case]
    ens = euler_maruyama(seed=21, **kwargs)
    states, flags = _em_loop(21, **kwargs)
    assert np.array_equal(ens.states, states, equal_nan=True)
    assert np.array_equal(ens.flags, flags)
    if case == "flagged":
        assert np.all(flags)
    elif case in ("partly_flagged", "frozen_under_screen"):
        assert 0 < np.sum(flags) < len(flags)
    elif case == "nan_rows":
        assert np.all(np.isnan(states[::3, 1:])) and np.all(np.isfinite(states[1::3]))
    else:
        assert not np.any(flags)


def test_narrow_box_case_overshoots_the_opposite_face():
    kwargs = dict(ORACLE_CASES["narrow_box"])
    clip = _clip_to(kwargs.pop("domain"))
    seen = []

    def project(x):
        seen.append(np.array(x, dtype=float))
        return clip(x)

    # the sampler equals this loop bit for bit (test above)
    euler_maruyama_loop(kwargs.pop("potential").grad, seed=21, project=project, **kwargs)
    # call 0 projects the start; each step then projects its step and the
    # mirror image of that step
    mirrored = np.concatenate(seen[2::2])
    assert np.any((mirrored < -1e-12) | (mirrored > 0.05 + 1e-12))


@st.composite
def _boxed_runs(draw):
    """A short reflected run: x0 in 1 or 2 coordinates, a box of 1 or d
    coordinates around it whose faces lie 0, 0.01 (narrower than most
    steps), 0.3 or infinitely far from x0, a step and a step count."""
    d = draw(st.sampled_from([1, 2]))
    x0 = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=d, max_size=d)))
    gaps = st.lists(st.sampled_from([0.0, 0.01, 0.3, np.inf]), min_size=d, max_size=d)
    if draw(st.booleans()):  # one coordinate bounds all of x0
        lo, hi = x0.min() - draw(gaps)[0], x0.max() + draw(gaps)[0]
    else:
        lo, hi = x0 - draw(gaps), x0 + draw(gaps)
    dt = draw(st.sampled_from([1e-3, 0.05, 0.5]))
    return dict(potential=quadratic_potential(draw(st.sampled_from([0.0, 1.0]))), x0=x0,
                dt=dt, T=dt * draw(st.integers(1, 5)), count=8, domain=box_domain(lo, hi))


@settings(max_examples=25, deadline=None)
@given(_boxed_runs(), st.integers(0, 2 ** 32 - 1))
def test_em_in_drawn_boxes_is_bit_identical_to_the_step_loop(kwargs, seed):
    ens = euler_maruyama(seed=seed, **kwargs)
    states, flags = _em_loop(seed, **kwargs)
    assert np.array_equal(ens.states, states)
    assert np.array_equal(ens.flags, flags)


def test_em_concurrent_ensembles_equal_their_serial_runs():
    """Two ensembles stepped at once on two threads, with the interpreter
    switching threads as often as it can, match their serial runs bit for
    bit: each call draws its normals into a buffer of its own."""
    runs = [dict(potential=quadratic_potential(0.0), x0=0.25, dt=5e-3, T=1.0, count=2000,
                 seed=3, domain=box_domain(0.0, 0.75)),
            dict(potential=quadratic_potential(1.0), x0=0.0, dt=5e-3, T=1.0, count=2000,
                 seed=4)]
    serial = [euler_maruyama(**kwargs) for kwargs in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(euler_maruyama, **kwargs) for kwargs in runs]
            concurrent = [fut.result(timeout=120) for fut in futures]
    finally:
        sys.setswitchinterval(interval)
    for one, other in zip(serial, concurrent):
        assert np.array_equal(one.states, other.states)
        assert np.array_equal(one.flags, other.flags)


@pytest.mark.parametrize("name, value", [
    ("count", 0), ("count", -3), ("dt", float("nan")), ("dt", 0.0), ("T", float("inf")),
    ("T", 5e-3), ("x0", ()),
    # a box of 2 coordinates for a point of 1, and of 3 for a point of 2
    ("domain", box_domain((0.0, 0.0), (1.0, 0.5))),
    ("domain", dict(domain=box_domain((0.0, 0.0, 0.0), (1.0, 1.0, 1.0)), x0=(0.0, 0.0))),
    ("x0", dict(domain=box_domain(1e-11, 1.0))),
])
def test_em_rejects_bad_arguments_before_any_step(name, value):
    calls = []

    def grad(x):
        calls.append(x.shape)
        return x

    kwargs = dict(potential=Potential(value=lambda x: 0.0, grad=grad), x0=0.0, dt=1e-2,
                  T=1.0, count=4, seed=0)
    with pytest.raises(PathError, match="^%s " % name):
        euler_maruyama(**{**kwargs, **(value if isinstance(value, dict) else {name: value})})
    assert calls == []


def test_reflected_paths_stay_inside():
    dom = box_domain(0.0, 1.0)
    ens = euler_maruyama(quadratic_potential(0.0), 0.5, 1e-3, 1.0, 200, seed=4, domain=dom)
    assert np.all(ens.states >= -1e-12)
    assert np.all(ens.states <= 1.0 + 1e-12)


def test_reflected_folded_normal_ks():
    dom = box_domain(0.0, np.inf)
    ens = euler_maruyama(quadratic_potential(0.0), 0.0, 1e-3, 0.5, 10000, seed=6,
                         domain=dom)
    final = ens.states[:, -1, 0]
    ks = scipy.stats.kstest(final, lambda x: folded_normal_cdf(x, np.sqrt(2 * 0.5)))
    assert ks.pvalue >= 0.01


def test_reflected_interior_matches_free():
    # away from the boundary the confined sampler reproduces free EM exactly
    dom = box_domain(-100.0, 100.0)
    v = quadratic_potential(1.0)
    free = euler_maruyama(v, 0.0, 1e-3, 0.2, 50, seed=8)
    confined = euler_maruyama(v, 0.0, 1e-3, 0.2, 50, seed=8, domain=dom)
    assert np.allclose(free.states, confined.states, atol=1e-12)


def test_reflected_occupation_chi2():
    dom = box_domain(0.0, 1.0)
    ens = euler_maruyama(quadratic_potential(0.0), 0.25, 5e-4, 1.5, 4000, seed=11,
                         domain=dom)
    final = ens.states[:, -1, 0]
    hist, _ = np.histogram(final, bins=10, range=(0.0, 1.0))
    chi2 = scipy.stats.chisquare(hist)
    assert chi2.pvalue >= 0.01


def test_extract_fdd_point_mass_and_functoriality():
    space = Torus(2 * np.pi, np.pi / 2)
    times = np.linspace(0.0, 0.5, 6)
    ens = sample_kernel_chain(space, "base", times, 100, seed=13)
    single = extract_fdd(ens, [0.0])
    assert len(np.unique(single, axis=0)) == 1  # all paths start at base

    from mmlab import CollapseMap
    circle = Circle(2 * np.pi)
    cmap = CollapseMap(circle, lambda x: np.asarray(x, dtype=float)[..., 0], np.pi / 4)
    mapped = extract_fdd(ens, [0.2, 0.4], cmap)
    raw = extract_fdd(ens, [0.2, 0.4])

    def aggregate(rows):
        uniq, inv = np.unique(rows[:, 0].round(12), return_inverse=True)
        w = np.zeros(len(uniq))
        np.add.at(w, inv, np.full(len(rows), 1.0 / len(rows)))
        return uniq, w

    ua, wa = aggregate(mapped)
    ub, wb = aggregate(raw)
    assert np.allclose(ua, ub) and np.allclose(wa, wb)


def _count_measured_paths(monkeypatch):
    """The number of paths each distance call of the modulus scan measures,
    in call order (one call per lag)."""
    measured = []
    real = paths._pair_distance

    def counted(ensemble, a, b):
        measured.append(len(a))
        return real(ensemble, a, b)

    monkeypatch.setattr(paths, "_pair_distance", counted)
    return measured


def test_modulus_trivial_cases(monkeypatch):
    measured = _count_measured_paths(monkeypatch)
    times = np.linspace(0.0, 1.0, 41)
    const = PathEnsemble(times, np.zeros((50, 41, 1)), Circle(2 * np.pi),
                         np.zeros(50, dtype=bool))
    assert modulus_statistic(const, 1.0, [0.1], 0.5) == [0.0]
    # no path ever passes delta: every lag within eta = 4 steps measures all
    assert measured == [50] * 4
    measured.clear()
    moving = sample_kernel_chain(Circle(2 * np.pi), "base", times, 50, seed=14)
    assert modulus_statistic(moving, 1.0, [0.1], 0.0) == [1.0]
    # every moving path passes delta = 0 at lag 1, so no later lag is measured
    assert measured == [50]


def test_modulus_grid_too_coarse_rejected():
    times = np.linspace(0.0, 1.0, 11)  # step 0.1 > 0.2/4
    ens = sample_kernel_chain(Circle(2 * np.pi), "base", times, 10, seed=15)
    with pytest.raises(PathError):
        modulus_statistic(ens, 1.0, [0.2], 0.5)


def test_modulus_rejects_a_grid_without_time_zero():
    # a grid from 0.0125 would shorten every window by its first lag
    times = np.arange(0, 0.3 + 1e-12, 0.0125)
    ens = sample_kernel_chain(Circle(2 * np.pi), "base", times, 10, seed=16, record=times[1:])
    with pytest.raises(PathError):
        modulus_statistic(ens, 0.3, (0.4, 0.05), 0.5)


def test_modulus_monotone_in_eta():
    times = np.arange(0, 0.3 + 1e-12, 0.0125)
    ens = sample_kernel_chain(Circle(2 * np.pi), "base", times, 3000, seed=16)
    stats = modulus_statistic(ens, 0.3, (0.4, 0.2, 0.1, 0.05), 0.5)
    assert all(b <= a for a, b in zip(stats, stats[1:]))


def _ring(n):
    pts = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    dist = np.abs(pts[:, None] - pts[None, :])
    dist = np.minimum(dist, 2 * np.pi - dist)
    return FiniteMms(dist=dist, weights=np.full(n, 2 * np.pi / n), base_index=0)


@pytest.mark.parametrize("space", [Circle(2 * np.pi), Torus(2 * np.pi, np.pi, n_nodes=(64, 32)),
                                   _ring(16)], ids=["circle", "torus", "finite"])
def test_modulus_multi_eta_equals_per_eta_loop(space):
    times = np.arange(0, 0.5 + 1e-12, 0.0125)
    ens = sample_kernel_chain(space, "base", times, 500, seed=31)
    etas = (0.07, 0.33, 0.05, 0.111, 0.2)  # unsorted, mostly off the 0.0125 grid

    def dist(a, b):
        return _pair_distance(ens, a, b)

    seen, by_delta = set(), {}
    # delta 2.0: most paths never pass it; delta -1: every path passes at lag 1
    for T, delta in [(0.3, 0.5), (0.5, 0.8), (0.5, 2.0), (0.3, -1.0)]:
        stats = modulus_statistic(ens, T, etas, delta)
        assert stats == [modulus_statistic_loop(ens.times, ens.states, T, eta, delta, dist)
                         for eta in etas]
        seen.update(stats)
        by_delta[delta] = stats
    assert len(seen) >= 4
    assert 0 < max(by_delta[2.0]) < 1
    assert by_delta[-1.0] == [1.0] * len(etas)


@pytest.mark.parametrize("space", [Circle(2 * np.pi), Torus(2 * np.pi, np.pi, n_nodes=(64, 32)),
                                   _ring(16), EuclideanLogConcave(1, quadratic_potential(1.0))],
                         ids=["circle", "torus", "finite", "line"])
def test_modulus_measures_only_the_paths_still_under_delta(monkeypatch, space):
    times = np.arange(0, 0.5 + 1e-12, 0.0125)
    ens = sample_kernel_chain(space, "base", times, 500, seed=32)
    n_t = len(times)
    under = np.ones(ens.count, dtype=bool)
    expected = []
    for lag in range(1, 17):  # the lags within eta = 0.2
        expected.append(int(np.sum(under)))
        d = _pair_distance(ens, ens.states[:, :n_t - lag], ens.states[:, lag:])
        assert d.shape == (ens.count, n_t - lag)
        under &= ~np.any(d > 1.0, axis=1)
    measured = _count_measured_paths(monkeypatch)
    modulus_statistic(ens, 0.5, (0.05, 0.2), 1.0)
    assert measured == expected
    assert expected[0] > expected[-1] > 0


def test_modulus_on_a_line_matches_a_per_path_loop():
    # a kernel-chain ensemble on a 1-D log-concave line stores (count, n_t, 1)
    # states; each pair of times is one distance, not a norm over time
    space = EuclideanLogConcave(1, quadratic_potential(1.0))
    times = np.arange(0, 0.5 + 1e-12, 0.0125)
    ens = sample_kernel_chain(space, "base", times, 300, seed=33)
    etas, delta = (0.05, 0.2), 0.5
    expected = []
    for eta in etas:
        lags = int(round(eta / 0.0125))
        passed = 0
        for path in ens.states[:, :, 0]:
            passed += any(abs(path[j] - path[i]) > delta
                          for i in range(len(path)) for j in range(i + 1, min(i + lags + 1, len(path))))
        expected.append(passed / ens.count)
    assert modulus_statistic(ens, 0.5, etas, delta) == expected
    assert 0 < expected[0] < expected[1] < 1


def test_modulus_step_rule_uses_smallest_eta():
    times = np.linspace(0.0, 1.0, 11)
    ens = sample_kernel_chain(Circle(2 * np.pi), "base", times, 10, seed=15)
    modulus_statistic(ens, 1.0, [0.4], 0.5)
    with pytest.raises(PathError):
        modulus_statistic(ens, 1.0, [0.4, 0.2], 0.5)


def test_kolmogorov_exponent():
    times = np.arange(0, 0.75 + 1e-12, 0.0125)
    ens = sample_kernel_chain(Circle(2 * np.pi), "base", times, 8000, seed=17)
    out = kolmogorov_moment(ens, 4.0, [0.25, 0.5], [0.0125, 0.025, 0.05, 0.1])
    # E d^4 ~ (2h)^2 * 3 for small h: theta = 2 for Brownian motion
    assert 1.7 <= out["theta_hat"] <= 2.3
    assert all(r["moment"] >= 0 for r in out["rows"])


def test_initial_law_from_measure():
    from mmlab import DiscreteMeasure
    space = Circle(2 * np.pi)
    mu = DiscreteMeasure([[0.0], [np.pi]], [0.5, 0.5])
    times = np.linspace(0.0, 0.1, 3)
    ens = sample_kernel_chain(space, mu, times, 4000, seed=18)
    starts = ens.states[:, 0, 0]
    frac = np.mean(np.isclose(starts, np.pi))
    assert abs(frac - 0.5) <= 0.05
