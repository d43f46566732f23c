import itertools
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

from mmlab import (
    Circle,
    CollapseMap,
    DiscreteMeasure,
    EuclideanLogConcave,
    FiniteMms,
    Interval,
    LipschitzTestFunction,
    SpaceFamily,
    Torus,
    entropy_tightness,
    extract_fdd,
    fdd_convergence_report,
    get_kernel,
    graph_generator,
    initial_law_w1,
    mcshane_extend,
    mesh_cone,
    pathlaw_w1,
    pmg_test,
    sample_kernel_chain,
    semigroup_apply,
    set_generator,
    wasserstein_exact,
    weighted_measure,
)
import mmlab.convergence as convergence
import mmlab.heat as heat
from mmlab.cli import _interval_chain, chain_functions, circle_functions, line_functions
from mmlab.convergence import (
    ConvergenceError,
    _bin_edges,
    _binned_w1,
    _nested_functional,
    _weighted_rebin,
)
from mmlab.paths import PathEnsemble, make_rng
from mmlab.spaces import SpaceError
from mmlab.transport import unique_rows


def torus_family(ns, nodes=(256, 64)):
    limit = Circle(2 * np.pi, n_nodes=nodes[0])
    members = []
    for n in ns:
        torus = Torus(2 * np.pi, 2 * np.pi / n, n_nodes=nodes)
        cmap = CollapseMap(lambda x: np.asarray(x, dtype=float)[..., 0], np.pi / n)
        members.append((n, torus, cmap))
    return SpaceFamily(members, limit)


COS = LipschitzTestFunction(lambda x: np.cos(np.asarray(x, dtype=float)),
                            lip=1.0, sup_bound=1.0, name="cos")
SIN2 = LipschitzTestFunction(lambda x: 0.5 * np.sin(2 * np.asarray(x, dtype=float)),
                             lip=1.0, sup_bound=0.5, name="sin2")


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_fdd_operator_uniform_bound(seed):
    rng = np.random.default_rng(seed)
    space = Circle(2 * np.pi, n_nodes=256)
    x = float(rng.random() * 2 * np.pi)
    times = np.sort(rng.random(3) * 2.0 + 0.01)
    while np.any(np.diff(times) <= 0):
        times = np.sort(rng.random(3) * 2.0 + 0.01)
    val = _nested_functional(space, None, times, [[COS, SIN2, COS]], x)[0]
    assert abs(val) <= COS.sup_bound * SIN2.sup_bound * COS.sup_bound + 1e-12


def test_fdd_operator_single_time_matches_semigroup():
    space = Circle(2 * np.pi, n_nodes=512)
    from mmlab import get_kernel
    sk = get_kernel(space)
    got = _nested_functional(space, None, [0.4], [[COS]], 0.0)[0]
    ref = float(np.sum(sk.weights * sk.kernel_row(0.4, 0.0) * np.cos(sk.points)))
    assert abs(got - ref) <= 1e-12
    # cos is the first eigenfunction: P_t cos = e^{-t} cos
    assert abs(got - np.exp(-0.4)) <= 1e-8


def _invariant_case(kind):
    """A space whose probability reference m~ is invariant, a test function on
    it, and the transition matrix of its kernel at time t."""
    if kind == "circle":
        space = Circle(2 * np.pi, n_nodes=256)
        f = LipschitzTestFunction(lambda x: np.cos(x) ** 2 + 0.3 * np.sin(x), 1.3, 1.3,
                                  name="f")
        sk = get_kernel(space)

        def transition(t):
            return np.array([sk.kernel_row(t, p) * sk.weights for p in sk.points])
    else:
        rng = np.random.default_rng(11)
        pts = rng.normal(size=(12, 2))
        dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
        space = FiniteMms(dist=dist, weights=rng.random(12) + 0.1, coords=pts)
        set_generator(space, graph_generator(space))
        x = pts[:, 0]
        f = LipschitzTestFunction(lambda idx: np.tanh(x[np.asarray(idx, dtype=int)]),
                                  1.0, 1.0, name="f")
        sk = get_kernel(space)
        transition = sk.transition_matrix
    return space, f, sk, transition


@pytest.mark.parametrize("kind", ["circle", "finite"])
def test_fdd_report_weighted_start_is_invariant(kind):
    # m~ P_t = m~, so the outermost semigroup drops out of the weighted start
    space, f, sk, transition = _invariant_case(kind)
    family = SpaceFamily([("self", space, None)], space)
    _, ref = weighted_measure(space)
    fv = f(sk.points)
    one = fdd_convergence_report(family, [0.3], [f], mode="weighted-start")["rows"][0]
    two = fdd_convergence_report(family, [0.3, 0.8], [f], mode="weighted-start")["rows"][0]
    assert one["mode"] == two["mode"] == "weighted-start"
    expect_one = float(np.sum(ref * fv))
    expect_two = float(np.sum(ref * fv * (transition(0.5) @ fv)))
    for row, expect in [(one, expect_one), (two, expect_two)]:
        assert row["value"] == pytest.approx(expect, rel=0, abs=1e-12)
        assert row["value_limit"] == pytest.approx(expect, rel=0, abs=1e-12)
    # the point start at the base point sees a different number
    point = fdd_convergence_report(family, [0.3, 0.8], [f])["rows"][0]
    assert abs(point["value"] - expect_two) > 1e-3


def test_fdd_operator_rejects_bad_times():
    space = Circle(2 * np.pi)
    with pytest.raises(ConvergenceError):
        _nested_functional(space, None, [0.5, 0.25], [[COS, COS]], 0.0)
    with pytest.raises(ConvergenceError):
        _nested_functional(space, None, [0.5], [[COS, COS]], 0.0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_mcshane_properties(seed):
    rng = np.random.default_rng(seed)
    metric = lambda x, y: abs(float(x) - float(y))
    pts = np.sort(rng.uniform(-2, 2, size=int(rng.integers(2, 8))))
    H = float(rng.uniform(0.5, 3.0))
    # H-Lipschitz values by construction: clipped increments
    vals = np.cumsum(rng.uniform(-1, 1, len(pts)) * H * np.diff(np.concatenate([[pts[0] - 1], pts])))
    ext = mcshane_extend(pts, vals, H, metric)
    for p, v in zip(pts, vals):
        assert abs(ext(p) - v) <= 1e-12
    probes = rng.uniform(-4, 4, 40)
    evals = np.asarray([ext(p) for p in probes])
    assert np.min(evals) >= np.min(vals) - 1e-12
    assert np.max(evals) <= np.max(vals) + 1e-12
    for i in range(len(probes)):
        for j in range(i + 1, len(probes)):
            assert abs(evals[i] - evals[j]) <= H * metric(probes[i], probes[j]) + 1e-9


def test_mcshane_extension_takes_a_batch():
    # the lab calls a test function once on a whole grid of points
    circle = Circle(2 * np.pi, n_nodes=64)
    ext = mcshane_extend([0.0, 1.0, 3.0], [0.0, 0.5, -0.4], 1.0, circle.distance)
    grid = get_kernel(circle).points
    one_by_one = np.asarray([ext(p) for p in grid])
    assert isinstance(ext(grid[3]), float)
    assert np.array_equal(ext(grid), one_by_one)
    assert np.array_equal(ext(grid.reshape(8, 8)), one_by_one.reshape(8, 8))
    assert np.array_equal(semigroup_apply(circle, 0.1, ext),
                          semigroup_apply(circle, 0.1, one_by_one))
    family = torus_family([2, 4], nodes=(64, 8))
    got = pmg_test(family, [LipschitzTestFunction(ext, 1.0, 0.5)], 1e-6)
    want = pmg_test(family, [LipschitzTestFunction(np.vectorize(ext), 1.0, 0.5)], 1e-6)
    assert [r["gap"] for r in got["rows"]] == [r["gap"] for r in want["rows"]]
    # points with two coordinates: one value per row
    torus = Torus(n_nodes=(8, 4))
    ext2 = mcshane_extend([np.zeros(2), np.ones(2)], [0.0, 0.5], 1.0, torus.distance)
    tgrid = get_kernel(torus).points
    assert isinstance(ext2(tgrid[5]), float)
    assert np.array_equal(ext2(tgrid), [ext2(p) for p in tgrid])
    assert semigroup_apply(torus, 0.1, ext2).shape == (32,)


def test_mcshane_rejects_non_lipschitz_input():
    metric = lambda x, y: abs(float(x) - float(y))
    with pytest.raises(ConvergenceError):
        mcshane_extend([0.0, 1.0], [0.0, 5.0], 1.0, metric)
    with pytest.raises(ConvergenceError):
        mcshane_extend([], [], 1.0, metric)


@pytest.mark.parametrize("fiber", [np.inf, np.nan])
def test_space_family_rejects_a_non_finite_fiber_bound(fiber):
    (label, torus, cmap) = torus_family([2]).members[0]
    with pytest.raises(ConvergenceError, match="fiber bound must be finite"):
        SpaceFamily([(label, torus, CollapseMap(cmap.map, fiber))], Circle())


def test_space_family_over_a_finite_limit_takes_maps_made_before_it():
    # a collapse map names no target, so maps made before their finite limit
    # (here two equal chains, neither the other) build the family
    maps = [CollapseMap(lambda idx: idx, 0.0) for _ in range(2)]
    members = [(n, _interval_chain(6), cmap) for n, cmap in zip((1, 2), maps)]
    limit = _interval_chain(6)
    family = SpaceFamily(members, limit)
    assert [cmap for _, _, cmap in family.members] == maps
    assert pmg_test(family, chain_functions(limit.coords[:, 0]), 0.0)["pass"]


def test_kr_inequality_for_integrals():
    # |nu_n(f) - nu_inf(f)| <= L W_1(nu_n, nu_inf) for Lipschitz f
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = DiscreteMeasure(rng.normal(size=4), rng.dirichlet(np.ones(4)))
        b = DiscreteMeasure(rng.normal(size=5), rng.dirichlet(np.ones(5)))
        w1, _ = wasserstein_exact(1, a, b)
        L = 2.0
        f = lambda x: L * abs(float(np.atleast_1d(x)[0]) - 0.3)
        assert abs(a.integrate(f) - b.integrate(f)) <= L * w1 + 1e-10


def test_pmg_torus_family():
    fam = torus_family([1, 2, 4])
    out = pmg_test(fam, [COS, SIN2], 1e-6)
    assert out["pass"]
    for r in out["rows"]:
        assert r["base_gap"] <= 1e-12


def test_a_collapse_map_written_for_one_point_raises_space_error():
    # x[0] is the batch's first point, not each point's first coordinate
    one_point = CollapseMap(lambda x: x[0], 1.0)
    fam = torus_family([4])
    label, torus, _ = fam.members[0]
    fam = SpaceFamily([(label, torus, one_point)], fam.limit)
    ens = sample_kernel_chain(torus, "base", np.linspace(0.0, 0.5, 3), 500, seed=1)
    with pytest.raises(SpaceError, match=r"shape \(2,\) for 500 points"):
        extract_fdd(ens, [0.25, 0.5], one_point)
    with pytest.raises(SpaceError):
        pmg_test(fam, [COS, SIN2], 1e-6)
    with pytest.raises(SpaceError):
        initial_law_w1(fam)


def test_pmg_log_concave_limit():
    # the OU pair a = 2 against a = 1: the limit's distance to a base point
    # comes back with shape (1,), and pmg_test must still read it as a number
    limit = EuclideanLogConcave(1.0)
    space = EuclideanLogConcave(2.0)
    fam = SpaceFamily([(2, space, CollapseMap(lambda x: x, 0.0))], limit)
    out = pmg_test(fam, line_functions(), convergence.QUAD_TOL)
    assert [r["f"] for r in out["rows"]] == ["clamp", "tanh", "bump"]
    assert all(type(r["base_gap"]) is float and r["base_gap"] == 0.0 for r in out["rows"])
    gaps = {r["f"]: r["gap"] for r in out["rows"]}
    # the tilted references e^{-V - x^2} are N(0, 1/4) and N(0, 1/3); the odd
    # functions integrate to 0 under both, and the bump has a closed form
    assert gaps["clamp"] <= convergence.QUAD_TOL and gaps["tanh"] <= convergence.QUAD_TOL

    def bump_mean(s):
        return erf(1 / (s * np.sqrt(2))) - 2 * s / np.sqrt(2 * np.pi) * (1 - np.exp(-0.5 / s ** 2))

    assert gaps["bump"] == pytest.approx(bump_mean(0.5) - bump_mean(1 / np.sqrt(3)),
                                         abs=convergence.QUAD_TOL)


def test_fdd_report_torus_within_budget():
    fam = torus_family([2, 4])
    out = fdd_convergence_report(fam, [0.25, 0.75], [COS])
    assert out["pass"]
    for r in out["rows"]:
        assert r["gap"] <= r["budget"]
        assert r["budget"] == pytest.approx(2 * COS.lip * np.pi / r["label"] + 1e-6)


def test_fdd_report_torus_values_equal_the_limit():
    # the circle functions factor through the collapsed coordinate, so each
    # torus's product-kernel value is the limit's up to rounding
    fam = torus_family([1, 2, 4, 8, 16])
    out = fdd_convergence_report(fam, [0.25, 0.75], circle_functions())
    assert len(out["rows"]) == 15
    for r in out["rows"]:
        assert abs(r["value"] - r["value_limit"]) <= 1e-12


def test_fdd_report_applies_each_semigroup_once_per_step(monkeypatch):
    calls = []
    real = heat.GaussianKernel.apply_values

    def counted(self, t, values, rows=None):
        calls.append(np.shape(values))
        return real(self, t, values, rows=rows)

    monkeypatch.setattr(heat.GaussianKernel, "apply_values", counted)
    limit = EuclideanLogConcave(1.0)
    members = []
    for n in (1, 2, 4, 8):
        space = EuclideanLogConcave(1.0 + 1.0 / n)
        members.append((n, space, CollapseMap(lambda x: x, 0.0)))
    fns = line_functions()
    out = fdd_convergence_report(SpaceFamily(members, limit), [0.25, 0.75], fns)
    assert calls == [(4096, 3)] * 5
    # rows stay function-major, member-minor
    assert [(r["f"], r["label"]) for r in out["rows"]] == [
        (f.name, n) for f in fns for n in (1, 2, 4, 8)]


# the bundled OU limit and members, an off-centre start on the mirrored grid,
# and the unmirrored grid about base 0.3
OU_STARTS = [(EuclideanLogConcave(a), None) for a in (1.0, 2.0, 1.5, 1.25, 1.125)] + [
    (EuclideanLogConcave(1.0), 2.5), (EuclideanLogConcave(1.5, base=0.3), None)]


@pytest.mark.parametrize("space, start", OU_STARTS,
                         ids=["limit", "n1", "n2", "n4", "n8", "off-centre", "base-0.3"])
def test_nested_functional_row_range_keeps_every_bit(monkeypatch, space, start):
    start = space.base_point if start is None else start
    fns = line_functions()
    lists = [[f, f] for f in fns]
    nested = [[f, g, f] for f, g in zip(fns, fns[::-1])]
    skipped = [_nested_functional(space, None, [0.25, 0.75], lists, start),
               _nested_functional(space, None, [0.1, 0.25, 0.75], nested, start)]
    # a cutoff of 0 keeps every row, so each apply is the full one
    monkeypatch.setattr(convergence, "VISIBLE_WEIGHT", 0.0)
    whole = [_nested_functional(space, None, [0.25, 0.75], lists, start),
             _nested_functional(space, None, [0.1, 0.25, 0.75], nested, start)]
    assert [[v.hex() for v in vals] for vals in skipped] == \
        [[v.hex() for v in vals] for vals in whole]


def test_ou_outermost_step_builds_only_the_rows_its_start_sees(monkeypatch):
    built, asked = [], []
    fill, apply = heat.GaussianKernel._fill_slab, heat.GaussianKernel.apply_values

    def counted(self, slab, mean, var):
        built.append(len(mean))
        return fill(self, slab, mean, var)

    def spied(self, t, values, rows=None):
        asked.append(rows)
        return apply(self, t, values, rows=rows)

    monkeypatch.setattr(heat.GaussianKernel, "_fill_slab", counted)
    monkeypatch.setattr(heat.GaussianKernel, "apply_values", spied)
    limit = EuclideanLogConcave(1.0)
    lists = [[f] * 2 for f in line_functions()]
    _nested_functional(limit, None, [0.25, 0.75], lists, limit.base_point)
    # the range is the span of rows whose start weight reaches the cutoff
    sk = get_kernel(limit)
    (lo, hi), = asked
    weighted = sk.weights * sk.kernel_row(0.25, limit.base_point)
    visible = weighted >= convergence.VISIBLE_WEIGHT * np.max(weighted)
    assert visible[lo] and visible[hi - 1] and not visible[:lo].any() and not visible[hi:].any()
    # 2,048 top rows on the mirrored 4,096-node grid; the start's law sees 1,312
    assert sk._mirror and len(sk.points) == 4096
    assert 0 < sum(built) <= 1344


def test_fdd_report_extra_budgets():
    fam = torus_family([2])
    out = fdd_convergence_report(fam, [0.25], [COS], extra_budgets={2: 0.5})
    assert out["rows"][0]["budget"] == pytest.approx(COS.lip * np.pi / 2 + 1e-6 + 0.5)


def test_pathlaw_self_distance_within_baseline():
    circle = Circle(2 * np.pi, n_nodes=256)
    grid = np.linspace(0.0, 1.0, 81)
    a = sample_kernel_chain(circle, "base", grid, 4000, seed=30)
    b = sample_kernel_chain(circle, "base", grid, 4000, seed=31)
    out = pathlaw_w1([("a", circle, None)], {"a": a}, b, [0.25, 0.75], bins=24, seed=7)
    assert out["check"] == "pathlaw_w1" and out["pass"]
    (row,) = out["rows"]
    assert list(row) == ["label", "w1", "baseline", "se", "fiber_budget", "bin_budget",
                         "bound", "pass"]
    assert row["label"] == "a" and row["fiber_budget"] == 0.0
    assert row["w1"] <= row["baseline"] + 3 * row["se"] + 0.05


def test_pathlaw_rejects_mismatched_time_grids():
    circle = Circle(2 * np.pi, n_nodes=64)
    a = sample_kernel_chain(circle, "base", np.linspace(0.0, 1.0, 5), 50, seed=1)
    b = sample_kernel_chain(circle, "base", np.linspace(0.0, 1.0, 9), 50, seed=2)
    with pytest.raises(ConvergenceError):
        pathlaw_w1([("a", circle, None)], {"a": a}, b, [0.25, 0.75], bins=8)


def test_pathlaw_extracts_the_limit_once_and_builds_no_measure(monkeypatch):
    fam = torus_family([1, 2, 4], nodes=(64, 16))
    grid = np.linspace(0.0, 1.0, 5)
    ensembles = {n: sample_kernel_chain(space, "base", grid, 200, seed=n)
                 for n, space, _ in fam.members}
    limit_ens = sample_kernel_chain(fam.limit, "base", grid, 200, seed=9)
    before = pathlaw_w1(fam.members, ensembles, limit_ens, [0.25, 0.75], bins=8, seed=3)
    laws = []
    extract, measure = convergence.extract_fdd, convergence.DiscreteMeasure

    def counted_extract(ensemble, *args):
        if ensemble.space is fam.limit:
            laws.append("extract_fdd")
        return extract(ensemble, *args)

    def counted_measure(*args):
        laws.append("DiscreteMeasure")
        return measure(*args)

    monkeypatch.setattr(convergence, "extract_fdd", counted_extract)
    monkeypatch.setattr(convergence, "DiscreteMeasure", counted_measure)
    out = pathlaw_w1(fam.members, ensembles, limit_ens, [0.25, 0.75], bins=8, seed=3)
    # the limit's rows serve its law and every split; the rows are binned as
    # they are, so no measure merges them first
    assert laws == ["extract_fdd"]
    assert out == before
    assert [r["label"] for r in out["rows"]] == [1, 2, 4]


def test_pathlaw_rows_do_not_move_when_the_states_round_differently():
    # chain states lie within 1e-12 of the limit's 256-node grid, and the
    # circle bins hold whole nodes, so nudging every state by up to 1e-12
    # (taken mod each period) moves no state across a bin edge
    fam = torus_family([1, 2, 4])
    grid = np.linspace(0.0, 1.0, 5)
    ensembles = {n: sample_kernel_chain(space, "base", grid, 4000, seed=n)
                 for n, space, _ in fam.members}
    limit_ens = sample_kernel_chain(fam.limit, "base", grid, 4000, seed=9)
    rng = np.random.default_rng(4)

    def nudged(ens, periods):
        jitter = rng.uniform(-1e-12, 1e-12, size=ens.states.shape)
        return PathEnsemble(ens.times, np.mod(ens.states + jitter, periods), ens.space)

    moved = {n: nudged(ensembles[n], [2 * np.pi, 2 * np.pi / n]) for n in ensembles}
    before = pathlaw_w1(fam.members, ensembles, limit_ens, [0.25, 0.75], seed=3)
    after = pathlaw_w1(fam.members, moved, nudged(limit_ens, [2 * np.pi]), [0.25, 0.75],
                       seed=3)
    assert after == before


def cone_family(ns, res=6):
    eps = 2.5 / res
    limit = _interval_chain(res)
    set_generator(limit, graph_generator(limit, eps=eps))

    def ring_map(idx):
        idx = np.asarray(idx, dtype=int)
        return np.where(idx == 0, 0, (idx - 1) // res + 1).astype(float)

    members = []
    for n in ns:
        space = mesh_cone(n, res)
        set_generator(space, graph_generator(space, eps=eps))
        members.append((n, space, CollapseMap(ring_map, np.pi * np.sqrt(1.0 / n))))
    return SpaceFamily(members, limit)


@pytest.mark.parametrize("kind", ["torus", "cone"])
def test_pathlaw_rows_through_a_pool_map_equal_the_builtin_map(kind):
    fam = torus_family([1, 2, 4], nodes=(64, 16)) if kind == "torus" else cone_family([1, 2, 4])
    grid = np.array([0.0, 0.25, 0.75])
    ensembles = {n: sample_kernel_chain(space, "base", grid, 600, seed=i)
                 for i, (n, space, _) in enumerate(fam.members)}
    limit_ens = sample_kernel_chain(fam.limit, "base", grid, 600, seed=9)
    serial = pathlaw_w1(fam.members, ensembles, limit_ens, [0.25, 0.75], bins=8, seed=3)
    solved = []
    with ThreadPoolExecutor(2) as pool:
        def pool_map(fn, items):
            items = list(items)
            solved.append(len(items))
            return pool.map(fn, items)

        pooled = pathlaw_w1(fam.members, ensembles, limit_ens, [0.25, 0.75], bins=8, seed=3,
                            map=pool_map)
    # the baseline splits and one pair per member, in one map
    assert solved == [convergence.BASELINE_SPLITS + 3]
    assert pooled["pass"] == serial["pass"]
    assert len(pooled["rows"]) == len(serial["rows"]) == 3
    for a, b in zip(pooled["rows"], serial["rows"]):
        assert list(a.items()) == list(b.items())


def test_pathlaw_bin_budget_is_zero_on_a_finite_limit():
    # the bins of a finite limit are its atoms, so binning moves no mass;
    # on a circle each coordinate's bins are one arc wide
    grid = np.array([0.0, 0.25, 0.75])
    for fam, budget in ((cone_family([1, 2]), 0.0),
                        (torus_family([1, 2], nodes=(64, 16)), 2 * (2 * np.pi / 8))):
        ensembles = {n: sample_kernel_chain(space, "base", grid, 200, seed=i)
                     for i, (n, space, _) in enumerate(fam.members)}
        limit_ens = sample_kernel_chain(fam.limit, "base", grid, 200, seed=9)
        out = pathlaw_w1(fam.members, ensembles, limit_ens, [0.25, 0.75], bins=8, seed=3)
        assert [row["bin_budget"] for row in out["rows"]] == pytest.approx([budget] * 2)


def _ou_family(ns):
    limit = EuclideanLogConcave(1.0)
    return SpaceFamily([(n, EuclideanLogConcave(1.0 + 1.0 / n),
                         CollapseMap(lambda x: x, 0.0)) for n in ns], limit)


@pytest.mark.parametrize("kind", ["ou", "torus", "cone"])
def test_fdd_rows_through_a_pool_map_equal_the_builtin_map(kind):
    if kind == "ou":
        fam, fns = _ou_family([1, 2, 4, 8]), line_functions()
    elif kind == "torus":
        fam, fns = torus_family([1, 2, 4], nodes=(64, 16)), circle_functions()
    else:
        fam = cone_family([1, 2, 4])
        fns = chain_functions(fam.limit.coords[:, 0])
    extra = {n: 0.5 / n for n, _, _ in fam.members}
    serial = fdd_convergence_report(fam, [0.25, 0.75], fns, extra_budgets=extra)
    mapped, threads = [], set()
    with ThreadPoolExecutor(2) as pool:
        def pool_map(fn, items):
            items = list(items)
            mapped.append(len(items))

            def on_pool(item):
                threads.add(threading.current_thread() is threading.main_thread())
                return fn(item)
            return pool.map(on_pool, items)

        pooled = fdd_convergence_report(fam, [0.25, 0.75], fns, extra_budgets=extra,
                                        map=pool_map)
    # the limit's functionals and each member's, in one map off this thread
    assert mapped == [1 + len(fam.members)] and threads == {False}
    assert pooled["pass"] == serial["pass"]
    assert len(pooled["rows"]) == len(serial["rows"]) == len(fns) * len(fam.members)
    for a, b in zip(pooled["rows"], serial["rows"]):
        assert list(a.items()) == list(b.items())


def test_pathlaw_baseline_is_binned_on_the_shared_bins():
    # on the line the bins span the pooled states, so a member that reaches
    # past the limit's range widens the bins of the baseline too
    line = EuclideanLogConcave(0.0)
    grid = np.array([0.0, 0.25, 0.75])
    times = [0.25, 0.75]
    limit_ens = sample_kernel_chain(line, "base", grid, 400, seed=1)
    own = sample_kernel_chain(line, "base", grid, 400, seed=2)
    wide = PathEnsemble(own.times, 3.0 * own.states, line)
    out = pathlaw_w1([("wide", line, None)], {"wide": wide}, limit_ens, times, bins=12, seed=5)
    states = np.stack([limit_ens.state_at(t) for t in times], axis=1)
    pooled = np.concatenate([states, np.stack([wide.state_at(t) for t in times], axis=1)])
    assert pooled.max() > states.max() + 1.0

    def baseline(specs):
        rng = make_rng(5, 7)
        vals = []
        for _ in range(convergence.BASELINE_SPLITS):
            perm = rng.permutation(400)
            a, b = (_weighted_rebin(rows, np.ones(len(rows)), specs)
                    for rows in (states[perm[:200]], states[perm[200:]]))
            vals.append(_binned_w1(line, a, b, specs))
        return float(np.mean(vals))

    shared = [_bin_edges(line, pooled[:, j], 12) for j in range(2)]
    limit_only = [_bin_edges(line, states[:, j], 12) for j in range(2)]
    (row,) = out["rows"]
    assert row["baseline"] == baseline(shared)
    assert row["bin_budget"] == sum(spec[1] for spec in shared)
    assert baseline(limit_only) != pytest.approx(row["baseline"], rel=1e-3)


def uneven_chain(n=9, seed=0):
    pos = np.cumsum(np.random.default_rng(seed).uniform(0.05, 1.0, n))
    return FiniteMms(dist=np.abs(pos[:, None] - pos[None, :]), weights=np.ones(n), base_index=0)


def non_chain_finite(n=9, seed=0):
    pts = np.random.default_rng(seed).normal(size=(n, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    return FiniteMms(dist=dist, weights=np.ones(n), base_index=0, coords=pts)


def random_atoms(rng, limit, count, k):
    if isinstance(limit, Circle):
        return rng.uniform(-1.0, 2.0, size=(count, k)) * limit.circumference
    if isinstance(limit, Interval):
        # include the right end point, which joins the last bin
        x = rng.uniform(limit.a, limit.b, size=(count, k))
        x[: count // 10] = limit.b
        return x
    return rng.integers(0, limit.n, size=(count, k)).astype(float)


def binned_pair(limit, k, bins, seed):
    rng = np.random.default_rng(seed)
    a = random_atoms(rng, limit, 300, k)
    b = random_atoms(rng, limit, 300, k)
    specs = [_bin_edges(limit, np.concatenate([a[:, j], b[:, j]]), bins) for j in range(k)]
    return (_weighted_rebin(a, rng.dirichlet(np.ones(300)), specs),
            _weighted_rebin(b, rng.dirichlet(np.ones(300)), specs), specs)


def bin_centers(cells, specs):
    """The centers of integer cells, one column per coordinate's bins."""
    return np.stack([lo + (cells[:, j] + 0.5) * width
                     for j, (lo, width, _, _) in enumerate(specs)], axis=1)


def dense_binned_w1(limit, mu, nu, specs):
    """The oracle: the dense transport LP between two binned laws' atoms at
    their bin centers, under the sum over coordinates of the limit's metric."""
    mu_b, nu_b = (DiscreteMeasure(bin_centers(cells, specs), w) for cells, w in (mu, nu))
    # flat pairs: a space may read a trailing axis as one point's coordinates
    rows = np.repeat(mu_b.atoms, len(nu_b.atoms), axis=0)
    cols = np.tile(nu_b.atoms, (len(mu_b.atoms), 1))
    d = sum(np.asarray(limit.distance(rows[:, j], cols[:, j])) for j in range(len(specs)))
    value, _ = wasserstein_exact(1, mu_b, nu_b,
                                 dist_matrix=d.reshape(len(mu_b.atoms), len(nu_b.atoms)))
    return value


@pytest.mark.parametrize("limit,k,bins", [
    (Circle(2 * np.pi), 1, 24), (Circle(2 * np.pi), 2, 12), (Circle(3.0), 3, 5),
    (Interval(-1.0, 2.0), 1, 24), (Interval(0.0, 1.0), 2, 10),
    (uneven_chain(), 1, 0), (uneven_chain(), 2, 0),
])
def test_binned_w1_flow_matches_dense(limit, k, bins):
    for seed in range(3):
        mu, nu, specs = binned_pair(limit, k, bins, seed)
        dense = dense_binned_w1(limit, mu, nu, specs)
        assert abs(_binned_w1(limit, mu, nu, specs) - dense) <= 1e-9
        assert abs(_binned_w1(limit, mu, mu, specs)) <= 1e-12


def test_binned_w1_disjoint_supports_on_circle_arc():
    # supports on two arcs with empty bins between and around them: the
    # cycle through the occupied range closes over bins 22 and 23
    circle = Circle(2 * np.pi)
    specs = [_bin_edges(circle, None, 24)]
    rng = np.random.default_rng(5)
    mu = (np.arange(0, 8)[:, None], rng.dirichlet(np.ones(8)))
    nu = (np.arange(15, 22)[:, None], rng.dirichlet(np.ones(7)))
    dense = dense_binned_w1(circle, mu, nu, specs)
    assert dense > 0
    assert abs(_binned_w1(circle, mu, nu, specs) - dense) <= 1e-12


def test_binned_w1_few_atoms_on_large_grid_take_grid_flow(monkeypatch):
    # 4 x 3 pairs against 24 x 24 cells: the dense plan is the smaller
    # problem, but the grid flow needs no scipy and gives the same value
    circle = Circle(2 * np.pi)
    specs = [_bin_edges(circle, None, 24)] * 2
    mu = (np.array([[0, 0], [0, 23], [5, 9], [23, 23]]), np.full(4, 0.25))
    nu = (np.array([[1, 7], [12, 12], [20, 3]]), np.array([0.5, 0.25, 0.25]))
    dense = dense_binned_w1(circle, mu, nu, specs)
    solved = []
    real = convergence.wasserstein_grid

    def spy(*args):
        solved.append(real(*args))
        return solved[-1]

    monkeypatch.setattr(convergence, "wasserstein_grid", spy)
    assert abs(_binned_w1(circle, mu, nu, specs) - dense) <= 1e-12
    assert len(solved) == 1 and dense > 0


def test_binned_w1_non_chain_finite_limit_raises():
    # the atoms of this limit form no chain, so no grid flow gives its W_1:
    # both binned reports raise rather than solve on the chain's edges
    limit = non_chain_finite()
    with pytest.raises(ConvergenceError, match="chain"):
        initial_law_w1(SpaceFamily([("self", limit, None)], limit))
    states = np.random.default_rng(0).integers(0, limit.n, size=(40, 3))
    ens = PathEnsemble(np.array([0.0, 0.5, 1.0]), states, limit)
    with pytest.raises(ConvergenceError, match="chain"):
        pathlaw_w1([("self", limit, None)], {"self": ens}, ens, [0.5, 1.0])


def _exact_ring_law(space, rings, eps, res):
    """The exact binned law of (X_0.25, X_0.75) of ``space``'s graph chain
    started at its base, pushed to ring indices."""
    set_generator(space, graph_generator(space, eps=eps))
    k = get_kernel(space)
    joint = k.transition_matrix(0.25)[space.base_index][:, None] * k.transition_matrix(0.5)
    law = np.zeros((res + 1, res + 1))
    np.add.at(law, (rings[:, None], rings[None, :]), joint)
    return np.argwhere(law > 0), law[law > 0]


def test_binned_w1_grid_flow_holds_node_balance_on_exact_cone_laws():
    # at HiGHS's default primal feasibility tolerance (1e-7) the flow missed
    # its node balance by 1.1e-8 against a uniform-weight limit, and
    # wasserstein_grid raised
    res, eps = 24, 2.5 / 24
    specs = [(-0.5, 1.0, res + 1, None)] * 2
    chain = _interval_chain(res)
    uniform = FiniteMms(dist=chain.dist, weights=np.full(res + 1, 1.0 / (res + 1)),
                        base_index=0, coords=chain.coords)
    states = np.arange(res + 1)
    uniform_law = _exact_ring_law(uniform, states, eps, res)
    true_law = _exact_ring_law(chain, states, eps, res)
    values = {}
    for n in (1, 2, 4, 8):
        cone = mesh_cone(n, res)
        nodes = np.arange(cone.n)
        law = _exact_ring_law(cone, np.where(nodes == 0, 0, (nodes - 1) // res + 1), eps, res)
        values[n] = (_binned_w1(uniform, law, uniform_law, specs),
                     _binned_w1(chain, law, true_law, specs))
    assert values[1][0] == pytest.approx(0.3468758079057, rel=1e-12)
    # ROADMAP's exact cone path-law W_1 at n = 1
    assert values[1][1] == pytest.approx(0.3542191178370, rel=1e-12)
    assert all(0.3 < v < 0.36 for pair in values.values() for v in pair)


def test_binned_w1_on_circle_bins_matches_cdf_formula():
    # on a circle W_1 = int |F - G - median(F - G)| (median weighted by arc
    # length), here for laws on the centers of the 64 arcs of the initial-law spec
    c = 3.0
    specs = [_bin_edges(Circle(c), None, 64)]
    width = specs[0][1]
    rng = np.random.default_rng(4)
    a = np.sort(rng.choice(64, 40, replace=False))[:, None]
    b = np.sort(rng.choice(64, 30, replace=False))[:, None]
    wa, wb = rng.dirichlet(np.ones(40)), rng.dirichlet(np.ones(30))
    xa, xb = (a[:, 0] + 0.5) * width, (b[:, 0] + 0.5) * width
    cuts = np.concatenate([[0.0], np.sort(np.concatenate([xa, xb])), [c]])
    mids = 0.5 * (cuts[:-1] + cuts[1:])
    h = np.array([wa[xa <= x].sum() - wb[xb <= x].sum() for x in mids])
    lengths = np.diff(cuts)
    order = np.argsort(h)
    median = h[order][np.searchsorted(np.cumsum(lengths[order]), 0.5 * c)]
    ref = float(np.sum(lengths * np.abs(h - median)))
    assert abs(_binned_w1(Circle(c), (a, wa), (b, wb), specs) - ref) <= 1e-9


def test_binned_w1_on_circle_bins_antipodal():
    circle = Circle(2 * np.pi)
    specs = [_bin_edges(circle, None, 64)]
    w1 = _binned_w1(circle, (np.array([[0]]), np.ones(1)), (np.array([[32]]), np.ones(1)),
                    specs)
    assert abs(w1 - np.pi) <= 1e-12


def test_weighted_rebin_interval_endpoint():
    interval = Interval(0.0, 2.0)
    specs = [_bin_edges(interval, None, 4)]
    cells, w = _weighted_rebin(np.array([[0.0], [1.9], [2.0]]), np.full(3, 1 / 3), specs)
    assert cells.tolist() == [[0], [3]]
    assert w == pytest.approx([1 / 3, 2 / 3])
    center = bin_centers(cells, specs)[-1, 0]
    assert interval.a <= center <= interval.b


def test_weighted_rebin_wraps_whole_periods_by_the_bin_index():
    # atoms at bin centres, then moved by whole periods either way: a
    # periodic coordinate wraps by its integer bin index alone
    limit = Circle(2 * np.pi, n_nodes=256)
    specs = [_bin_edges(limit, None, 16)]
    lo, width, count, period = specs[0]
    atoms = lo + (np.arange(count) + 0.5)[:, None] * width
    weights = np.random.default_rng(0).dirichlet(np.ones(count))
    cells, w = _weighted_rebin(atoms, weights, specs)
    assert cells[:, 0].tolist() == list(range(count))
    for k in (-3, -1, 1, 2):
        shifted = _weighted_rebin(atoms + k * period, weights, specs)
        assert np.array_equal(shifted[0], cells) and np.array_equal(shifted[1], w)


def _rebin_by_unique_rows(atoms, weights, specs):
    """_weighted_rebin's cells merged by a lexicographic sort of the rows."""
    cells = np.empty(atoms.shape, dtype=int)
    for j, (lo, width, count, period) in enumerate(specs):
        idx = np.floor((atoms[:, j] - lo) / width).astype(int)
        cells[:, j] = np.mod(idx, count) if period is not None else np.minimum(idx, count - 1)
    uniq, inverse = unique_rows(cells)
    w = np.bincount(inverse, weights=weights, minlength=len(uniq))
    return uniq, w / w.sum()


@pytest.mark.parametrize("seed", range(8))
def test_weighted_rebin_matches_the_unique_rows_route(seed):
    rng = np.random.default_rng(seed)
    circle, interval = Circle(2 * np.pi, n_nodes=256), Interval(0.0, 2.0)
    chain = _interval_chain(6)
    n = 3000
    columns = {
        # whole periods either way: the circle wraps by its bin index
        "circle": rng.uniform(-3.0, 3.0, n) * 2 * np.pi,
        # a third of the rows at the right end, which joins the last bin
        "interval": np.where(rng.random(n) < 0.3, 2.0, rng.uniform(0.0, 2.0, n)),
        # atom indices of a finite limit, one unit bin each
        "chain": rng.integers(0, chain.n, n).astype(float),
        "line": rng.normal(size=n),
    }
    specs = {"circle": _bin_edges(circle, None, 24), "interval": _bin_edges(interval, None, 8),
             "chain": _bin_edges(chain, None, 64),
             "line": _bin_edges(EuclideanLogConcave(1.0), columns["line"], 24)}
    weights = rng.dirichlet(np.ones(n)) * rng.uniform(0.5, 3.0)
    cases = [["circle"], ["chain"], ["circle", "interval"], ["chain", "chain"],
             ["line", "circle", "chain"]]
    # all rows, and the first 150, which leave most cells of a grid empty
    for names, count in itertools.product(cases, (n, 150)):
        atoms = np.stack([columns[k][:count] for k in names], axis=1)
        spec = [specs[k] for k in names]
        cells, masses = _weighted_rebin(atoms, weights[:count], spec)
        ref_cells, ref_masses = _rebin_by_unique_rows(atoms, weights[:count], spec)
        assert cells.dtype == ref_cells.dtype and np.array_equal(cells, ref_cells), names
        assert np.array_equal(masses.view(np.int64), ref_masses.view(np.int64)), names


def test_circle_bins_keep_every_grid_node_off_their_edges():
    # the bins start half a node below 0: up to one bin per node, each grid
    # node lies inside a bin, whatever the rounding of a state near it
    limit = Circle(2 * np.pi, n_nodes=256)
    nodes = limit.grid()
    for bins in range(1, 257):
        lo, width, count, _ = _bin_edges(limit, None, bins)
        edges = lo + np.arange(count + 1) * width
        assert np.min(np.abs(nodes[:, None] - edges[None, :])) > 1e-6, bins


def test_entropy_tightness_finite_sup():
    fam = torus_family([1, 2, 4])
    out = entropy_tightness(fam, 0.1)
    assert out["pass"]
    assert np.isfinite(out["sup"])
    with pytest.raises(ConvergenceError):
        entropy_tightness(fam, -1.0)


def _line_family(a):
    limit = EuclideanLogConcave(1.0)
    member = EuclideanLogConcave(a)
    return SpaceFamily([(a, member, CollapseMap(lambda x: x, 0.0))], limit)


def _two_atom_family():
    limit = FiniteMms(dist=[[0.0, 0.1], [0.1, 0.0]], weights=[0.5, 0.5])
    member = FiniteMms(dist=[[0.0, 0.1], [0.1, 0.0]], weights=[0.25, 0.75])
    return SpaceFamily([(1, member, CollapseMap(lambda idx: idx, 0.0))], limit)


def test_initial_law_w1_on_a_finite_limit_is_in_its_distance():
    (row,) = initial_law_w1(_two_atom_family())["rows"]
    # a quarter of the mass moves across the one edge, of length 0.1
    assert row["w1"] == pytest.approx(0.025, abs=1e-12)


def test_space_family_rejects_repeated_labels():
    circle = Circle(2 * np.pi)
    with pytest.raises(ConvergenceError, match="distinct"):
        SpaceFamily([(1, circle, None), (2, circle, None), (1, circle, None)], circle)


@pytest.mark.parametrize("a", [21.0, 101.0])
def test_initial_law_w1_skips_quadrature_nodes_of_zero_mass(a):
    # a steep member's far nodes underflow to mass 0 (810 of 4096 at a = 21);
    # its tilted reference is N(0, 1/(a+2)) and the limit's N(0, 1/3)
    fam = _line_family(a)
    member = fam.members[0][1]
    assert np.any(weighted_measure(member)[1] == 0)
    (row,) = initial_law_w1(fam)["rows"]
    expect = (1 / np.sqrt(3) - 1 / np.sqrt(a + 2)) * np.sqrt(2 / np.pi)
    assert row["w1"] == pytest.approx(expect, abs=1e-5)


@pytest.mark.parametrize("a", [21.0, 101.0])
def test_entropy_tightness_skips_nodes_of_zero_mass(a):
    # the kernel measure at eps is N(0, s2) with s2 = (1 - e^{-2 a eps}) / a,
    # and the tilted reference N(0, r2) with r2 = 1 / (a + 2); the far nodes
    # of zero reference mass hold kernel mass near 1e-301
    fam = _line_family(a)
    member = fam.members[0][1]
    assert np.any(weighted_measure(member)[1] == 0)
    eps = 0.1
    out = entropy_tightness(fam, eps)
    s2, r2 = -np.expm1(-2 * a * eps) / a, 1 / (a + 2)
    expect = 0.5 * np.log(r2 / s2) + s2 / (2 * r2) - 0.5
    assert out["rows"][0]["entropy"] == pytest.approx(expect, abs=1e-5)
    assert out["pass"] and np.isfinite(out["sup"])


def test_initial_law_w1_small_for_uniform_family():
    fam = torus_family([1, 2, 4])
    out = initial_law_w1(fam)
    for r in out["rows"]:
        # both sides push to the uniform circle measure; only binning error remains
        assert r["w1"] <= 2 * np.pi / 64 + 1e-9


@pytest.mark.parametrize("kind, measures", [("circle", 0), ("finite", 0), ("line", 2)])
def test_initial_law_w1_builds_measures_only_on_the_line(monkeypatch, kind, measures):
    # binned limits bin the mapped nodes as they are; only the quantile
    # formula on the line takes DiscreteMeasures (the limit's and the member's)
    fam = {"circle": lambda: torus_family([1, 2, 4]), "finite": _two_atom_family,
           "line": lambda: _line_family(21.0)}[kind]()
    before = initial_law_w1(fam)
    built = []
    measure = convergence.DiscreteMeasure

    def counted_measure(*args):
        built.append(args)
        return measure(*args)

    monkeypatch.setattr(convergence, "DiscreteMeasure", counted_measure)
    assert initial_law_w1(fam) == before
    assert len(built) == measures
