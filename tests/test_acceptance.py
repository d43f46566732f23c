"""Acceptance gate: ten quantitative criteria, one verdict line each.

Each test exercises the library end to end at the stated tolerances and
budgets, records a single PASS/FAIL line (echoed in the terminal summary), and
enforces its own wall-clock budget.
"""

import csv
import json
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from mmlab import (
    Circle,
    DiscreteMeasure,
    FiniteMms,
    Interval,
    Torus,
    entropy_convexity_check,
    entropy_identity_check,
    get_kernel,
    kr_dual_bound,
    mcshane_extend,
    mixing_bound_check,
    on_diagonal,
    quadratic_potential,
    spectral_gap,
    wasserstein_1d,
    wasserstein_exact,
    EuclideanLogConcave,
)
from mmlab.cli import SCENARIOS, ScenarioConfig, _jsonable, circle_functions, main as cli_main
from mmlab.cli import run_cone, run_custom_finite, run_ou, run_reflected, run_torus
from mmlab.cli import validate_dict, write_csv

from conftest import record_criterion
from _oracles import random_measure, wasserstein_vertex


def random_finite(rng, n):
    pts = rng.normal(size=(n, 2))
    dist = np.linalg.norm(pts[:, None] - pts[None, :], axis=2)
    w = rng.random(n) + 0.1
    return FiniteMms(dist=dist, weights=w, base_index=0, coords=pts)


REPO = Path(__file__).resolve().parent.parent
GOLDEN_RTOL = 1e-10


def run_bundled(scenario, runner):
    """Run the bundled ``scripts/<scenario>.json`` config in-process; returns
    (checks, tables, elapsed seconds, config)."""
    raw = json.loads((REPO / "scripts" / ("%s.json" % scenario)).read_text())
    if "finite_file" in raw:
        raw["finite_file"] = str(REPO / raw["finite_file"])
    assert validate_dict(raw) == []
    cfg = ScenarioConfig(**raw)
    t0 = time.monotonic()
    with ThreadPoolExecutor(max_workers=4) as pool:
        checks, tables = runner(cfg, pool)
    return checks, tables, time.monotonic() - t0, cfg


@pytest.fixture(scope="module")
def torus_results():
    return run_bundled("torus_collapse", run_torus)


@pytest.fixture(scope="module")
def cone_results():
    return run_bundled("cone_interval", run_cone)


@pytest.fixture(scope="module")
def ou_results():
    return run_bundled("ou_family", run_ou)


@pytest.fixture(scope="module")
def reflected_results():
    return run_bundled("reflected_family", run_reflected)


@pytest.fixture(scope="module")
def finite_results():
    return run_bundled("custom_finite", run_custom_finite)


GOLDEN = {"torus_collapse": "torus_results", "cone_interval": "cone_results",
          "ou_family": "ou_results", "reflected_family": "reflected_results",
          "custom_finite": "finite_results"}


def test_every_scenario_has_golden_tables():
    assert sorted(SCENARIOS) == sorted(GOLDEN)


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def is_number(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


@pytest.mark.parametrize("scenario", sorted(GOLDEN))
def test_golden_tables(scenario, request, tmp_path):
    """Every table of a bundled scenario, written as ``lab run`` writes it,
    matches the committed ``out/<scenario>/`` table: numeric cells to a
    relative 1e-10, every other cell exactly; its checks carry the names and
    statuses of the committed ``report.json``, in its order."""
    checks, tables = request.getfixturevalue(GOLDEN[scenario])[:2]
    golden_dir = REPO / "out" / scenario
    report = json.loads((golden_dir / "report.json").read_text())
    assert [(c["name"], c["status"]) for c in checks] == [
        (c["name"], c["status"]) for c in report["checks"]]
    assert sorted(tables) == sorted(p.stem for p in golden_dir.glob("*.csv"))
    for name, rows in tables.items():
        write_csv(str(tmp_path / name), _jsonable(rows))
        got = read_csv(tmp_path / name)
        want = read_csv(golden_dir / ("%s.csv" % name))
        assert len(got) == len(want), name
        for line, (row, ref) in enumerate(zip(got, want)):
            assert len(row) == len(ref), (name, line)
            for cell, expected in zip(row, ref):
                if is_number(expected) and is_number(cell):
                    assert float(cell) == pytest.approx(
                        float(expected), rel=GOLDEN_RTOL, abs=0.0), (name, line)
                else:
                    assert cell == expected, (name, line)


# each gated check's largest ratio, as (table, value column, budget column)
RATIO_TABLES = {"fdd_gaps": ("fdd", "gap", "budget"), "pathlaw_w1": ("pathlaw", "w1", "bound"),
                "marginal_w2": ("marginal_w2", "gap", "budget")}


@pytest.mark.parametrize("scenario", ["torus_collapse", "cone_interval", "ou_family"])
def test_gated_checks_report_their_largest_ratio(scenario, request):
    checks, tables = request.getfixturevalue(GOLDEN[scenario])[:2]
    committed = {c["name"]: c for c in json.loads(
        (REPO / "out" / scenario / "report.json").read_text())["checks"]}
    gated = [c for c in checks if c["name"] in RATIO_TABLES]
    assert len(gated) == 2
    for check in gated:
        table, value, budget = RATIO_TABLES[check["name"]]
        assert check["max_ratio"] == max(r[value] / r[budget] for r in tables[table])
        assert check["max_ratio"] == pytest.approx(committed[check["name"]]["max_ratio"],
                                                   rel=GOLDEN_RTOL, abs=0.0)


def test_criterion_1_kernel_algebra():
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    ok = True
    analytic = [Circle(2 * np.pi), Torus(2 * np.pi, 2 * np.pi / 4), Interval(0.0, 1.0)]
    ts = np.arange(0.1, 2.01, 0.1)
    for space in analytic:
        sk = get_kernel(space)
        pts = sk.points
        for _ in range(8):
            x = pts[rng.integers(len(pts))]
            y = pts[rng.integers(len(pts))]
            ok &= abs(sk.kernel_value(0.3, x, y) - sk.kernel_value(0.3, y, x)) <= 1e-10
        row = sk.kernel_row(0.2, space.base_point)
        ok &= abs(float(np.sum(sk.weights * row)) - 1.0) <= 1e-9
        composed = sk.apply_values(0.5, row)
        ok &= float(np.max(np.abs(composed - sk.kernel_row(0.7, space.base_point)))) <= 1e-8
        diag = [on_diagonal(space, t, space.base_point) for t in ts]
        ok &= all(b <= a + 1e-12 for a, b in zip(diag, diag[1:]))
    for _ in range(5):
        space = random_finite(rng, int(rng.integers(5, 21)))
        sk = get_kernel(space)
        p1, p2, p3 = (sk.transition_matrix(t) for t in (0.2, 0.5, 0.7))
        m = space.weights
        sym = m[:, None] * p1
        ok &= float(np.max(np.abs(sym - sym.T))) <= 1e-10
        ok &= float(np.max(np.abs(p1 @ p2 - p3))) <= 1e-12
        ok &= float(np.max(np.abs(p1.sum(axis=1) - 1.0))) <= 1e-9
        diag = [on_diagonal(space, t, space.base_index) for t in ts]
        ok &= all(b <= a + 1e-12 for a, b in zip(diag, diag[1:]))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    assert record_criterion(1, "kernel algebra on analytic and finite models", ok)


def test_criterion_2_transport_oracles():
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    knots = np.linspace(-4, 4, 9)
    family = [(lambda x, k=k: abs(float(np.atleast_1d(x)[0]) - k), 1.0) for k in knots]
    ok = True
    for _ in range(200):
        dim = int(rng.integers(1, 3))
        a, wa = random_measure(rng, 4, dim)
        b, wb = random_measure(rng, 4, dim)
        mu, nu = DiscreteMeasure(a, wa), DiscreteMeasure(b, wb)
        p = int(rng.integers(1, 3))
        val, _ = wasserstein_exact(p, mu, nu)
        ok &= abs(val - wasserstein_vertex(p, a, wa, b, wb)) <= 1e-9
        if dim == 1:
            w1, _ = wasserstein_exact(1, mu, nu)
            ok &= kr_dual_bound(mu, nu, family) <= w1 + 1e-10
    for _ in range(100):
        a, wa = random_measure(rng, 6, 1)
        b, wb = random_measure(rng, 6, 1)
        mu, nu = DiscreteMeasure(a, wa), DiscreteMeasure(b, wb)
        p = int(rng.integers(1, 3))
        lp, _ = wasserstein_exact(p, mu, nu)
        ok &= abs(lp - wasserstein_1d(p, mu, nu)) <= 1e-9
        ok &= kr_dual_bound(mu, nu, family) <= wasserstein_1d(1, mu, nu) + 1e-10
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    assert record_criterion(2, "transport optimum vs vertex enumeration and quantiles", ok)


def test_criterion_3_spectral_mixing():
    t0 = time.monotonic()
    rng = np.random.default_rng(303)
    ok = abs(spectral_gap(Circle(2 * np.pi)) - 1.0) <= 1e-9
    spaces = [Circle(2 * np.pi), Interval(0.0, 1.0), Torus(2 * np.pi, np.pi / 2),
              random_finite(rng, 15)]
    for space in spaces:
        sk = get_kernel(space)
        trials = [rng.standard_normal(len(sk.points)) for _ in range(100)]
        out = mixing_bound_check(space, [0.1, 0.5, 1.0, 2.0], trials)
        ok &= out["pass"]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 10.0
    assert record_criterion(3, "exponential L2 mixing at the spectral gap rate", ok)


def test_criterion_4_mcshane():
    t0 = time.monotonic()
    rng = np.random.default_rng(404)
    metric = lambda x, y: abs(float(x) - float(y))
    ok = True
    for _ in range(100):
        n = int(rng.integers(2, 8))
        pts = np.sort(rng.uniform(-2, 2, n))
        H = float(rng.uniform(0.5, 3.0))
        incr = rng.uniform(-1, 1, n) * H
        vals = np.cumsum(incr * np.diff(np.concatenate([[pts[0] - 1], pts])))
        ext = mcshane_extend(pts, vals, H, metric)
        for p, v in zip(pts, vals):
            ok &= ext(p) == pytest.approx(v, abs=1e-12)
        probes = rng.uniform(-4, 4, 46)
        evals = np.asarray([ext(p) for p in probes])
        ok &= float(np.min(evals)) >= float(np.min(vals)) - 1e-12
        ok &= float(np.max(evals)) <= float(np.max(vals)) + 1e-12
        diff = np.abs(evals[:, None] - evals[None, :])
        dmat = np.abs(probes[:, None] - probes[None, :])
        ok &= bool(np.all(diff <= H * dmat + 1e-9))  # 46*45/2 > 1000 pairs
    elapsed = time.monotonic() - t0
    ok &= elapsed < 5.0
    assert record_criterion(4, "Lipschitz extension: constants, bounds, exactness", ok)


def test_criterion_5_torus_scenario(torus_results):
    checks, tables, elapsed, cfg = torus_results
    lips = {f.name: f.lip for f in circle_functions().values()}
    ok = True
    for f_name, lip in lips.items():
        rows = [r for r in tables["fdd"] if r["f"] == f_name]
        for r in rows:
            ok &= r["gap"] <= lip * np.pi / r["label"] + 1e-6
        # gap-plus-budget is the honest monotone quantity here: the raw gaps
        # sit at quadrature level because these functions factor through the
        # collapsed coordinate
        series = [r["gap_plus_budget"] for r in rows]
        ok &= all(b < a for a, b in zip(series, series[1:]))
    for r in tables["pathlaw"]:
        ok &= r["w1"] <= r["baseline"] + 2 * np.pi / r["label"] + 3 * r["se"]
    ok &= elapsed < 180.0
    assert record_criterion(5, "torus-to-circle fdd gaps and path-law distance", ok)


def test_criterion_6_ou_family(ou_results):
    # the bundled ou_family config: n_grid [1, 2, 4, 8], dt 1e-3
    checks, tables, elapsed, cfg = ou_results
    rows = tables["marginal_w2"]
    ok = all(r["gap"] <= r["budget"] for r in rows)
    w2 = [r["w2"] for r in rows]
    ok &= all(b < a for a, b in zip(w2, w2[1:]))
    closed = [r["closed_form"] for r in rows]
    ok &= all(1.4 <= a / b <= 2.6 for a, b in zip(closed, closed[1:]))
    ok &= elapsed < 120.0
    assert record_criterion(6, "OU marginal W2 matches the closed Gaussian form", ok)


def test_criterion_7_reflected_family(reflected_results):
    # the bundled reflected_family config: n_grid [1, 2, 4, 8], dt 5e-4
    checks, tables, elapsed, cfg = reflected_results
    ks = tables["occupation_ks"][0]
    ok = ks["pvalue"] >= 0.01
    w1 = [r["w1"] for r in tables["marginal_w1"]]
    ok &= all(b < a for a, b in zip(w1, w1[1:]))
    ok &= elapsed < 120.0
    assert record_criterion(7, "reflected occupation uniform; growing-domain W1 decay", ok)


def test_criterion_8_tightness(torus_results):
    t0 = time.monotonic()
    checks, tables, _, cfg = torus_results
    ok = True
    labels = ["limit"] + cfg.n_grid
    for label in labels:
        stats = [r["statistic"] for r in tables["modulus"] if r["label"] == label]
        ok &= len(stats) == len(cfg.modulus_eta)
        ok &= all(b <= a for a, b in zip(stats, stats[1:]))
        ok &= stats[-1] < stats[0]  # genuine decrease across the eta range
    theta = [c for c in checks if c["name"] == "kolmogorov_theta"][0]
    ok &= 1.7 <= theta["theta_hat"] <= 2.3
    elapsed = time.monotonic() - t0
    ok &= elapsed < 120.0
    assert record_criterion(8, "modulus statistic decay and Kolmogorov exponent", ok)


def test_criterion_9_entropy_suite():
    t0 = time.monotonic()
    rng = np.random.default_rng(909)
    space = EuclideanLogConcave(1, quadratic_potential(1.0))
    pts, w = space.quadrature()
    ok = True
    for _ in range(20):
        center = rng.uniform(-1.5, 1.5)
        width = rng.uniform(0.3, 1.2)
        rho = np.exp(-0.5 * ((pts - center) / width) ** 2)
        rho /= np.sum(w * rho)
        out = entropy_identity_check(space, float(rng.uniform(0.3, 2.0)), rho)
        ok &= out["pass"] and abs(out["residual"]) <= 1e-6
    qs = (np.arange(512) + 0.5) / 512
    mu0 = DiscreteMeasure(-1.0 + 0.8 * scipy.stats.norm.ppf(qs))
    mu1 = DiscreteMeasure(1.5 + 1.2 * scipy.stats.norm.ppf(qs))
    flat = entropy_convexity_check(None, mu0, mu1, 0.0, [0.25, 0.5, 0.75])
    logref = lambda x: -0.5 * x * x - 0.5 * np.log(2 * np.pi)
    curved = entropy_convexity_check(logref, mu0, mu1, 1.0, [0.25, 0.5, 0.75])
    ok &= flat["pass"] and curved["pass"]
    elapsed = time.monotonic() - t0
    ok &= elapsed < 30.0
    assert record_criterion(9, "entropy reference identity and displacement convexity", ok)


def test_criterion_10_determinism(tmp_path):
    pts = np.linspace(0.0, 2 * np.pi, 12, endpoint=False)
    dist = np.abs(pts[:, None] - pts[None, :])
    dist = np.minimum(dist, 2 * np.pi - dist)
    FiniteMms(dist=dist, weights=np.full(12, 2 * np.pi / 12),
              base_index=0).save(tmp_path / "space.txt")
    configs = [
        {"scenario": "custom_finite", "finite_file": str(tmp_path / "space.txt"),
         "mc_count": 500, "seed": 31},
        {"scenario": "reflected_family", "n_grid": [2, 4], "mc_count": 2000,
         "seed": 31},
    ]
    ok = True
    for i, raw in enumerate(configs):
        cfg_file = tmp_path / ("cfg%d.json" % i)
        cfg_file.write_text(json.dumps(raw))
        out_a = tmp_path / ("a%d" % i)
        out_b = tmp_path / ("b%d" % i)
        ok &= cli_main(["run", str(cfg_file), "--out", str(out_a)]) == 0
        ok &= cli_main(["run", str(cfg_file), "--out", str(out_b), "--threads", "4"]) == 0
        for name in sorted(p.name for p in out_a.iterdir()):
            ok &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    assert record_criterion(10, "repeated scenario runs are byte-identical", ok)
