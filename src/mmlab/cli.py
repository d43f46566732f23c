"""Scenario runner: reproducible convergence experiments from JSON configs.

``lab run config.json`` builds a family of spaces, runs the configured
checks (measure convergence, fdd gaps, path-law W1, tightness, mixing), and
writes report.json, per-check CSV tables, and a manifest with seeds and
versions.  Reruns with the same config are byte-identical.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields
from typing import Callable, Optional

import numpy as np
import scipy
from numpy.random import SeedSequence

from .convergence import (
    BASELINE_PARTS,
    QUAD_TOL,
    LipschitzTestFunction,
    SpaceFamily,
    entropy_tightness,
    fdd_convergence_report,
    initial_law_w1,
    pathlaw_w1,
    pmg_test,
)
from .heat import (
    feller_check,
    get_kernel,
    graph_generator,
    mixing_bound_check,
    on_diagonal,
    set_generator,
    spectral_gap,
)
from .kolmogorov import kstest_uniform, ndtri
from .paths import (
    PathError,
    euler_maruyama,
    grid_index,
    kolmogorov_moment,
    modulus_statistic,
    sample_kernel_chain,
    time_grid,
)
from .spaces import (
    CONE_MIN_RESOLUTION,
    Circle,
    CollapseMap,
    EuclideanLogConcave,
    FiniteMms,
    SpaceError,
    Torus,
    box_domain,
    mesh_cone,
    quadratic_potential,
)
from .transport import DiscreteMeasure, wasserstein_1d


@dataclass
class ScenarioConfig:
    scenario: str
    n_grid: list[float] = field(default_factory=lambda: [1, 2, 4, 8, 16])
    times: list[float] = field(default_factory=lambda: [0.25, 0.75])
    mc_count: int = 10000
    dt: float = None
    seed: int = 1234
    out_dir: str = "out"
    resolution: int = 24
    bins: int = 24
    finite_file: str = None


ZERO_ALLOWED = ("seed",)                     # number fields that may also be 0
INCREASING = ("n_grid", "times")             # lists that must strictly increase
# what a value of each declared field type must be
MUST_BE = {"int": "a {} integer", "float": "a finite {} number", "str": "a nonempty string",
           "list[float]": "a nonempty list of finite {} numbers"}


def _accepts(kind: str, v, zero: bool) -> bool:
    """Whether ``v`` is a value of the declared field type ``kind``; numbers
    must be positive, or non-negative when ``zero``."""
    if kind.startswith("list["):
        return isinstance(v, list) and bool(v) and all(_accepts(kind[5:-1], x, zero) for x in v)
    if kind == "str":
        return isinstance(v, str) and v != ""
    return (isinstance(v, int if kind == "int" else (int, float)) and not isinstance(v, bool)
            and (isinstance(v, int) or math.isfinite(v)) and (v >= 0 if zero else v > 0))


def _field_error(f, raw: dict) -> Optional[str]:
    """The 'field: problem' string of one config field, or None."""
    if f.name not in raw:
        required = f.default is MISSING and f.default_factory is MISSING
        return "%s: required" % f.name if required else None
    v = raw[f.name]
    if v is None:
        return None if f.default is None else "%s: must not be null" % f.name
    zero = f.name in ZERO_ALLOWED
    if not _accepts(f.type, v, zero):
        return "%s: must be %s" % (f.name, MUST_BE[f.type].format(
            "non-negative" if zero else "positive"))
    if f.name in INCREASING and any(b <= a for a, b in zip(v, v[1:])):
        return "%s: must be strictly increasing" % f.name
    return None


def validate_dict(raw) -> list:
    """Schema validation; returns a list of 'field: problem' strings.

    Each ``ScenarioConfig`` field is checked by the rule of its declared type,
    then the scenario's entry in ``SCENARIOS`` adds the errors only it can
    see.  ``lab run`` runs only a config with no errors."""
    if not isinstance(raw, dict):
        return ["config must be a JSON object"]
    known = {f.name for f in fields(ScenarioConfig)}
    errors = ["%s: unknown key" % key for key in raw if key not in known]
    errors += [e for e in (_field_error(f, raw) for f in fields(ScenarioConfig)) if e]
    kind = raw.get("scenario")
    if isinstance(kind, str) and kind not in SCENARIOS:
        errors.append("scenario: unknown kind %r (valid: %s)" % (kind, ", ".join(sorted(SCENARIOS))))
    if errors:
        return errors
    cfg = ScenarioConfig(**raw)
    scenario = SCENARIOS[kind]
    if cfg.mc_count < scenario.min_paths:
        errors.append("mc_count: %s splits its paths into %d parts, so it needs at least "
                      "%d" % (kind, scenario.min_paths, scenario.min_paths))
    return errors + scenario.errors(cfg)


def _seed_for(cfg: ScenarioConfig, *key: int) -> int:
    return int(SeedSequence(entropy=cfg.seed, spawn_key=tuple(key)).generate_state(1)[0])


def _trend_check(name: str, labels, values, strict: bool = True) -> dict:
    if len(values) < 2:
        return {"name": name, "status": "skipped", "reason": "insufficient points"}
    pairs = zip(values, values[1:])
    ok = all((b < a) if strict else (b <= a + 1e-12) for a, b in pairs)
    return {"name": name, "status": "pass" if ok else "fail",
            "labels": list(labels), "values": [float(v) for v in values]}


def _trend_checks(prefix: str, fns, rows: list, key: str, labels, strict: bool) -> list:
    """One ``_trend_check`` per test function over its rows' ``key`` values."""
    return [_trend_check("%s_%s" % (prefix, f.name), labels,
                         [r[key] for r in rows if r["f"] == f.name], strict) for f in fns]


def _status(name: str, ok: bool, **extra) -> dict:
    return {"name": name, "status": "pass" if ok else "fail", **extra}


def _max_ratio(rows, value: str, budget: str) -> float:
    """The largest value/budget over a gated check's rows."""
    return max(r[value] / r[budget] for r in rows)


# --- test-function families -------------------------------------------------

def circle_functions() -> dict:
    return {
        "cos": LipschitzTestFunction(np.cos, 1.0, 1.0, name="cos"),
        "sin": LipschitzTestFunction(np.sin, 1.0, 1.0, name="sin"),
        "halfcos2": LipschitzTestFunction(lambda x: 0.5 * np.cos(2 * x), 1.0, 0.5,
                                          name="halfcos2"),
    }


def line_functions() -> dict:
    return {
        "clamp": LipschitzTestFunction(lambda x: np.clip(x, -1.0, 1.0), 1.0, 1.0,
                                       name="clamp"),
        "tanh": LipschitzTestFunction(np.tanh, 1.0, 1.0, name="tanh"),
        "bump": LipschitzTestFunction(lambda x: np.maximum(0.0, 1.0 - np.abs(x)), 1.0, 1.0,
                                      name="bump"),
    }


def chain_functions(positions: np.ndarray) -> dict:
    """Test functions on a finite 1-D chain, indexed by atom number."""
    pos = np.asarray(positions, dtype=float)

    def on_pos(g):
        return lambda idx: g(pos[np.asarray(idx, dtype=int)])

    return {
        "linear": LipschitzTestFunction(on_pos(lambda x: x), 1.0, 1.0, name="linear"),
        "tent": LipschitzTestFunction(on_pos(lambda x: 0.5 - np.abs(x - 0.5)), 1.0, 0.5,
                                      name="tent"),
        "ramp": LipschitzTestFunction(on_pos(lambda x: np.clip(2 * x - 1, -0.5, 0.5) * 0.5),
                                      1.0, 0.25, name="ramp"),
    }


# --- scenario runners -------------------------------------------------------

# the parameters of the tightness and fdd statistics, which the convergence
# argument fixes; each runner evaluates its whole test-function registry
ENTROPY_EPS = 0.1                    # the kernel time of entropy tightness
PATH_T = 1.0                         # the torus path grid's end, which bounds the times
MODULUS_ETA = (0.4, 0.2, 0.1, 0.05)  # the modulus statistic's window lengths,
MODULUS_DELTA = 0.5                  # its distance threshold
MODULUS_T = 0.3                      # and its horizon
KOLMOGOROV_BETA = 4.0                # the Kolmogorov moment's exponent,
KOLMOGOROV_T = (0.25, 0.5)           # its start times
KOLMOGOROV_H = (0.0125, 0.025, 0.05, 0.1)  # and its lags
OU_FDD_SLACK = 0.5                   # the OU fdd budgets add OU_FDD_SLACK / n
KS_LEVEL = 0.01                      # the reflected occupation test's level
# the torus chains step on multiples of min(MODULUS_ETA)/4, as the modulus
# statistic needs, up to PATH_T, and keep only the times _torus_reads names
TORUS_GRID = time_grid(min(MODULUS_ETA) / 4, PATH_T)
TORUS_GRID.flags.writeable = False
TORUS_NODES = 256                    # grid nodes of the torus limit, the most path-law bins
CONE_PATHS = 4000                    # the cone runner samples at most this many paths
OU_T = 1.0                           # the OU runner's horizon, the one time it reads
OU_DT = 1e-3                         # the OU runner's step when the config sets no dt
REFLECTED_T = 1.5                    # the reflected runner's horizon
# the times its tables read: the limit at both, each member only at the first
REFLECTED_READS = (1.0, REFLECTED_T)
REFLECTED_DT = 5e-4                  # the reflected runner's step when no dt is set
OU_PARTS = 4                         # the OU runner's W2 spread is over this many parts


def _off_grid(grid: np.ndarray, rule: str, reads) -> list:
    """An error for each (field, time) a runner reads that is off its path
    grid; ``rule`` says which times the grid holds."""
    errors = []
    for name, t in reads:
        try:
            grid_index(grid, t)
        except PathError as exc:
            errors.append("%s: %s, which holds the %s" % (name, exc, rule))
    return errors


def _divergence_check(ensembles: dict) -> dict:
    """Fails when the Euler-Maruyama divergence guard froze any path; carries
    the flagged-path count of each ensemble label.  Each ensemble's flags
    cover its own horizon, the last time its runner reads it."""
    flagged = {str(label): int(np.count_nonzero(ens.flags)) for label, ens in ensembles.items()}
    return _status("em_divergence", not any(flagged.values()), flagged=flagged)


def _family_checks(cfg: ScenarioConfig, family: SpaceFamily, fns, pmg_slack=None,
                   fdd_extra=None):
    """The checks every family runner shares, in report order, and their
    tables: measure convergence when ``pmg_slack`` is set (each member's
    tolerance is the largest Lipschitz constant times its fiber bound, plus
    the slack), the point-start fdd gaps with ``fdd_extra`` added to the
    budgets, the initial-law table, and entropy tightness."""
    checks, tables = [], {}
    if pmg_slack is not None:
        max_lip = max(f.lip for f in fns)
        pmg = pmg_test(family, fns, tolerances=[max_lip * cmap.fiber_diameter_bound + pmg_slack
                                                for _, _, cmap in family.members])
        tables["pmg"] = pmg["rows"]
        checks.append(_status("pmg", pmg["pass"]))
    fdd = fdd_convergence_report(family, cfg.times, fns, extra_budgets=fdd_extra)
    tables["fdd"] = fdd["rows"]
    checks.append(_status("fdd_gaps", fdd["pass"],
                          max_ratio=_max_ratio(fdd["rows"], "gap", "budget")))
    tables["initial_law"] = initial_law_w1(family)["rows"]
    et = entropy_tightness(family, ENTROPY_EPS)
    tables["entropy"] = et["rows"]
    checks.append(_status("entropy_tightness", et["pass"], sup=et["sup"]))
    return checks, tables


def _sample_chains(cfg: ScenarioConfig, pool: ThreadPoolExecutor, family: SpaceFamily,
                   grid, count: int, record=None):
    """Kernel-chain ensembles of every member and of the limit, started at
    the base point, kept at the ``record`` times and sampled on the pool."""
    futures = {n: pool.submit(sample_kernel_chain, space, "base", grid, count,
                              _seed_for(cfg, 1, i), record)
               for i, (n, space, _) in enumerate(family.members)}
    limit_future = pool.submit(sample_kernel_chain, family.limit, "base", grid, count,
                               _seed_for(cfg, 2), record)
    return {n: fut.result() for n, fut in futures.items()}, limit_future.result()


def _pathlaw_check(cfg: ScenarioConfig, family: SpaceFamily, ensembles: dict, limit_ens,
                   tables: dict, map: Callable = map) -> dict:
    """The path-law W1 check of the kernel-chain ensembles; adds its table.
    ``pathlaw_w1`` solves its binned W1 pairs through ``map`` (a pool's
    ``map`` spreads them over its threads), which gives them back in order."""
    pl = pathlaw_w1(family.members, ensembles, limit_ens, cfg.times, bins=cfg.bins,
                    seed=_seed_for(cfg, 3), map=map)
    tables["pathlaw"] = pl["rows"]
    return _status("pathlaw_w1", pl["pass"], max_ratio=_max_ratio(pl["rows"], "w1", "bound"))


def _torus_errors(cfg: ScenarioConfig) -> list:
    """Fdd times off the path grid, and more path-law bins than grid nodes."""
    errors = []
    if cfg.bins > TORUS_NODES:
        errors.append("bins: at most %d, the torus limit's grid nodes, so that each bin "
                      "holds whole nodes" % TORUS_NODES)
    return errors + _off_grid(TORUS_GRID, "multiples of %g up to %g" % (TORUS_GRID[1], PATH_T),
                              [("times", t) for t in cfg.times])


def _torus_reads(times) -> np.ndarray:
    """The TORUS_GRID times the torus runner reads: the modulus window up to
    MODULUS_T, the path-law ``times``, and each Kolmogorov pair t, t + h.
    The members and the limit keep the same times, as the path law needs."""
    reads = [*TORUS_GRID[TORUS_GRID <= MODULUS_T + 1e-12], *times,
             *(t + h for t in KOLMOGOROV_T for h in (0.0, *KOLMOGOROV_H))]
    return TORUS_GRID[sorted({grid_index(TORUS_GRID, t) for t in reads})]


def run_torus(cfg: ScenarioConfig, pool: ThreadPoolExecutor):
    limit = Circle(2 * np.pi, n_nodes=TORUS_NODES, normalized=True)
    family = SpaceFamily([
        (n, Torus(2 * np.pi, 2 * np.pi / n, n_nodes=(TORUS_NODES, 64), normalized=True),
         CollapseMap(limit, lambda x: np.asarray(x, dtype=float)[..., 0], np.pi / n))
        for n in cfg.n_grid], limit)
    fns = list(circle_functions().values())
    checks, tables = _family_checks(cfg, family, fns, pmg_slack=1e-6)
    # the circle functions factor through the first coordinate and the torus
    # kernel is a product, so each member's value is the limit's
    max_gap = max(r["gap"] for r in tables["fdd"])
    checks.append(_status("fdd_product_identity", max_gap <= QUAD_TOL, max_gap=max_gap))
    checks += _trend_checks("fdd_trend", fns, tables["fdd"], "gap_plus_budget", cfg.n_grid,
                            strict=True)
    checks.append(_status("initial_law", all(
        r["w1"] <= r["fiber"] + 0.05 for r in tables["initial_law"])))

    ensembles, limit_ens = _sample_chains(cfg, pool, family, TORUS_GRID, cfg.mc_count,
                                          _torus_reads(cfg.times))
    # the modulus statistics run on the pool while the path-law W1 runs here
    labelled = [("limit", limit_ens)] + [(n, ensembles[n]) for n in cfg.n_grid]
    mod_futures = [pool.submit(modulus_statistic, ens, MODULUS_T, MODULUS_ETA, MODULUS_DELTA)
                   for _, ens in labelled]
    checks.append(_pathlaw_check(cfg, family, ensembles, limit_ens, tables))

    mod_rows, mod_ok = [], True
    for (label, _), fut in zip(labelled, mod_futures):
        stats = fut.result()
        mod_rows += [{"label": label, "eta": eta, "statistic": s}
                     for eta, s in zip(MODULUS_ETA, stats)]
        mod_ok &= all(b <= a + 1e-12 for a, b in zip(stats, stats[1:]))
    tables["modulus"] = mod_rows
    checks.append(_status("modulus_monotone", bool(mod_ok)))

    kol = kolmogorov_moment(limit_ens, KOLMOGOROV_BETA, KOLMOGOROV_T, KOLMOGOROV_H)
    tables["kolmogorov"] = kol["rows"]
    checks.append(_status("kolmogorov_theta", 1.7 <= kol["theta_hat"] <= 2.3,
                          theta_hat=kol["theta_hat"], C=kol["C"]))
    return checks, tables


def _interval_chain(resolution: int) -> FiniteMms:
    """1-D chain on [0,1] with the collapsed-cone limit weights (density
    proportional to sqrt(x)), atom layout matching the cone mesh rings."""
    xs = np.linspace(0.0, 1.0, resolution + 1)[1:]
    pos = np.concatenate([[0.0], xs])
    edges = np.concatenate([[0.0], 0.5 * (xs[:-1] + xs[1:]), [1.0]])
    w = np.empty(len(pos))
    ring_w = edges[1:] ** 1.5 - edges[:-1] ** 1.5
    w[0] = 1e-3 * np.min(ring_w)
    w[1:] = ring_w
    w /= w.sum()
    dist = np.abs(pos[:, None] - pos[None, :])
    return FiniteMms(dist=dist, weights=w, base_index=0, coords=pos[:, None])


def _cone_errors(cfg: ScenarioConfig) -> list:
    errors = []
    if min(cfg.n_grid) < 1:
        errors.append("n_grid: the cone mesh needs every entry at least 1")
    if cfg.resolution < CONE_MIN_RESOLUTION:
        errors.append("resolution: the cone mesh needs at least %d" % CONE_MIN_RESOLUTION)
    return errors


def _cone_member(n: float, res: int, eps: float) -> FiniteMms:
    """The n-th cone mesh with its graph generator and eigendecomposition."""
    space = mesh_cone(n, res)
    set_generator(space, graph_generator(space, eps=eps))
    return space


def run_cone(cfg: ScenarioConfig, pool: ThreadPoolExecutor):
    res = cfg.resolution
    eps = 2.5 / res
    # each member's mesh and eigh is one pool task
    futures = [pool.submit(_cone_member, n, res, eps) for n in cfg.n_grid]
    limit = _interval_chain(res)
    set_generator(limit, graph_generator(limit, eps=eps))

    def ring_map(idx):
        idx = np.asarray(idx, dtype=int)
        return np.where(idx == 0, 0, (idx - 1) // res + 1).astype(float)

    members = [(n, fut.result(), CollapseMap(limit, ring_map, np.pi * np.sqrt(1.0 / n)))
               for n, fut in zip(cfg.n_grid, futures)]
    family = SpaceFamily(members, limit)
    fns = list(chain_functions(limit.coords[:, 0]).values())
    grid = np.concatenate([[0.0], np.asarray(cfg.times, dtype=float)])
    ensembles, limit_ens = _sample_chains(cfg, pool, family, grid, min(cfg.mc_count, CONE_PATHS))
    # the shared checks are one pool task, and the path law's W1 solves
    # spread over the pool beside it; only this thread waits on the pool
    shared = pool.submit(_family_checks, cfg, family, fns, pmg_slack=0.05)
    pathlaw_table = {}
    pathlaw = _pathlaw_check(cfg, family, ensembles, limit_ens, pathlaw_table, map=pool.map)
    checks, tables = shared.result()
    checks += _trend_checks("pmg_trend", fns, tables["pmg"], "gap", cfg.n_grid, strict=False)
    checks.append(_trend_check("initial_law_trend", cfg.n_grid,
                               [r["w1"] for r in tables["initial_law"]], strict=False))
    checks.append(pathlaw)
    tables.update(pathlaw_table)
    return checks, tables


def _ou_errors(cfg: ScenarioConfig) -> list:
    return _off_grid(time_grid(cfg.dt or OU_DT, OU_T), "multiples of dt up to %g" % OU_T,
                     [("dt", OU_T)])


def run_ou(cfg: ScenarioConfig, pool: ThreadPoolExecutor):
    dt = cfg.dt or OU_DT
    limit = EuclideanLogConcave(1, quadratic_potential(1.0))
    members = [(n, EuclideanLogConcave(1, quadratic_potential(1.0 + 1.0 / n)),
                CollapseMap(limit, lambda x: x, 0.0)) for n in cfg.n_grid]
    family = SpaceFamily(members, limit)
    # the Euler-Maruyama ensembles sample on the pool while the checks run here
    futures = {n: pool.submit(euler_maruyama, space.potential, 0.0, dt, OU_T,
                              cfg.mc_count, _seed_for(cfg, 1, i), record=(OU_T,))
               for i, (n, space, _) in enumerate(members)}
    fns = list(line_functions().values())
    checks, tables = _family_checks(cfg, family, fns, fdd_extra={
        n: OU_FDD_SLACK / n for n in cfg.n_grid})
    checks += _trend_checks("fdd_trend", fns, tables["fdd"], "gap", cfg.n_grid, strict=False)
    checks.append(_trend_check("initial_law_trend", cfg.n_grid,
                               [r["w1"] for r in tables["initial_law"]]))

    sigma_inf = np.sqrt(1.0 - np.exp(-2.0))
    qs = (np.arange(4096) + 0.5) / 4096
    limit_ref = DiscreteMeasure(ndtri(qs) * sigma_inf)
    ensembles = {n: fut.result() for n, fut in futures.items()}
    rows = []
    for n, space, _ in members:
        final = ensembles[n].states[:, -1, 0]
        w2 = wasserstein_1d(2, DiscreteMeasure(final), limit_ref)
        a_n = 1.0 + 1.0 / n
        closed = abs(np.sqrt((1.0 - np.exp(-2.0 * a_n)) / a_n) - sigma_inf)
        qvals = [wasserstein_1d(2, DiscreteMeasure(q), limit_ref)
                 for q in np.array_split(final, OU_PARTS)]
        gap, budget = abs(w2 - closed), 3 * float(np.std(qvals)) + 10 * dt + 0.01
        rows.append({"label": n, "w2": w2, "closed_form": closed, "gap": gap,
                     "budget": budget, "pass": bool(gap <= budget)})
    tables["marginal_w2"] = rows
    checks.append(_status("marginal_w2", all(r["pass"] for r in rows),
                          max_ratio=_max_ratio(rows, "gap", "budget")))
    checks.append(_trend_check("marginal_w2_trend", cfg.n_grid,
                               [r["w2"] for r in rows]))
    checks.append(_divergence_check(ensembles))
    return checks, tables


def _reflected_errors(cfg: ScenarioConfig) -> list:
    return _off_grid(time_grid(cfg.dt or REFLECTED_DT, REFLECTED_T),
                     "multiples of dt up to %g" % REFLECTED_T,
                     [("dt", t) for t in REFLECTED_READS])


def run_reflected(cfg: ScenarioConfig, pool: ThreadPoolExecutor):
    dt = cfg.dt or REFLECTED_DT
    t_mid, T = REFLECTED_READS
    v0 = quadratic_potential(0.0)
    x0 = 0.25
    checks, tables = [], {}
    limit_future = pool.submit(euler_maruyama, v0, x0, dt, T, cfg.mc_count,
                               _seed_for(cfg, 2), domain=box_domain(0.0, 1.0),
                               record=REFLECTED_READS)
    usable = [n for n in cfg.n_grid if n >= 2]
    # a member is read only at t_mid, so it stops there; its draws come in
    # the same order, and its state at t_mid is the one a run to T would keep
    futures = {n: pool.submit(euler_maruyama, v0, x0, dt, t_mid, cfg.mc_count,
                              _seed_for(cfg, 1, i), domain=box_domain(0.0, 1.0 - 1.0 / n),
                              record=(t_mid,))
               for i, n in enumerate(usable)}
    limit_ens = limit_future.result()

    # long-time occupation sample: disjoint path halves at two well-mixed
    # times, so the pooled KS sample stays independent
    half = cfg.mc_count // 2
    occupation = np.concatenate([
        limit_ens.state_at(t_mid)[:half, 0],
        limit_ens.state_at(T)[half:, 0]])
    statistic, pvalue = kstest_uniform(occupation)
    ks_pass = bool(pvalue >= KS_LEVEL)
    tables["occupation_ks"] = [{"statistic": statistic, "pvalue": pvalue, "pass": ks_pass}]
    checks.append(_status("occupation_ks", ks_pass, pvalue=pvalue))

    limit_marginal = DiscreteMeasure(limit_ens.state_at(t_mid)[:, 0])
    ensembles = {n: fut.result() for n, fut in futures.items()}
    rows = []
    for n in usable:
        emp = DiscreteMeasure(ensembles[n].state_at(t_mid)[:, 0])
        w1 = wasserstein_1d(1, emp, limit_marginal)
        rows.append({"label": n, "w1": w1, "closed_form": 0.5 / n})
    tables["marginal_w1"] = rows
    if len(usable) < len(cfg.n_grid):
        checks.append({"name": "degenerate_members", "status": "skipped",
                       "reason": "n=1 gives an empty domain"})
    checks.append(_trend_check("marginal_w1_trend", usable, [r["w1"] for r in rows]))
    checks.append(_divergence_check({"limit": limit_ens, **ensembles}))
    return checks, tables


def _custom_finite_errors(cfg: ScenarioConfig) -> list:
    if cfg.finite_file is None:
        return ["finite_file: required for custom_finite"]
    if not os.path.exists(cfg.finite_file):
        return ["finite_file: file not found: %s" % cfg.finite_file]
    try:
        space = FiniteMms.load(cfg.finite_file)
    except (SpaceError, OSError, UnicodeDecodeError) as exc:
        return ["finite_file: %s" % exc]
    if space.n < 2:
        return ["finite_file: %d atom; the run needs at least 2" % space.n]
    return []


def run_custom_finite(cfg: ScenarioConfig, pool: ThreadPoolExecutor):
    space = FiniteMms.load(cfg.finite_file)
    sk = get_kernel(space)
    m = space.weights
    ts = [0.1, 0.5, 1.0, 2.0]
    checks, tables = [], {}
    rows = []
    for t in ts:
        p = sk.transition_matrix(t)
        cons = float(np.max(np.abs(p.sum(axis=1) - 1.0)))
        sym = m[:, None] * p
        det = float(np.max(np.abs(sym - sym.T)))
        rows.append({"t": t, "conservativeness": cons, "detailed_balance": det,
                     "pass": bool(cons <= 1e-9 and det <= 1e-9)})
    ck = float(np.max(np.abs(sk.transition_matrix(0.1) @ sk.transition_matrix(0.5)
                             - sk.transition_matrix(0.6))))
    rows.append({"t": 0.6, "conservativeness": ck, "detailed_balance": 0.0,
                 "pass": bool(ck <= 1e-12)})
    tables["kernel_checks"] = rows
    checks.append(_status("kernel_algebra", all(r["pass"] for r in rows)))

    diag = [on_diagonal(space, t, space.base_index) for t in np.arange(0.1, 2.01, 0.1)]
    checks.append(_status("on_diagonal_monotone",
                          all(b <= a + 1e-12 for a, b in zip(diag, diag[1:]))))

    gap = spectral_gap(space)
    checks.append(_status("spectral_gap_positive", gap > 0, gap=gap))

    rng = np.random.default_rng(_seed_for(cfg, 4))
    trials = [rng.standard_normal(space.n) for _ in range(20)]
    mix = mixing_bound_check(space, ts, trials)
    tables["mixing"] = [{"f": r["f"], "t": r["t"], "max_violation": r["max_violation"],
                         "pass": r["pass"]} for r in mix["rows"]]
    checks.append(_status("mixing_bound", mix["pass"]))

    rate = float(np.max(-np.diag(sk.generator)))
    fel = feller_check(space, trials[:3], [0.001 / rate, 0.01 / rate, 0.1 / rate],
                       tol=0.05 * max(np.max(np.abs(f)) for f in trials[:3]))
    tables["feller"] = fel["rows"]
    checks.append(_status("feller", fel["pass"]))
    return checks, tables


@dataclass(frozen=True)
class Scenario:
    """One scenario kind: what it runs, its runner, the config errors only it
    can see, the fewest paths its runner can split, and the scipy modules
    ``main`` imports before the run.

    The lab imports each scipy module inside the function that calls it, so
    a run loads only what it uses.  A module first imported inside the run
    holds up the pool threads that reach it while it loads, so ``imports``
    names the modules the runner always reaches, to be loaded in set-up: the
    transport LP for the torus and the cone, and the cone mesh's graph
    distances."""

    about: str
    run: Callable
    errors: Callable
    min_paths: int
    imports: tuple = ()


SCENARIOS = {
    "torus_collapse": Scenario(
        "flat tori with shrinking second factor collapsing onto a circle",
        run_torus, _torus_errors, BASELINE_PARTS, ("scipy.optimize",)),
    "cone_interval": Scenario(
        "triangulated narrowing cones collapsing onto a weighted interval",
        run_cone, _cone_errors, BASELINE_PARTS, ("scipy.optimize", "scipy.sparse.csgraph")),
    "ou_family": Scenario(
        "Ornstein-Uhlenbeck family V_n = (1+1/n)|x|^2/2 tightening to V = |x|^2/2",
        run_ou, _ou_errors, OU_PARTS),
    "reflected_family": Scenario(
        "reflected Brownian motion on [0,1-1/n] growing to [0,1]",
        run_reflected, _reflected_errors, 1),
    "custom_finite": Scenario(
        "kernel-level checks on a finite space loaded from a flat file",
        run_custom_finite, _custom_finite_errors, 1),
}
RUNNERS = {kind: s.run for kind, s in SCENARIOS.items()}


# --- output -----------------------------------------------------------------

def _fmt(v) -> str:
    if isinstance(v, bool) or isinstance(v, np.bool_):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return "%d" % v
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    if isinstance(v, (list, tuple)):
        return "|".join(_fmt(x) for x in v)
    return str(v)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj


def write_csv(path: str, rows: list) -> None:
    if not rows:
        with open(path, "w") as fh:
            fh.write("\n")
        return
    names = []
    for row in rows:
        for k in row:
            if k not in names:
                names.append(k)
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row.get(k, "")) for k in names) + "\n")


def run_scenario(cfg: ScenarioConfig, threads: int = 1, out_dir: str = None) -> int:
    """Run one scenario on ``threads`` pool workers and write its outputs.

    ``main`` loads ``Scenario.imports`` first, so a direct caller pays those
    scipy imports inside the run.  They stay in ``main``: ``perfbench/child.py``
    times this call as ``run_s``, and ``tests/test_imports.py`` asserts that
    no scipy module is first imported inside it."""
    out = out_dir or cfg.out_dir
    os.makedirs(out, exist_ok=True)
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        try:
            checks, tables = RUNNERS[cfg.scenario](cfg, pool)
            incomplete = False
        except Exception as exc:
            # a crashed runner still leaves a report naming the error
            traceback.print_exc()
            checks, tables = [{"name": "runtime", "status": "fail",
                               "reason": "%s: %s" % (type(exc).__name__, exc)}], {}
            incomplete = True
    report = {
        "scenario": cfg.scenario,
        "checks": _jsonable(checks),
        "incomplete": incomplete,
        "pass": all(c["status"] != "fail" for c in checks),
    }
    with open(os.path.join(out, "report.json"), "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, rows in tables.items():
        write_csv(os.path.join(out, "%s.csv" % name), _jsonable(rows))
    from . import __version__
    manifest = {
        "package": "mmlab",
        "version": __version__,
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "seed": cfg.seed,
        "config": _jsonable(cfg.__dict__),
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for c in report["checks"]:
        line = "%-28s %s" % (c["name"], c["status"].upper())
        if c["status"] == "skipped" and "reason" in c:
            line += " (%s)" % c["reason"]
        print(line)
    print("scenario %s: %s" % (cfg.scenario, "PASS" if report["pass"] else "FAIL"))
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lab",
        description="Run convergence-lab scenarios from JSON configs. "
                    "Defaults: n_grid [1,2,4,8,16], 10000 Monte Carlo paths; "
                    "every numeric field can be overridden in the config file.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="run a scenario config")
    p_run.add_argument("config")
    p_run.add_argument("--threads", type=int, default=1)
    p_run.add_argument("--out", default=None, help="output directory override")
    p_val = sub.add_parser("validate", help="validate a config without running")
    p_val.add_argument("config")
    sub.add_parser("list-scenarios", help="list known scenario kinds")
    args = parser.parse_args(argv)

    if args.command == "list-scenarios":
        for name in sorted(SCENARIOS):
            print("%-18s %s" % (name, SCENARIOS[name].about))
        return 0
    try:
        with open(args.config) as fh:
            raw = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print("error: %s" % exc)
        return 1
    errors = validate_dict(raw)
    if errors:
        for e in errors:
            print("error: %s" % e)
        return 1
    if args.command == "validate":
        print("ok")
        return 0
    cfg = ScenarioConfig(**raw)
    for module in SCENARIOS[cfg.scenario].imports:
        importlib.import_module(module)
    return run_scenario(cfg, threads=args.threads, out_dir=args.out)


if __name__ == "__main__":
    sys.exit(main())
