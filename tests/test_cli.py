import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import mmlab.cli as cli
import mmlab.paths as paths
from mmlab import Circle, FiniteMms, get_kernel, quadratic_potential
from mmlab.cli import ScenarioConfig, main, validate_dict
from mmlab.convergence import BASELINE_PARTS
from mmlab.paths import time_grid
from mmlab.spaces import SpaceError


def write_finite(path, n=12):
    pts = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    dist = np.abs(pts[:, None] - pts[None, :])
    dist = np.minimum(dist, 2 * np.pi - dist)
    FiniteMms(dist=dist, weights=np.full(n, 2 * np.pi / n), base_index=0).save(path)


def write_config(path, **overrides):
    cfg = {"scenario": "custom_finite", "mc_count": 500, "seed": 7}
    cfg.update(overrides)
    with open(path, "w") as fh:
        json.dump(cfg, fh)


def test_list_scenarios(capsys):
    assert main(["list-scenarios"]) == 0
    out = capsys.readouterr().out
    for name in ("torus_collapse", "cone_interval", "ou_family",
                 "reflected_family", "custom_finite"):
        assert name in out


def test_validate_reports_field_paths(capsys):
    errors = validate_dict({"scenario": "nope", "mc_count": -3, "times": [0.5, "x"]})
    joined = "\n".join(errors)
    assert "scenario" in joined
    assert "mc_count" in joined
    assert "times" in joined


def test_validate_command(tmp_path, capsys):
    good = tmp_path / "good.json"
    write_finite(tmp_path / "space.txt")
    write_config(good, finite_file=str(tmp_path / "space.txt"))
    assert main(["validate", str(good)]) == 0
    bad = tmp_path / "bad.json"
    bad.write_text('{"scenario": "unknown"}')
    assert main(["validate", str(bad)]) == 1
    capsys.readouterr()


# a run that got past validation would be short: few paths, one member
SMALL = '"mc_count": 8, "n_grid": [2]'
# finite space files the configs below name, written into the working directory
FINITE_FILES = {"coincident.txt": "2 0\n0.5 0.5\n0 0\n0 0\n", "one_atom.txt": "1 0\n1.0\n0\n"}


@pytest.mark.parametrize("text, problem", [
    ('{"scenario": "ou_family", "dt": NaN}', "dt: "),
    ('{"scenario": "ou_family", "mc_count": null}', "mc_count: "),
    ('{"scenario": "ou_family", "n_grid": null, "mc_count": 8}', "n_grid: "),
    ('{"scenario": "ou_family", "times": null, %s}' % SMALL, "times: "),
    ('{"scenario": "ou_family", "out_dir": 5, %s}' % SMALL, "out_dir: "),
    ('{"scenario": "ou_family", "out_dir": "", %s}' % SMALL, "out_dir: "),
    ('{"scenario": "cone_interval", "n_grid": [0.5], "mc_count": 8}', "n_grid: "),
    ('{"scenario": "reflected_family", "n_grid": [1.2], "mc_count": 8}',
     "n_grid: the box [0, 1 - 1/n] of n=1.2 leaves out the start 0.25"),
    ('{"scenario": "ou_family", "seed": -1, %s}' % SMALL, "seed: "),
    ('{"scenario": []}', "scenario: "),
    ('[1, 2]', "config must be a JSON object"),
    ('{"scenario": "custom_finite", "finite_file": "coincident.txt"}',
     "finite_file: two distinct atoms at distance 0"),
    ('{"scenario": "custom_finite", "finite_file": "one_atom.txt"}',
     "finite_file: 1 atom; the run needs at least 2"),
])
def test_validate_rejects_what_the_run_would_crash_on(tmp_path, capsys, monkeypatch, text,
                                                      problem):
    monkeypatch.chdir(tmp_path)
    for name, body in FINITE_FILES.items():
        (tmp_path / name).write_text(body)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == 1
    assert "error: " + problem in capsys.readouterr().out
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert "error: " + problem in capsys.readouterr().out
    assert not (tmp_path / "out").exists()


def test_validate_has_a_rule_for_every_field():
    for f in fields(ScenarioConfig):
        errors = validate_dict({"scenario": "torus_collapse", f.name: {}})
        assert any(e.startswith(f.name + ": ") for e in errors), f.name


def test_validate_allows_zero_only_in_seed_and_fdd_budget_scale():
    # fdd_budget_scale is no longer a field (cli.OU_FDD_SLACK), so only seed is left
    assert validate_dict({"scenario": "ou_family", "seed": 0}) == []
    for name in ("mc_count", "dt"):
        errors = validate_dict({"scenario": "ou_family", name: 0})
        assert len(errors) == 1 and errors[0].startswith(name + ": must be a ")


def test_validate_rejects_grids_that_do_not_increase():
    for name in cli.INCREASING:
        errors = validate_dict({"scenario": "ou_family", name: [0.5, 0.5]})
        assert errors == ["%s: must be strictly increasing" % name]


def test_validate_rejects_torus_times_off_the_path_grid(tmp_path, capsys):
    # the torus paths are stored every min(MODULUS_ETA)/4 = 0.0125
    cfg = tmp_path / "torus.json"
    cfg.write_text(json.dumps({"scenario": "torus_collapse", "times": [0.25, 0.7501]}))
    assert main(["validate", str(cfg)]) == 1
    assert "times: time 0.7501 not on the grid" in capsys.readouterr().out
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    assert validate_dict({"scenario": "torus_collapse"}) == []


def test_validate_rejects_reflected_dt_off_the_read_times():
    # t = 1.0 and T = 1.5 are not multiples of dt = 7e-4
    errors = validate_dict({"scenario": "reflected_family", "dt": 7e-4})
    assert len(errors) == 2 and all(e.startswith("dt: ") for e in errors)
    assert validate_dict({"scenario": "reflected_family", "dt": 2.5e-4}) == []


@pytest.mark.parametrize("dt, accepted", [(5e-4, True), (2.5e-4, True), (5e-3, True),
                                          (0.25, True), (0.5, True), (7e-4, False)])
def test_reflected_runs_every_dt_that_validate_accepts(tmp_path, dt, accepted):
    # the members stop at the first read time and the limit at the horizon,
    # so each dt that puts both on its grid must run to a complete report
    raw = {"scenario": "reflected_family", "n_grid": [2], "mc_count": 40, "dt": dt}
    errors = validate_dict(raw)
    assert (errors == []) is accepted
    if not accepted:
        assert errors and all(e.startswith("dt: ") for e in errors)
        return
    _, report = _run_report(tmp_path, **raw)
    assert report["incomplete"] is False


def test_reflected_keeps_every_member_with_a_nonempty_box(tmp_path):
    # n = 1.5 reflects into [0, 1/3], which holds the start 0.25; the box
    # of n = 4/3 ends on it
    raw = {"scenario": "reflected_family", "n_grid": [1.5, 2, 4], "mc_count": 200}
    assert validate_dict(raw) == [] and validate_dict({**raw, "n_grid": [4 / 3]}) == []
    _, report = _run_report(tmp_path, **raw)
    assert report["incomplete"] is False
    assert "degenerate_members" not in [c["name"] for c in report["checks"]]
    for table in ("exact_law", "marginal_w1"):
        with open(tmp_path / "out" / ("%s.csv" % table)) as fh:
            labels = [row["label"] for row in csv.DictReader(fh)]
        assert labels[-3:] == ["1.5", "2", "4"], table


def test_reflected_names_each_member_it_skips(tmp_path):
    _, report = _run_report(tmp_path, scenario="reflected_family", n_grid=[0.5, 1, 2],
                            mc_count=40)
    [check] = [c for c in report["checks"] if c["name"] == "degenerate_members"]
    assert check == {"name": "degenerate_members", "status": "skipped",
                     "reason": "n=0.5, n=1 give an empty domain"}


def test_validate_rejects_ou_dt_off_the_read_time():
    # time_grid(0.3, 1.0) ends at 0.9; dt = 2 gives a grid of t = 0 alone
    for dt in (0.3, 2.0):
        errors = validate_dict({"scenario": "ou_family", "dt": dt})
        assert len(errors) == 1 and errors[0].startswith("dt: time 1 not on the grid")
    assert validate_dict({"scenario": "ou_family", "dt": 0.25}) == []


def test_torus_constant_read_times_lie_on_the_path_grid():
    # no config sets these times, so no validation rule checks them
    reads = [t + h for t in cli.KOLMOGOROV_T for h in cli.KOLMOGOROV_H] + [cli.MODULUS_T]
    for t in reads:
        assert cli.grid_index(cli.TORUS_GRID, t) > 0, t


def test_torus_reads_follow_from_the_read_constants():
    reads = cli._torus_reads([0.25, 0.75])
    window = cli.TORUS_GRID[:cli.grid_index(cli.TORUS_GRID, cli.MODULUS_T) + 1]
    pairs = [t + h for t in cli.KOLMOGOROV_T for h in (0.0,) + cli.KOLMOGOROV_H]
    want = sorted({cli.grid_index(cli.TORUS_GRID, t)
                   for t in [*window, 0.25, 0.75, *pairs]})
    assert np.array_equal(reads, cli.TORUS_GRID[want])
    # on the bundled times: 32 of the 81 grid times, and nothing past 0.75,
    # so each chain takes 60 of its 80 steps
    assert (len(reads), len(cli.TORUS_GRID)) == (32, 81)
    assert cli.grid_index(cli.TORUS_GRID, reads[-1]) == 60
    later = cli._torus_reads([0.25, 0.9])
    assert np.array_equal(later, np.append(reads[:-1], cli.TORUS_GRID[72]))


# a torus run small enough to repeat once per recorded time
TINY_TORUS = ScenarioConfig(scenario="torus_collapse", n_grid=[1, 2], mc_count=400, bins=4)


def _torus_outputs(tmp_path, monkeypatch, name, reads):
    """The files of a tiny torus run whose chains keep the times ``reads``,
    and the ensembles it sampled."""
    made = []

    def spy(*args):
        made.append(paths.sample_kernel_chain(*args))
        return made[-1]

    monkeypatch.setattr(cli, "_torus_reads", lambda times: reads)
    monkeypatch.setattr(cli, "sample_kernel_chain", spy)
    out = tmp_path / name
    cli.run_scenario(TINY_TORUS, out_dir=str(out))
    return {p.name: p.read_bytes() for p in out.iterdir()}, made


def test_torus_recorded_chains_write_the_full_grid_tables(tmp_path, monkeypatch, capsys):
    reads = cli._torus_reads(TINY_TORUS.times)
    recorded, made = _torus_outputs(tmp_path, monkeypatch, "recorded", reads)
    full, made_full = _torus_outputs(tmp_path, monkeypatch, "full", cli.TORUS_GRID)
    assert recorded == full
    assert {"pathlaw.csv", "modulus.csv", "kolmogorov.csv"} <= set(recorded)
    assert len(made) == len(made_full) == 3
    for ens, whole in zip(made, made_full):
        assert np.array_equal(ens.times, reads)
        assert np.array_equal(ens.states, whole.states[:, np.isin(whole.times, reads)])
    capsys.readouterr()


def test_every_time_the_torus_chains_keep_is_read(tmp_path, monkeypatch, capsys):
    # dropping a kept time must make the run fail or change a table; with
    # t = 0 dropped, the modulus scan would otherwise start at 0.0125
    reads = cli._torus_reads(TINY_TORUS.times)
    ref, _ = _torus_outputs(tmp_path, monkeypatch, "all", reads)
    for i, t in enumerate(reads):
        got, _ = _torus_outputs(tmp_path, monkeypatch, "drop%d" % i, np.delete(reads, i))
        assert got != ref, t
    capsys.readouterr()


def test_validate_rejects_more_torus_bins_than_limit_nodes():
    # 512 bins would put a node of the 256-node limit grid on a bin edge
    for bins in (257, 512):
        errors = validate_dict({"scenario": "torus_collapse", "bins": bins})
        assert len(errors) == 1 and errors[0].startswith("bins: at most 256")
    assert validate_dict({"scenario": "torus_collapse", "bins": cli.TORUS_NODES}) == []


# the ten statistic parameters that were config fields, now constants in cli,
# each with a value the field accepted; a config that sets one is refused
REMOVED_KEYS = {"eps_entropy": 0.1, "path_T": 1.0, "modulus_eta": [0.4, 0.2, 0.1, 0.05],
                "modulus_delta": 0.5, "modulus_T": 0.3, "kolmogorov_beta": 4.0,
                "kolmogorov_h": [0.0125, 0.025, 0.05, 0.1], "fdd_budget_scale": 0.5,
                "ks_level": 0.01, "test_functions": ["cos"]}


@pytest.mark.parametrize("key", sorted(REMOVED_KEYS))
def test_validate_rejects_the_removed_statistic_keys(tmp_path, capsys, key):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scenario": "torus_collapse", "mc_count": 8, "n_grid": [2],
                               key: REMOVED_KEYS[key]}))
    assert main(["validate", str(cfg)]) == 1
    assert capsys.readouterr().out == "error: %s: unknown key\n" % key
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().out == "error: %s: unknown key\n" % key
    assert not (tmp_path / "out").exists()


def test_validate_rejects_a_cone_mesh_below_its_minimum_resolution():
    errors = validate_dict({"scenario": "cone_interval", "resolution": 3})
    assert len(errors) == 1 and errors[0].startswith("resolution: ")
    assert "at least %d" % cli.CONE_MIN_RESOLUTION in errors[0]
    assert validate_dict({"scenario": "cone_interval", "resolution": 4}) == []
    # only the cone runner meshes a cone
    assert validate_dict({"scenario": "torus_collapse", "resolution": 3}) == []


def test_cone_kernels_hold_no_atom_by_atom_matrix(monkeypatch):
    spaces = []
    real = cli.set_generator

    def spy(space, generator):
        spaces.append(space)
        real(space, generator)

    monkeypatch.setattr(cli, "set_generator", spy)
    cfg = ScenarioConfig(scenario="cone_interval", n_grid=[1, 2], mc_count=8, resolution=6)
    with ThreadPoolExecutor(2) as pool:
        cli.run_cone(cfg, pool)
    assert len(spaces) == 3
    # after every P_t of the run, a kernel's own arrays are still O(n):
    # no generator and no transition matrix stay on it
    for space in spaces:
        sk = vars(space)["_kernel"]
        held = sum(v.size for v in vars(sk).values() if isinstance(v, np.ndarray))
        assert held < space.n ** 2


def test_cone_run_takes_no_eigendecomposition_larger_than_a_ring_block(monkeypatch):
    # a member's dense eigh would see its 1 + res^2 atoms; the ring blocks
    # and the limit chain are at most res + 1 square
    shapes = []
    real = np.linalg.eigh

    def spy(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    res = 6
    cfg = ScenarioConfig(scenario="cone_interval", n_grid=[1, 2], mc_count=8, resolution=res)
    with ThreadPoolExecutor(2) as pool:
        cli.run_cone(cfg, pool)
    assert shapes
    assert all(max(s[-2:]) <= res + 1 for s in shapes), shapes


class _MembersBuilt(Exception):
    pass


def _bundled_cone_members(monkeypatch):
    """The members of the bundled cone run with ``run_cone``'s collapse maps:
    the run stops where it builds its family."""
    raw = json.loads((Path(__file__).resolve().parent.parent / "scripts"
                      / "cone_interval.json").read_text())
    built = []

    def stop(members, limit):
        built.extend(members)
        raise _MembersBuilt

    monkeypatch.setattr(cli, "SpaceFamily", stop)
    with ThreadPoolExecutor(2) as pool, pytest.raises(_MembersBuilt):
        cli.run_cone(ScenarioConfig(**raw), pool)
    return raw["resolution"], built


def _lumping_spread(transition: np.ndarray, classes: np.ndarray) -> float:
    """The largest difference between two rows of one class after the
    columns of ``transition`` are summed over each class."""
    lumped = transition @ np.eye(classes.max() + 1)[classes]
    return max(float(np.ptp(lumped[classes == c], axis=0).max())
               for c in np.unique(classes))


@pytest.mark.parametrize("split", [False, True], ids=["rings", "split-ring"])
def test_cone_members_lump_onto_the_rings_of_their_collapse_map(monkeypatch, split):
    # every cone kernel is invariant under turning the rings, and the rings
    # are the orbits of that turn, so summed over each ring's columns P_t
    # gives one row from every atom of the ring: the chain read through the
    # collapse map is a Markov chain (Kemeny and Snell, "Finite Markov
    # Chains", ch. 6).  Splitting a ring in two lumps nothing.
    res, members = _bundled_cone_members(monkeypatch)
    assert [n for n, _, _ in members] == [1, 2, 4, 8]
    for _, space, cmap in members:
        atoms = np.arange(space.n)
        rings = cmap.map(atoms).astype(int)
        if split:
            rings = np.where((rings == res // 2) & ((atoms - 1) % res < res // 2),
                             res + 1, rings)
        kernel = get_kernel(space)
        for t in (0.25, 0.5):
            spread = _lumping_spread(kernel.transition_matrix(t), rings)
            assert (spread <= 1e-13) != split, spread


@pytest.mark.parametrize("second", [False, True], ids=["first", "second"])
def test_torus_product_identity_fails_off_the_first_coordinate(monkeypatch, second):
    # collapsing the n = 4 torus onto its short coordinate pulls the circle
    # functions back through another map, so its fdd values leave the limit's
    real = cli.CollapseMap

    def second_coordinate(x):
        return np.asarray(x, dtype=float)[..., 1]

    def collapse(fmap, fiber):
        # the n = 4 member's fiber bound is pi/4, the n = 1 member's pi
        if second and fiber < np.pi / 2:
            fmap = second_coordinate
        return real(fmap, fiber)

    monkeypatch.setattr(cli, "CollapseMap", collapse)
    cfg = ScenarioConfig(scenario="torus_collapse", n_grid=[1, 4], mc_count=8)
    with ThreadPoolExecutor(2) as pool:
        checks, tables = cli.run_torus(cfg, pool)
    [check] = [c for c in checks if c["name"] == "fdd_product_identity"]
    assert check["max_gap"] == max(r["gap"] for r in tables["fdd"])
    assert check["status"] == ("fail" if second else "pass")


@pytest.mark.parametrize("scenario", ["torus_collapse", "cone_interval"])
def test_validate_rejects_too_few_paths_for_the_baseline_halves(scenario):
    errors = validate_dict({"scenario": scenario, "mc_count": 1})
    assert len(errors) == 1 and errors[0].startswith("mc_count: ")
    assert cli.SCENARIOS[scenario].min_paths == BASELINE_PARTS
    assert validate_dict({"scenario": scenario, "mc_count": 2}) == []


def test_validate_rejects_too_few_paths_for_the_ou_parts():
    least = cli.OU_PARTS
    errors = validate_dict({"scenario": "ou_family", "mc_count": least - 1})
    assert len(errors) == 1 and errors[0].startswith("mc_count: ")
    assert "at least %d" % least in errors[0]
    assert validate_dict({"scenario": "ou_family", "mc_count": least}) == []


def test_validate_reports_an_unreadable_finite_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    write_config(cfg, finite_file=str(tmp_path))
    assert main(["validate", str(cfg)]) == 1
    assert "finite_file: " in capsys.readouterr().out
    binary = tmp_path / "space.bin"
    binary.write_bytes(b"\xff\xfe\x00\x81")
    write_config(cfg, finite_file=str(binary))
    assert main(["validate", str(cfg)]) == 1
    assert "finite_file: " in capsys.readouterr().out


def _spy_on_em(monkeypatch, swap=None):
    """Record every (seed, T, ensemble) the runners get from euler_maruyama,
    optionally run with the potential ``swap`` makes of the runner's."""
    made = []
    real = cli.euler_maruyama

    def spy(pot, x0, dt, T, count, seed, **kwargs):
        ens = real(swap(pot) if swap else pot, x0, dt, T, count, seed, **kwargs)
        made.append((seed, T, ens))
        return ens

    monkeypatch.setattr(cli, "euler_maruyama", spy)
    return made


# each ensemble, by the spawn key of its seed: the horizon it steps to and
# the times it keeps; a reflected member is read only at the first time
_REFLECTED_MEMBER = (cli.REFLECTED_READS[0], cli.REFLECTED_READS[:1])


@pytest.mark.parametrize("scenario, expected", [
    ("reflected_family", {(2,): (cli.REFLECTED_T, cli.REFLECTED_READS),
                          (1, 0): _REFLECTED_MEMBER, (1, 1): _REFLECTED_MEMBER}),
    ("ou_family", {(1, 0): (cli.OU_T, (cli.OU_T,)), (1, 1): (cli.OU_T, (cli.OU_T,))})],
    ids=["reflected_family", "ou_family"])
def test_em_runners_keep_only_their_read_times(monkeypatch, scenario, expected):
    made = _spy_on_em(monkeypatch)
    cfg = ScenarioConfig(scenario=scenario, n_grid=[2, 4], mc_count=300, dt=5e-3)
    with ThreadPoolExecutor(2) as pool:
        checks, _ = cli.RUNNERS[scenario](cfg, pool)
    seeds = {cli._seed_for(cfg, *key): key for key in expected}
    assert sorted(seeds[seed] for seed, _, _ in made) == sorted(expected)
    for seed, T, ens in made:
        horizon, reads = expected[seeds[seed]]
        assert T == horizon
        assert ens.times.tolist() == list(reads)
        assert ens.states.shape == (300, len(reads), 1)
    labels = (["limit"] if scenario == "reflected_family" else []) + ["2", "4"]
    assert [c for c in checks if c["name"] == "em_divergence"] == [
        {"name": "em_divergence", "status": "pass", "flagged": dict.fromkeys(labels, 0)}]


def test_em_divergence_fails_the_report(tmp_path, monkeypatch, capsys):
    # V = -50|x|^2/2 multiplies the state by 3.5 per step of 0.05, so every
    # OU path passes the divergence guard before t = 1
    _spy_on_em(monkeypatch, swap=lambda pot: quadratic_potential(-50.0))
    cfg = tmp_path / "ou.json"
    out_dir = tmp_path / "out"
    cfg.write_text(json.dumps({"scenario": "ou_family", "n_grid": [2, 4], "mc_count": 300,
                               "dt": 0.05, "out_dir": str(out_dir)}))
    assert main(["run", str(cfg)]) == 1
    report = json.loads((out_dir / "report.json").read_text())
    assert not report["incomplete"] and not report["pass"]
    [check] = [c for c in report["checks"] if c["name"] == "em_divergence"]
    assert check == {"name": "em_divergence", "status": "fail", "flagged": {"2": 300, "4": 300}}
    header = (out_dir / "marginal_w2.csv").read_text().splitlines()[0]
    assert header == "label,w2,closed_form,gap,budget,pass"
    assert "em_divergence" in capsys.readouterr().out


def _run_report(tmp_path, **cfg):
    path = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    path.write_text(json.dumps({**cfg, "out_dir": str(out_dir)}))
    code = main(["run", str(path)])
    return code, json.loads((out_dir / "report.json").read_text())


def _status_of(report, name):
    [check] = [c for c in report["checks"] if c["name"] == name]
    return check["status"]


@pytest.mark.parametrize("wrong", [False, True])
def test_reflection_on_the_wrong_domain_fails_the_report(tmp_path, monkeypatch, wrong):
    # the limit's paths reflected into [0, 0.9] are not uniform on [0, 1]
    real = cli.box_domain
    if wrong:
        monkeypatch.setattr(cli, "box_domain",
                            lambda lo, hi: real(lo, 0.9 if hi == 1.0 else hi))
    code, report = _run_report(tmp_path, scenario="reflected_family", n_grid=[2, 4],
                               mc_count=2000, dt=5e-3)
    assert code == (1 if wrong else 0)
    assert report["pass"] is not wrong
    assert _status_of(report, "occupation_ks") == ("fail" if wrong else "pass")


@pytest.mark.parametrize("wrong", [False, True])
def test_reflected_members_on_boxes_too_long_fail_exact_law(tmp_path, monkeypatch, wrong):
    # members reflected into [0, 1.02 (1 - 1/n)] pass every check that reads
    # only their samples; only their exact law sees the boxes
    real = cli.box_domain
    if wrong:
        monkeypatch.setattr(cli, "box_domain",
                            lambda lo, hi: real(lo, hi if hi == 1.0 else 1.02 * hi))
    code, report = _run_report(tmp_path, scenario="reflected_family", n_grid=[1, 2, 4, 8],
                               mc_count=10000, dt=5e-3)
    assert code == (1 if wrong else 0)
    assert report["pass"] is not wrong
    assert _status_of(report, "exact_law") == ("fail" if wrong else "pass")
    for name in ("occupation_ks", "marginal_w1_trend", "em_divergence"):
        assert _status_of(report, name) == "pass"
    rows = (tmp_path / "out" / "exact_law.csv").read_text().splitlines()
    assert len(rows) == 1 + 5
    [check] = [c for c in report["checks"] if c["name"] == "exact_law"]
    assert check["level"] == cli.KS_LEVEL / 5


@pytest.mark.parametrize("wrong", [False, True])
def test_ou_members_with_a_doubled_potential_fail_marginal_w2(tmp_path, monkeypatch, wrong):
    made = _spy_on_em(monkeypatch, swap=lambda pot: quadratic_potential(
        (2.0 if wrong else 1.0) * pot.quadratic_coeff))
    code, report = _run_report(tmp_path, scenario="ou_family", n_grid=[2, 4],
                               mc_count=2000, dt=0.01)
    assert len(made) == 2
    assert code == (1 if wrong else 0)
    assert _status_of(report, "marginal_w2") == ("fail" if wrong else "pass")


@pytest.mark.parametrize("wrong", [False, True])
def test_ou_members_with_a_doubled_potential_fail_exact_law(tmp_path, monkeypatch, wrong):
    # each member's chi-squared row sees half the variance of its exact law
    made = _spy_on_em(monkeypatch, swap=lambda pot: quadratic_potential(
        (2.0 if wrong else 1.0) * pot.quadratic_coeff))
    code, report = _run_report(tmp_path, scenario="ou_family", n_grid=[2, 4],
                               mc_count=2000, dt=cli.OU_DT)
    assert len(made) == 2
    assert code == (1 if wrong else 0)
    assert _status_of(report, "exact_law") == ("fail" if wrong else "pass")
    [check] = [c for c in report["checks"] if c["name"] == "exact_law"]
    assert check["level"] == cli.KS_LEVEL / 2
    assert (check["min_pvalue"] < 1e-12) is wrong
    rows = (tmp_path / "out" / "exact_law.csv").read_text().splitlines()
    assert rows[0] == "label,t,sigma,statistic,pvalue,pass" and len(rows) == 1 + 2


@pytest.mark.parametrize("a, dt", [(1.5, 0.01), (2.0, 1e-3), (1.125, 0.05), (0.0, 0.01),
                                   (30.0, 0.1)])
def test_ou_em_sigma_is_the_spread_of_the_recursion(a, dt):
    # Var x_{k+1} = r^2 Var x_k + 2 dt from x_0 = 0, step by step
    var, r = 0.0, 1.0 - a * dt
    for _ in range(len(time_grid(dt, cli.OU_T)) - 1):
        var = r * r * var + 2.0 * dt
    assert cli.ou_em_sigma(a, dt, cli.OU_T) == pytest.approx(np.sqrt(var), rel=1e-12)
    if 0 < a * dt < 0.1:
        continuous = np.sqrt((1.0 - np.exp(-2.0 * a * cli.OU_T)) / a)
        assert abs(cli.ou_em_sigma(a, dt, cli.OU_T) / continuous - 1.0) < a * dt


def test_ou_em_sigma_of_a_diverging_recursion_is_infinite():
    assert cli.ou_em_sigma(1e5, 0.01, cli.OU_T) == np.inf


def test_steep_ou_member_gives_finite_fdd_cells(tmp_path):
    # n = 0.05 is V = 21|x|^2/2, whose far grid nodes overflow exp(V)
    code, report = _run_report(tmp_path, scenario="ou_family", n_grid=[0.05, 1],
                               mc_count=2000, dt=0.005)
    assert not report["incomplete"]
    assert _status_of(report, "fdd_gaps") == "pass"
    rows = (tmp_path / "out" / "fdd.csv").read_text().splitlines()
    header = rows[0].split(",")
    cells = [float(r.split(",")[header.index(c)]) for r in rows[1:] for c in ("value", "gap")]
    assert len(cells) == 12 and np.all(np.isfinite(cells))


@pytest.mark.parametrize("wrong", [False, True])
def test_ou_against_the_wrong_limit_variance_fails_marginal_w2(tmp_path, monkeypatch, wrong):
    # limit quantiles 1.1 times too wide: the n = 4 gap is about 0.096
    # against a budget of about 0.051
    real = cli.ndtri
    monkeypatch.setattr(cli, "ndtri", lambda q: (1.1 if wrong else 1.0) * real(q))
    code, report = _run_report(tmp_path, scenario="ou_family", n_grid=[2, 4],
                               mc_count=2000, dt=cli.OU_DT)
    assert code == (1 if wrong else 0)
    assert _status_of(report, "marginal_w2") == ("fail" if wrong else "pass")


@pytest.mark.parametrize("wrong", [False, True])
def test_torus_against_a_circle_of_the_wrong_circumference_fails(tmp_path, monkeypatch, wrong):
    # only the limit is built 1.1 times too long; the tori are unchanged
    real = cli.Circle
    monkeypatch.setattr(cli, "Circle", lambda length, **kw: real(
        (1.1 if wrong else 1.0) * length, **kw))
    code, report = _run_report(tmp_path, scenario="torus_collapse", n_grid=[1, 2, 4],
                               mc_count=2000)
    assert code == (1 if wrong else 0)
    assert _status_of(report, "fdd_product_identity") == ("fail" if wrong else "pass")


def test_validate_rejects_truncated_finite_file(tmp_path, capsys):
    space_file = tmp_path / "space.txt"
    write_finite(space_file)
    lines = space_file.read_text().splitlines()
    space_file.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(SpaceError):
        FiniteMms.load(space_file)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, finite_file=str(space_file))
    assert main(["validate", str(cfg)]) == 1
    assert "finite_file: " in capsys.readouterr().out
    space_file.write_text("12 0\n1.0 x\n")
    with pytest.raises(SpaceError):
        FiniteMms.load(space_file)


@pytest.mark.parametrize("bad", ["weight", "distance"])
def test_validate_rejects_non_finite_finite_file(tmp_path, capsys, bad):
    # NaN and inf pass every comparison, so only a finiteness check sees them
    space_file = tmp_path / "space.txt"
    write_finite(space_file, n=4)
    lines = space_file.read_text().splitlines()
    if bad == "weight":
        lines[2] = "nan"
    else:
        lines[5:9] = ["0 inf 1 1", "inf 0 1 1", "1 1 0 1", "1 1 1 0"]
    space_file.write_text("\n".join(lines) + "\n")
    cfg = tmp_path / "cfg.json"
    write_config(cfg, finite_file=str(space_file))
    assert main(["validate", str(cfg)]) == 1
    assert "finite_file: " in capsys.readouterr().out


@pytest.mark.parametrize("decades", [6, 8, 12])
def test_validate_rejects_a_finite_file_without_a_kernel(tmp_path, capsys, decades):
    # weights spread over many decades: the default generator's row sums
    # round past its tolerance, so lab run could build no kernel
    rng = np.random.default_rng(0)
    pos = np.sort(rng.random(50))
    space_file = tmp_path / "space.txt"
    FiniteMms(dist=np.abs(pos[:, None] - pos[None, :]),
              weights=10 ** rng.uniform(0, decades, 50)).save(space_file)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, finite_file=str(space_file))
    assert main(["validate", str(cfg)]) == 1
    assert "error: finite_file: generator rows must sum to 0" in capsys.readouterr().out
    write_config(cfg, finite_file=str(Path(__file__).resolve().parent.parent
                                      / "scripts" / "example_finite.txt"))
    assert main(["validate", str(cfg)]) == 0


def test_runner_crash_writes_an_incomplete_report(tmp_path, capsys, monkeypatch):
    def crash(cfg, pool):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.RUNNERS, "custom_finite", crash)
    space_file = tmp_path / "space.txt"
    write_finite(space_file)
    cfg = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    write_config(cfg, finite_file=str(space_file), out_dir=str(out_dir))
    assert main(["run", str(cfg)]) == 1
    report = json.loads((out_dir / "report.json").read_text())
    assert report["incomplete"] and not report["pass"]
    assert report["checks"] == [{"name": "runtime", "status": "fail",
                                 "reason": "RuntimeError: boom"}]
    assert (out_dir / "manifest.json").exists()
    assert "Traceback" in capsys.readouterr().err


def test_run_missing_config(capsys):
    assert main(["run", "/nonexistent/config.json"]) == 1
    assert "error" in capsys.readouterr().out


def test_run_custom_finite_artifacts(tmp_path, capsys):
    space_file = tmp_path / "space.txt"
    write_finite(space_file)
    cfg = tmp_path / "cfg.json"
    out_dir = tmp_path / "out"
    write_config(cfg, finite_file=str(space_file), out_dir=str(out_dir))
    assert main(["run", str(cfg)]) == 0
    report = json.loads((out_dir / "report.json").read_text())
    assert report["pass"] and not report["incomplete"]
    names = {c["name"] for c in report["checks"]}
    assert {"kernel_algebra", "on_diagonal_monotone", "mixing_bound"} <= names
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["seed"] == 7
    assert (out_dir / "kernel_checks.csv").exists()


def test_run_byte_identical(tmp_path):
    space_file = tmp_path / "space.txt"
    write_finite(space_file)
    cfg = tmp_path / "cfg.json"
    write_config(cfg, finite_file=str(space_file), out_dir=str(tmp_path / "a"))
    assert main(["run", str(cfg)]) == 0
    assert main(["run", str(cfg), "--out", str(tmp_path / "b"), "--threads", "3"]) == 0
    for name in os.listdir(tmp_path / "a"):
        left = (tmp_path / "a" / name).read_bytes()
        right = (tmp_path / "b" / name).read_bytes()
        assert left == right, name


def test_config_defaults_documented():
    cfg = ScenarioConfig(scenario="torus_collapse")
    assert cfg.n_grid == [1, 2, 4, 8, 16]
    assert cfg.mc_count == 10000
    assert cfg.times == [0.25, 0.75]


@pytest.mark.parametrize("kind", ["circle", "line", "chain"])
def test_bundled_test_functions_keep_their_declared_constants(kind):
    """|f| <= sup_bound and every difference quotient <= lip on a probe grid,
    under the metric of the limit the functions are declared on; every fdd
    and pmg budget scales with lip."""
    if kind == "circle":
        registry = cli.circle_functions()
        probes = np.linspace(0.0, 2 * np.pi, 360, endpoint=False)
        dist = Circle(2 * np.pi).distance(probes[:, None], probes[None, :])
    elif kind == "line":
        registry = cli.line_functions()
        probes = np.linspace(-5.0, 5.0, 401)
        dist = np.abs(probes[:, None] - probes[None, :])
    else:
        chain = cli._interval_chain(24)
        registry = cli.chain_functions(chain.coords[:, 0])
        probes = np.arange(chain.n)
        dist = chain.distance(probes[:, None], probes[None, :])
    for f in registry.values():
        vals = np.asarray(f(probes), dtype=float)
        assert np.max(np.abs(vals)) <= f.sup_bound + 1e-12, f.name
        assert np.all(np.abs(vals[:, None] - vals[None, :]) <= f.lip * dist + 1e-12), f.name
