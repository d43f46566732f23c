import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields

import numpy as np
import pytest

import mmlab.cli as cli
from mmlab import Circle, FiniteMms, quadratic_potential
from mmlab.cli import ScenarioConfig, main, validate_dict
from mmlab.convergence import BASELINE_PARTS
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


@pytest.mark.parametrize("text, problem", [
    ('{"scenario": "ou_family", "dt": NaN}', "dt: "),
    ('{"scenario": "torus_collapse", "path_T": Infinity}', "path_T: "),
    ('{"scenario": "ou_family", "mc_count": null}', "mc_count: "),
    ('{"scenario": "ou_family", "n_grid": null, "mc_count": 8}', "n_grid: "),
    ('{"scenario": "ou_family", "times": null, %s}' % SMALL, "times: "),
    ('{"scenario": "reflected_family", "ks_level": null, %s}' % SMALL, "ks_level: "),
    ('{"scenario": "ou_family", "fdd_budget_scale": null, %s}' % SMALL, "fdd_budget_scale: "),
    ('{"scenario": "ou_family", "fdd_budget_scale": "x", %s}' % SMALL, "fdd_budget_scale: "),
    ('{"scenario": "ou_family", "out_dir": 5, %s}' % SMALL, "out_dir: "),
    ('{"scenario": "ou_family", "out_dir": "", %s}' % SMALL, "out_dir: "),
    ('{"scenario": "cone_interval", "n_grid": [0.5], "mc_count": 8}', "n_grid: "),
    ('{"scenario": "ou_family", "seed": -1, %s}' % SMALL, "seed: "),
    ('{"scenario": []}', "scenario: "),
    ('[1, 2]', "config must be a JSON object"),
])
def test_validate_rejects_what_the_run_would_crash_on(tmp_path, capsys, text, problem):
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
    assert validate_dict({"scenario": "ou_family", "seed": 0, "fdd_budget_scale": 0}) == []
    for name in ("mc_count", "dt", "ks_level"):
        errors = validate_dict({"scenario": "ou_family", name: 0})
        assert len(errors) == 1 and errors[0].startswith(name + ": must be a ")


def test_validate_rejects_grids_that_do_not_increase():
    for name in cli.INCREASING:
        errors = validate_dict({"scenario": "ou_family", name: [0.5, 0.5]})
        assert errors == ["%s: must be strictly increasing" % name]


def test_validate_rejects_torus_times_off_the_path_grid(tmp_path, capsys):
    # the torus paths are stored every min(modulus_eta)/4 = 0.0125
    cfg = tmp_path / "torus.json"
    cfg.write_text(json.dumps({"scenario": "torus_collapse", "times": [0.25, 0.7501]}))
    assert main(["validate", str(cfg)]) == 1
    assert "times: time 0.7501 not on the grid" in capsys.readouterr().out
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
    assert not (tmp_path / "out").exists()
    errors = validate_dict({"scenario": "torus_collapse", "kolmogorov_h": [0.013]})
    assert [e.split(":")[0] for e in errors] == ["kolmogorov_h", "kolmogorov_h"]
    assert validate_dict({"scenario": "torus_collapse"}) == []


def test_validate_rejects_reflected_dt_off_the_read_times():
    # t = 1.0 and T = 1.5 are not multiples of dt = 7e-4
    errors = validate_dict({"scenario": "reflected_family", "dt": 7e-4})
    assert len(errors) == 2 and all(e.startswith("dt: ") for e in errors)
    assert validate_dict({"scenario": "reflected_family", "dt": 2.5e-4}) == []


def test_validate_rejects_a_ks_level_of_one_or_more():
    # occupation_ks passes when p >= ks_level, so a level of 1 or more passes
    # only p = 1, or nothing
    for level in (1.0, 1.5):
        assert validate_dict({"scenario": "reflected_family", "ks_level": level}) == [
            "ks_level: must be below 1"]
    assert validate_dict({"scenario": "reflected_family", "ks_level": 0.5}) == []


def test_validate_rejects_ou_dt_off_the_read_time():
    # time_grid(0.3, 1.0) ends at 0.9; dt = 2 gives a grid of t = 0 alone
    for dt in (0.3, 2.0):
        errors = validate_dict({"scenario": "ou_family", "dt": dt})
        assert len(errors) == 1 and errors[0].startswith("dt: time 1 not on the grid")
    assert validate_dict({"scenario": "ou_family", "dt": 0.25}) == []


def test_validate_rejects_modulus_T_below_the_path_grid_step():
    # the torus paths are stored every min(modulus_eta)/4 = 0.0125
    errors = validate_dict({"scenario": "torus_collapse", "modulus_T": 0.01})
    assert len(errors) == 1 and errors[0].startswith("modulus_T: ")
    assert validate_dict({"scenario": "torus_collapse", "modulus_T": 0.0125}) == []


def test_validate_rejects_unknown_test_functions(tmp_path):
    for kind, good, bad in [("torus_collapse", ["cos", "sin"], ["cos", "tanh"]),
                            ("cone_interval", ["tent"], ["cos"]),
                            ("ou_family", ["bump", "clamp"], ["linear"])]:
        assert validate_dict({"scenario": kind, "test_functions": good}) == []
        errors = validate_dict({"scenario": kind, "test_functions": bad})
        assert len(errors) == 1 and errors[0].startswith("test_functions: unknown ")
        assert bad[-1] in errors[0]
        errors = validate_dict({"scenario": kind, "test_functions": []})
        assert len(errors) == 1 and errors[0].startswith("test_functions: ")
    # these kinds read no test functions, so naming any is an error
    write_finite(tmp_path / "space.txt")
    for kind in ["reflected_family", "custom_finite"]:
        raw = {"scenario": kind, "finite_file": str(tmp_path / "space.txt")}
        assert validate_dict(raw) == []
        errors = validate_dict({**raw, "test_functions": ["nope"]})
        assert errors == ["test_functions: %s takes no test functions" % kind]


def test_validate_rejects_a_cone_mesh_below_its_minimum_resolution():
    errors = validate_dict({"scenario": "cone_interval", "resolution": 3})
    assert len(errors) == 1 and errors[0].startswith("resolution: ")
    assert "at least %d" % cli.CONE_MIN_RESOLUTION in errors[0]
    assert validate_dict({"scenario": "cone_interval", "resolution": 4}) == []
    # only the cone runner meshes a cone
    assert validate_dict({"scenario": "torus_collapse", "resolution": 3}) == []


def test_cone_kernel_caches_hold_one_matrix_per_step_length(monkeypatch):
    spaces = []
    real = cli.set_generator

    def spy(space, generator):
        spaces.append(space)
        real(space, generator)

    monkeypatch.setattr(cli, "set_generator", spy)
    cfg = ScenarioConfig(scenario="cone_interval", n_grid=[1, 2], mc_count=8, resolution=6)
    with ThreadPoolExecutor(2) as pool:
        cli.run_cone(cfg, pool)
    # the entropy time, the first fdd time and the gap between fdd times
    steps = {cfg.eps_entropy, *np.diff([0.0] + cfg.times)}
    assert steps == {0.1, 0.25, 0.5}
    assert len(spaces) == 3
    for space in spaces:
        assert set(vars(space)["_kernel"]._cache) == steps


@pytest.mark.parametrize("second", [False, True], ids=["first", "second"])
def test_torus_product_identity_fails_off_the_first_coordinate(monkeypatch, second):
    # collapsing the n = 4 torus onto its short coordinate pulls the circle
    # functions back through another map, so its fdd values leave the limit's
    real = cli.CollapseMap

    def second_coordinate(x):
        return np.asarray(x, dtype=float)[..., 1]

    def collapse(target, fmap, fiber):
        # the n = 4 member's fiber bound is pi/4, the n = 1 member's pi
        if second and fiber < np.pi / 2:
            fmap = second_coordinate
        return real(target, fmap, fiber)

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
    """Record every ensemble the runners get from euler_maruyama, optionally
    run with the potential ``swap`` makes of the runner's."""
    made = []
    real = cli.euler_maruyama

    def spy(pot, *args, **kwargs):
        ens = real(swap(pot) if swap else pot, *args, **kwargs)
        made.append(ens)
        return ens

    monkeypatch.setattr(cli, "euler_maruyama", spy)
    return made


@pytest.mark.parametrize("scenario, reads, ensembles",
                         [("reflected_family", cli.REFLECTED_READS, 3),
                          ("ou_family", (cli.OU_T,), 2)])
def test_em_runners_keep_only_their_read_times(monkeypatch, scenario, reads, ensembles):
    made = _spy_on_em(monkeypatch)
    cfg = ScenarioConfig(scenario=scenario, n_grid=[2, 4], mc_count=300, dt=5e-3)
    with ThreadPoolExecutor(2) as pool:
        checks, _ = cli.RUNNERS[scenario](cfg, pool)
    assert len(made) == ensembles
    for ens in made:
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
def test_ou_members_with_a_doubled_potential_fail_marginal_w2(tmp_path, monkeypatch, wrong):
    made = _spy_on_em(monkeypatch, swap=lambda pot: quadratic_potential(
        (2.0 if wrong else 1.0) * pot.quadratic_coeff))
    code, report = _run_report(tmp_path, scenario="ou_family", n_grid=[2, 4],
                               mc_count=2000, dt=0.01)
    assert len(made) == 2
    assert code == (1 if wrong else 0)
    assert _status_of(report, "marginal_w2") == ("fail" if wrong else "pass")


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
