"""Each run loads only the scipy it calls: the lab imports scipy modules where
they are used, and no run of any kind at seed 1234 loads a ``HEAVY`` module,
through ``lab run`` or through a direct ``run_scenario``.  Every check here
runs in a fresh interpreter."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mmlab.cli as cli

ROOT = Path(__file__).resolve().parent.parent
HEAVY = ["scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.special"]
TINY = {
    "torus_collapse": {"n_grid": [1, 2], "mc_count": 40},
    "cone_interval": {"n_grid": [1, 2], "mc_count": 40, "resolution": 6},
    "ou_family": {"n_grid": [2], "mc_count": 40, "dt": 0.05},
    "reflected_family": {"n_grid": [2], "mc_count": 40, "dt": 0.01},
    "custom_finite": {"finite_file": "scripts/example_finite.txt", "mc_count": 40},
}

# runs argv[1] as `lab run` would, and prints the scipy modules first
# imported inside run_scenario, whether numpy.ma was, and the heavy ones
# loaded at the end
RUN = """
import json, sys
import mmlab.cli as cli

def scipy_modules():
    return {m for m in sys.modules if m.split(".")[0] == "scipy"}

real, inside, ma_inside = cli.run_scenario, [], []

def spy(*args, **kwargs):
    before, ma_before = scipy_modules(), "numpy.ma" in sys.modules
    code = real(*args, **kwargs)
    inside.extend(sorted(scipy_modules() - before))
    ma_inside.append(not ma_before and "numpy.ma" in sys.modules)
    return code

cli.run_scenario = spy
cli.main(json.loads(sys.argv[1]))
print(json.dumps({"inside": inside, "ma_inside": ma_inside,
                  "heavy": [m for m in %r if m in sys.modules]}))
""" % HEAVY

# runs the config argv[1] by a direct run_scenario into argv[2], outside
# main, and prints the heavy modules loaded at the end
DIRECT = """
import json, sys
import mmlab.cli as cli
with open(sys.argv[1]) as fh:
    cfg = cli.ScenarioConfig(**json.load(fh))
cli.run_scenario(cfg, threads=2, out_dir=sys.argv[2])
print(json.dumps([m for m in %r if m in sys.modules]))
""" % HEAVY


def _python(script, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])}
    proc = subprocess.run([sys.executable, "-c", script, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _config(tmp_path, kind):
    path = tmp_path / (kind + ".json")
    path.write_text(json.dumps({"scenario": kind, "out_dir": str(tmp_path / kind),
                                **TINY[kind]}))
    return str(path)


def test_every_kind_is_tiny():
    assert sorted(TINY) == sorted(cli.SCENARIOS)


@pytest.mark.parametrize("kind", sorted(TINY))
def test_run_imports_no_scipy_inside_run_scenario(tmp_path, kind):
    seen = _python(RUN, json.dumps(["run", _config(tmp_path, kind), "--threads", "2"]))
    assert seen["inside"] == []
    assert (tmp_path / kind / "report.json").exists()
    # numpy loads numpy.ma on the first np.unique or np.median (the OU 1-D W2
    # once called np.union1d, the finite graph generator np.median), which
    # these runs do not reach
    if kind in ("ou_family", "reflected_family", "custom_finite"):
        assert seen["ma_inside"] == [False]
    # the path laws' grid flows and the cone mesh's ring-order relaxations and
    # Bellman-Ford sweep need no scipy
    assert seen["heavy"] == []


@pytest.mark.parametrize("kind", sorted(TINY))
def test_direct_run_scenario_loads_no_heavy_scipy(tmp_path, kind):
    assert _python(DIRECT, _config(tmp_path, kind), str(tmp_path / "direct")) == []
    assert (tmp_path / "direct" / "report.json").exists()


def test_bundled_ou_run_imports_no_scipy_inside_run_scenario(tmp_path):
    # 10,000 paths per member: a KS row at this size with n D^2 >= 2.2 would
    # reach smirnov; the OU exact law is a chi-squared test and needs no scipy
    out = tmp_path / "ou"
    seen = _python(RUN, json.dumps(["run", "scripts/ou_family.json", "--threads", "2",
                                    "--out", str(out)]))
    assert seen == {"inside": [], "ma_inside": [False], "heavy": []}
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] and not report["incomplete"]
    assert (out / "exact_law.csv").exists()


def test_bundled_torus_run_loads_no_heavy_scipy(tmp_path):
    # 10,000 paths per member: fourteen binned W1 solves on up to 24 x 24
    # cells, all grid flows
    out = tmp_path / "torus"
    seen = _python(RUN, json.dumps(["run", "scripts/torus_collapse.json", "--threads", "2",
                                    "--out", str(out)]))
    assert seen["inside"] == [] and seen["heavy"] == []
    report = json.loads((out / "report.json").read_text())
    assert report["pass"] and not report["incomplete"]
    assert (out / "pathlaw.csv").exists()


def test_validate_loads_no_heavy_scipy():
    configs = sorted(str(p) for p in (ROOT / "scripts").glob("*.json"))
    script = """
import json, sys
import mmlab.cli as cli
codes = [cli.main(["validate", path]) for path in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "heavy": [m for m in %r if m in sys.modules]}))
""" % HEAVY
    seen = _python(script, json.dumps(configs))
    assert len(configs) == 5 and seen == {"codes": [0] * 5, "heavy": []}


@pytest.mark.parametrize("preload", [False, True], ids=["bare", "after_import_scipy"])
def test_manifest_names_scipy_only_when_the_run_loaded_it(tmp_path, preload):
    # importing the lab loads no scipy, so a run that never calls it records
    # no scipy version; one that has scipy loaded records the version it ran
    script = """
import json, sys
%s
import mmlab.cli as cli
loaded = "scipy" in sys.modules
cli.main(["run", sys.argv[1]])
print(json.dumps(loaded))
""" % ("import scipy" if preload else "")
    assert _python(script, _config(tmp_path, "custom_finite")) is preload
    manifest = json.loads((tmp_path / "custom_finite" / "manifest.json").read_text())
    assert ("scipy" in manifest) is preload
    if preload:
        import scipy
        assert manifest["scipy"] == scipy.__version__


def test_cone_run_without_the_preload_matches_lab_run(tmp_path):
    # run_scenario called directly, outside main, on two pool threads that
    # build the cone meshes at once, loads no heavy module and writes what
    # lab run writes
    cfg = _config(tmp_path, "cone_interval")
    _python(RUN, json.dumps(["run", cfg, "--threads", "2", "--out", str(tmp_path / "main")]))
    assert _python(DIRECT, cfg, str(tmp_path / "direct")) == []
    names = sorted(p.name for p in (tmp_path / "main").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "direct").iterdir())
    assert "report.json" in names and len(names) > 3
    for name in names:
        assert (tmp_path / "main" / name).read_bytes() \
            == (tmp_path / "direct" / name).read_bytes(), name
