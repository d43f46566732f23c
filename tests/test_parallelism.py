"""The runner's --threads pool is the lab's one level of parallelism: BLAS is
pinned to one thread, each runner overlaps its checks with the pool's
sampling, and no output depends on the thread count."""

import json
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import mmlab.cli as cli
import mmlab.convergence as convergence
from mmlab.cli import ScenarioConfig, main

SRC = Path(__file__).resolve().parent.parent / "src"

# records OPENBLAS_NUM_THREADS at the moment numpy is first looked for
PROBE = r"""
import importlib.abc
import os
import sys

seen = []


class Spy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_NUM_THREADS"))
        return None


assert "numpy" not in sys.modules
sys.meta_path.insert(0, Spy())
import mmlab
print(seen)
"""


@pytest.mark.parametrize("caller, expected", [(None, "1"), ("3", "3")],
                         ids=["unset", "caller-set"])
def test_blas_is_pinned_before_numpy_loads(caller, expected):
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    if caller is not None:
        env["OPENBLAS_NUM_THREADS"] = caller
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == repr([expected])


class RecordingPool(ThreadPoolExecutor):
    """A pool that logs the name of each function submitted to it."""

    def __init__(self, log: list):
        super().__init__(2)
        self.log = log

    def submit(self, fn, *args, **kwargs):
        self.log.append(("submit", fn.__name__))
        return super().submit(fn, *args, **kwargs)

    def map(self, fn, *iterables, **kwargs):
        self.log.append(("map", fn.__name__))
        return super().map(fn, *iterables, **kwargs)


def _log_calls(monkeypatch, log: list, name: str) -> None:
    """Log each call of the runners' ``name`` before it runs."""
    real = getattr(cli, name)

    def spy(*args, **kwargs):
        log.append(("call", name))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, spy)


def test_ou_submits_its_sampling_before_the_fdd_report(monkeypatch):
    log = []
    _log_calls(monkeypatch, log, "fdd_convergence_report")
    cfg = ScenarioConfig(scenario="ou_family", n_grid=[2, 4], mc_count=300, dt=5e-3)
    with RecordingPool(log) as pool:
        cli.run_ou(cfg, pool)
    fdd = log.index(("call", "fdd_convergence_report"))
    assert log[:fdd].count(("submit", "euler_maruyama")) == 2
    assert ("submit", "euler_maruyama") not in log[fdd:]


def test_ou_evaluates_its_fdd_functionals_on_the_pool(monkeypatch):
    on_main = []
    real = convergence._nested_functional

    def spy(*args, **kwargs):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(convergence, "_nested_functional", spy)
    log = []
    cfg = ScenarioConfig(scenario="ou_family", n_grid=[2, 4], mc_count=300, dt=5e-3)
    with RecordingPool(log) as pool:
        cli.run_ou(cfg, pool)
    # the limit's and each member's, in one pool map after the sampling
    assert on_main == [False] * 3
    assert [entry for entry in log if entry[0] == "map"] == [("map", "<lambda>")]
    assert log.index(("map", "<lambda>")) > log.index(("submit", "euler_maruyama"))


def test_cone_builds_its_meshes_on_the_pool(monkeypatch):
    on_main = []
    real = cli.mesh_cone

    def spy(n, res):
        on_main.append(threading.current_thread() is threading.main_thread())
        return real(n, res)

    monkeypatch.setattr(cli, "mesh_cone", spy)
    cfg = ScenarioConfig(scenario="cone_interval", n_grid=[1, 2, 4], mc_count=8,
                         resolution=6)
    with ThreadPoolExecutor(2) as pool:
        cli.run_cone(cfg, pool)
    assert on_main == [False] * 3


def test_cone_submits_its_family_checks_before_the_path_law_solves(monkeypatch):
    log, solves = [], []
    real = convergence.wasserstein_grid

    def spy(*args, **kwargs):
        solves.append(threading.current_thread() is threading.main_thread())
        return real(*args, **kwargs)

    monkeypatch.setattr(convergence, "wasserstein_grid", spy)
    _log_calls(monkeypatch, log, "pathlaw_w1")
    cfg = ScenarioConfig(scenario="cone_interval", n_grid=[1, 2], mc_count=2000)
    with RecordingPool(log) as pool:
        cli.run_cone(cfg, pool)
    shared = log.index(("submit", "_family_checks"))
    chains = [i for i, entry in enumerate(log) if entry == ("submit", "sample_kernel_chain")]
    maps = [i for i, entry in enumerate(log) if entry[0] == "map"]
    # the chains (each member's and the limit's) come first, then the shared
    # checks, then the path law with its solves in one pool map
    assert len(chains) == 3 and max(chains) < shared < log.index(("call", "pathlaw_w1"))
    assert len(maps) == 1 and shared < maps[0]
    # the path law's baseline splits and member pairs, and the initial-law
    # pairs of the shared checks, are all grid flows here
    assert len(solves) == convergence.BASELINE_SPLITS + 2 * len(cfg.n_grid)
    assert not any(solves)


def test_torus_submits_its_modulus_statistics_before_the_path_law(monkeypatch):
    log = []
    _log_calls(monkeypatch, log, "pathlaw_w1")
    cfg = ScenarioConfig(scenario="torus_collapse", n_grid=[1, 2], mc_count=8)
    with RecordingPool(log) as pool:
        cli.run_torus(cfg, pool)
    pathlaw = log.index(("call", "pathlaw_w1"))
    # the limit's and each member's
    assert log[:pathlaw].count(("submit", "modulus_statistic")) == 3
    assert ("submit", "modulus_statistic") not in log[pathlaw:]


SMALL = {
    "ou_family": {"n_grid": [2, 4], "mc_count": 2000, "dt": 0.005},
    "torus_collapse": {"n_grid": [1, 2], "mc_count": 2000},
    "cone_interval": {"n_grid": [1, 2], "mc_count": 2000},
    "reflected_family": {"n_grid": [2, 4], "mc_count": 2000, "dt": 0.005},
}
CONFIGS = {kind: {"scenario": kind, "seed": 31, **cfg} for kind, cfg in SMALL.items()}
# at full size the two threads share the sampling and the five fdd
# functionals, each on the 4096-node Mehler grid
CONFIGS["ou_family_bundled"] = json.loads((SRC.parent / "scripts" / "ou_family.json").read_text())


@pytest.mark.parametrize("scenario", sorted(CONFIGS))
def test_run_is_byte_identical_at_one_and_two_threads(tmp_path, scenario):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(CONFIGS[scenario]))
    codes = [main(["run", str(cfg), "--threads", threads, "--out", str(tmp_path / threads)])
             for threads in ("1", "2")]
    assert codes[0] == codes[1]
    names = sorted(p.name for p in (tmp_path / "1").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "2").iterdir())
    assert "report.json" in names and len(names) > 2
    for name in names:
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes(), name
