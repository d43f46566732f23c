"""run.py as the benchmark contract uses it: one JSON result line naming every
metric of BENCHMARK.json, a non-zero exit without the program, and failed
runs for a crash after the tables are written and for a watchdog kill."""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

import run
from conftest import BENCH, ROOT


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, os.path.join("perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_result_line_has_every_declared_metric(trace, kind):
    proc = bench("--workload", "cone_finite", "--seed", "1234", "--seconds", "1",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared(kind)
    assert "max_rel_dev=" in proc.stdout
    assert not os.path.exists(os.path.join(ROOT, ".perfbench"))


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "cone_finite", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


def test_crash_after_the_tables_are_written_fails(tmp_path, monkeypatch):
    # run_scenario imports mmlab.__version__ only after it has written the
    # report and every CSV, so without it the run crashes at the very end
    child = tmp_path / "child.py"
    child.write_text("import runpy\nimport mmlab\ndel mmlab.__version__\n"
                     "runpy.run_path(%r, run_name='__main__')\n" % run.CHILD)
    monkeypatch.setattr(run, "CHILD", str(child))
    session = run.Session("cone_finite", 1234, deadline=time.monotonic() + 120)
    try:
        sample = session.spawn()
    finally:
        session.close()
    assert not sample["ok"]
    assert "crashed: ImportError" in session.failures[0]


@pytest.mark.parametrize("mode", [None, "--setup-only"])
def test_watchdog_kill_is_a_timeout(mode):
    session = run.Session("cone_finite", 1234, deadline=time.monotonic() + 0.3)
    try:
        sample = session.spawn(mode)
    finally:
        session.close()
    assert not sample["ok"] and sample["setup_s"] is None
    assert "timeout" in session.failures[0]
