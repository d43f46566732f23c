"""The reference checker fails runs it must fail, including a perturbation of
one value by a relative 1e-8 (the negative control)."""

import json
import os
import shutil

import pytest

import check
import run
from conftest import ROOT

COMMITTED = os.path.join(ROOT, "out", "cone_interval")


def perturb(out_dir, name, rel):
    """Scale the last numeric cell of table ``name`` by (1 + rel)."""
    path = out_dir / name
    lines = path.read_text().splitlines()
    cells = lines[-1].split(",")
    for i in reversed(range(len(cells))):
        try:
            value = float(cells[i])
        except ValueError:
            continue
        if value != 0.0:
            cells[i] = "%.17g" % (value * (1 + rel))
            break
    lines[-1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def session():
    s = run.Session("cone_finite", 1234, deadline=0.0)
    yield s
    s.close()


@pytest.fixture
def outputs(tmp_path):
    out = tmp_path / "out"
    shutil.copytree(COMMITTED, out)
    return out


def test_committed_tables_pass_at_the_reference_seed(session, outputs):
    assert session._check(str(outputs), 0) == ""
    assert session.max_rel_dev == 0.0


@pytest.mark.parametrize("name", ["fdd.csv", "pathlaw.csv"])
def test_relative_perturbation_of_1e8_fails(session, outputs, name):
    perturb(outputs, name, 1e-8)
    assert name in session._check(str(outputs), 0)
    assert 5e-9 < session.max_rel_dev < 2e-8


def test_perturbation_below_rtol_passes(session, outputs):
    perturb(outputs, "fdd.csv", 1e-12)
    assert session._check(str(outputs), 0) == ""


def test_missing_table_and_incomplete_report_fail(session, outputs):
    os.remove(outputs / "pmg.csv")
    assert "pmg.csv" in session._check(str(outputs), 0)
    shutil.copy(os.path.join(COMMITTED, "pmg.csv"), outputs / "pmg.csv")
    report = json.loads((outputs / "report.json").read_text())
    (outputs / "report.json").write_text(json.dumps(dict(report, incomplete=True)))
    assert session._check(str(outputs), 0) == "report marked incomplete"


def test_exit_code_must_match_the_report_and_manifest_must_exist(session, outputs):
    assert "exit code 1" in session._check(str(outputs), 1)
    report = json.loads((outputs / "report.json").read_text())
    (outputs / "report.json").write_text(json.dumps({**report, "pass": False}))
    assert "exit code 0" in session._check(str(outputs), 0)
    (outputs / "report.json").write_text(json.dumps(report))
    os.remove(outputs / "manifest.json")
    assert session._check(str(outputs), 0) == "no manifest.json"


def test_other_seeds_need_byte_identical_repeats(tmp_path, outputs):
    s = run.Session("cone_finite", 5, deadline=0.0)
    try:
        assert s._check(str(outputs), 0) == ""
        assert s._check(str(outputs), 0) == ""
        perturb(outputs, "entropy.csv", 1e-15)
        assert "first run" in s._check(str(outputs), 0)
    finally:
        s.close()


def test_table_rel_dev_shape_and_text():
    table = b"a,b\n1,x\n"
    assert check.table_rel_dev(table, table) == 0.0
    assert check.table_rel_dev(b"a,b\n1,y\n", table) == float("inf")
    assert check.table_rel_dev(b"a,c\n1,x\n", table) == float("inf")
    assert check.table_rel_dev(b"a,b\n1,x\n2,x\n", table) == float("inf")
    assert check.table_rel_dev(b"a,b\n1.5,x\n", table) == pytest.approx(1 / 3)
