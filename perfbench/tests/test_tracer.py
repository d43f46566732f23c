"""The outside-in tracer is transparent, restores everything, and counts work
exactly.  Scenarios run in-process on reduced copies of the bundled configs."""

import json
import os
import sys
import types

import pytest

import mmlab.cli as cli
import tracer
from conftest import ROOT

REDUCED = {
    "torus_collapse": {"n_grid": [1, 2], "mc_count": 400, "bins": 8},
    "cone_interval": {"n_grid": [1, 2], "mc_count": 400, "resolution": 8},
    "ou_family": {"n_grid": [1, 2], "mc_count": 400},
    "reflected_family": {"n_grid": [1, 2], "mc_count": 400},
}

COUNTS = ["transport.lp_calls", "transport.lp_vars", "transport.lp_vars_max",
          "transport.atoms_in", "transport.atoms_out", "heat.apply_calls",
          "heat.apply_points", "heat.kernel_builds", "spaces.quadrature_calls",
          "spaces.distance_pairs", "paths.chain_steps", "paths.em_steps",
          "paths.em_flagged", "paths.stored_bytes", "paths.modulus_calls",
          "cli.pool_tasks"]


def config(scenario, out_dir, seed=99):
    with open(os.path.join(ROOT, "scripts", "%s.json" % scenario)) as fh:
        raw = json.load(fh)
    raw.update(REDUCED[scenario], seed=seed, out_dir=str(out_dir))
    return cli.ScenarioConfig(**raw)


def run(scenario, out_dir, traced, capsys):
    """Run one reduced scenario through ``cli.run_scenario``; returns its
    CSV bytes and, when traced, the tracer's dump."""
    t = tracer.Tracer().install() if traced else None
    try:
        cli.run_scenario(config(scenario, out_dir), threads=2)
    finally:
        if t is not None:
            t.uninstall()
    capsys.readouterr()
    tables = {name: (out_dir / name).read_bytes()
              for name in sorted(os.listdir(out_dir)) if name.endswith(".csv")}
    return tables, None if t is None else t.dump()


def snapshot():
    """Every object reachable by name from the mmlab modules and classes."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if name == "mmlab" or name.startswith("mmlab."):
            snap[name] = dict(vars(mod))
            for key, value in vars(mod).items():
                if isinstance(value, type) and value.__module__.startswith("mmlab"):
                    snap["%s:%s" % (value.__module__, value.__qualname__)] = dict(vars(value))
                elif isinstance(value, dict) and key != "__builtins__":
                    snap["%s.%s" % (name, key)] = dict(value)
    return snap


def assert_same(before, after):
    assert before.keys() == after.keys()
    for where, names in before.items():
        changed = [k for k in names if after[where].get(k) is not names[k]]
        assert not changed, (where, changed)


@pytest.mark.parametrize("scenario", sorted(REDUCED))
def test_traced_outputs_identical_and_counts_repeat(scenario, tmp_path, capsys):
    plain, _ = run(scenario, tmp_path / "plain", False, capsys)
    first_tables, first = run(scenario, tmp_path / "traced1", True, capsys)
    second_tables, second = run(scenario, tmp_path / "traced2", True, capsys)
    assert plain and first_tables == plain and second_tables == plain
    m1, m2 = tracer.layer_metrics(first), tracer.layer_metrics(second)
    assert {k: m1[k] for k in COUNTS} == {k: m2[k] for k in COUNTS}
    assert m1["cli.pool_tasks"] > 0
    assert m1["paths.stored_bytes"] > 0


def test_uninstall_restores_every_name(tmp_path, capsys):
    before = snapshot()
    t = tracer.Tracer().install()
    assert cli.run_scenario is not before["mmlab.cli"]["run_scenario"]
    assert cli.RUNNERS["torus_collapse"] is not before["mmlab.cli.RUNNERS"]["torus_collapse"]
    assert cli.ThreadPoolExecutor is not before["mmlab.cli"]["ThreadPoolExecutor"]
    t.uninstall()
    assert_same(before, snapshot())
    # the uninstalled tracer records nothing more
    run("cone_interval", tmp_path / "after", False, capsys)
    assert t.spans == []


def test_every_namespace_is_patched():
    import mmlab.convergence as convergence
    import mmlab.transport as transport
    t = tracer.Tracer().install()
    try:
        assert convergence.wasserstein_exact is transport.wasserstein_exact
        assert cli.pathlaw_w1 is convergence.pathlaw_w1
        for fn in (transport.wasserstein_exact, cli.pathlaw_w1,
                   transport.DiscreteMeasure.__init__):
            assert isinstance(fn, types.FunctionType) and hasattr(fn, "__wrapped__")
    finally:
        t.uninstall()
    assert not hasattr(transport.wasserstein_exact, "__wrapped__")


def test_pool_spans_are_children_of_the_submitter(tmp_path, capsys):
    _, dump = run("reflected_family", tmp_path, True, capsys)
    spans = {s[0]: s for s in dump["spans"]}
    main = next(s[5] for s in dump["spans"] if s[2] == tracer.ROOT_SPAN)
    tasks = [s for s in dump["spans"] if s[5] != main and spans[s[1]][5] != s[5]]
    assert tasks and all(spans[s[1]][5] == main for s in tasks)
    assert len(dump["pool_waits"]) == len(tasks)


def test_self_time_subtracts_covered_children():
    dump = {"spans": [(2, 1, "cli.run_torus", 0.0, 8.0, 1),
                      (3, 2, "transport.wasserstein_exact", 1.0, 4.0, 1),
                      (4, 2, "paths.sample_kernel_chain", 3.0, 6.0, 2),
                      (5, 1, "cli.write_csv", 8.0, 9.0, 1),
                      (1, 0, "cli.run_scenario", 0.0, 10.0, 1)],
            "counts": {"3": {"lp_vars": 12}}, "pool_waits": [0.5]}
    m = tracer.layer_metrics(dump)
    assert m["transport.lp_s"] == 3.0 and m["paths.chain_s"] == 3.0
    assert m["cli.runner_self_s"] == 3.0          # 8 s minus the [1, 6] cover
    assert m["cli.write_s"] == 2.0                # run_scenario self (1) + writer (1)
    assert m["trace.unattributed_s"] == 4.0       # outside [1, 6] and [8, 9]
    assert m["transport.lp_vars"] == 12 and m["cli.pool_queue_wait_s"] == 0.5
