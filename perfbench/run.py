"""End-to-end benchmark of the ``lab run`` scenarios.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is one bundled scenario config, changed only in ``seed`` and
``out_dir`` (a directory under ``.perfbench/`` in the checkout).  The load is
closed-loop: one driver process starts one fresh scenario process at a time,
``lab run CONFIG --threads 2`` as a user runs it, and starts the next when
the previous one has exited, for ``--seconds`` seconds.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json, each the
median over the runs; set-up time also includes a few set-up-only runs.
``--trace 1`` runs untraced for half the time, then once under the
outside-in tracer, and reports the per-layer metrics of BENCHMARK.json.
No process runs past DEADLINE_S after the start: a run is started only if
one as long as the last fits before it, and the watchdog kills a run that is
still going at the deadline and fails it as a timeout.

Every run is checked: at the bundled config's own seed each CSV must match
the committed ``out/<scenario>/`` table within rtol 1e-10, and at every seed
each run's CSVs must be byte-identical to the session's first run.  A run
that crashes, or exits otherwise than its report says, fails.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

import check
import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
THREADS = "2"
SETUP_PROBES = 3
DEADLINE_S = 170.0
# Speed calibration: the host's speed drifts by up to 1.5x over minutes, and
# the time np.sort takes on CAL_SIZE floats drifts with it.  Before each
# process the driver times CAL_REPEAT such sorts; end-to-end times are
# reported scaled by CAL_REF_S / (median sort time of the session), that is,
# in seconds at the speed the reference machine has when one sort takes
# CAL_REF_S (README.md, "Speed calibration").
CAL_SIZE = 200_000
CAL_REPEAT = 25
CAL_REF_S = 0.0016
SCALED = ("wall_s", "run_s", "cpu_s", "setup_s")

# workload -> bundled scenario; README.md says why each is in the benchmark
WORKLOADS = {
    "torus_pathlaw": "torus_collapse",
    "ou_mehler": "ou_family",
    "reflected_paths": "reflected_family",
    "cone_finite": "cone_interval",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def quartiles(values) -> tuple:
    """(median, first quartile, third quartile) as ``statistics`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


class Session:
    """Runs of one workload at one seed, with their output checks."""

    def __init__(self, workload: str, seed: int, deadline: float):
        scenario = WORKLOADS[workload]
        config = os.path.join(ROOT, "scripts", "%s.json" % scenario)
        committed = os.path.join(ROOT, "out", scenario)
        if not os.path.isdir(os.path.join(ROOT, "src", "mmlab")):
            raise SetupError("no mmlab sources under %s" % os.path.join(ROOT, "src"))
        if not os.path.isfile(config) or not os.path.isdir(committed):
            raise SetupError("missing %s or %s" % (config, committed))
        with open(config) as fh:
            self.bundled = json.load(fh)
        self.seed = seed
        self.committed = check.read_tables(committed)
        self.at_reference_seed = seed == self.bundled["seed"]
        self.first = None  # tables of the session's first correct run
        self.deadline = deadline
        self.work = os.path.join(ROOT, ".perfbench", "%s-%d" % (workload, os.getpid()))
        os.makedirs(self.work)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [os.path.join(ROOT, "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        self.runs = 0
        self.last_wall = 0.0  # wall time of the latest full run
        self.failures = []
        self.max_rel_dev = 0.0
        self.cal_times = []
        self._cal_data = np.random.default_rng(0).random(CAL_SIZE)

    def speed(self) -> float:
        """CAL_REF_S over the session's median calibration sort time."""
        return CAL_REF_S / statistics.median(self.cal_times)

    def _calibrate(self):
        for _ in range(CAL_REPEAT):
            start = time.perf_counter()
            np.sort(self._cal_data)
            self.cal_times.append(time.perf_counter() - start)

    def fits(self, seconds: float) -> bool:
        """Whether a process of ``seconds`` would end before the deadline."""
        return time.monotonic() + seconds < self.deadline

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass

    def spawn(self, mode=None) -> dict:
        """One scenario process and the checks of its outputs; returns its
        samples.  ``mode`` is None, "--setup-only" or "--trace"."""
        self.runs += 1
        run_dir = os.path.join(self.work, "run%d" % self.runs)
        os.makedirs(run_dir)
        config = os.path.join(run_dir, "config.json")
        with open(config, "w") as fh:
            json.dump(dict(self.bundled, seed=self.seed, out_dir=os.path.join(run_dir, "out")),
                      fh, indent=2)
        timing_path = os.path.join(run_dir, "timing.json")
        spans_path = os.path.join(run_dir, "spans.json")
        cmd = [sys.executable, CHILD, config, timing_path, THREADS]
        cmd += [] if mode is None else [mode] + ([spans_path] if mode == "--trace" else [])
        self._calibrate()
        killed = []

        def kill():
            killed.append(True)
            proc.kill()

        with open(os.path.join(run_dir, "stderr.txt"), "w+") as err:
            start = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            watchdog = threading.Timer(max(0.0, self.deadline - start), kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                end = time.monotonic()
                proc.returncode = os.waitstatus_to_exitcode(status)  # keeps kill() off the pid
            finally:
                watchdog.cancel()
            err.seek(0)
            stderr = err.read()
        try:
            with open(timing_path) as fh:
                timing = json.load(fh)
        except (OSError, json.JSONDecodeError):
            timing = {}
        src = os.path.join(ROOT, "src", "mmlab")
        if timing and os.path.dirname(os.path.abspath(timing["mmlab"])) != src:
            raise SetupError("scenario imported mmlab from %s, not %s" % (timing["mmlab"], src))
        sample = {"setup_s": timing["enter"] - start if "enter" in timing else None,
                  "wall_s": end - start,
                  "cpu_s": usage.ru_utime + usage.ru_stime,
                  "peak_rss_mb": usage.ru_maxrss / 1024.0}
        if killed and proc.returncode == -signal.SIGKILL:
            reason = "timeout: killed after %.1f s, at the %.0f s deadline" % (
                end - start, DEADLINE_S)
        elif "crash" in timing:
            reason = "crashed: %s" % timing["crash"]
        elif mode == "--setup-only":
            if proc.returncode != 0 or sample["setup_s"] is None:
                raise SetupError("set-up run failed (exit %d):\n%s" % (proc.returncode, stderr))
            reason = ""
        else:
            reason = self._check(os.path.join(run_dir, "out"), proc.returncode)
            if not reason and "exit" not in timing:
                reason = "no run_scenario exit time"
        if mode is None:
            self.last_wall = sample["wall_s"]
        sample["ok"] = not reason
        if reason:
            sample["setup_s"] = None
            self.failures.append("run %d (exit %d): %s\n%s" % (
                self.runs, proc.returncode, reason, stderr[-2000:]))
        elif mode != "--setup-only":
            sample["run_s"] = timing["exit"] - timing["enter"]
            if mode == "--trace":
                with open(spans_path) as fh:
                    sample["trace"] = json.load(fh)
        shutil.rmtree(run_dir)
        return sample

    def _check(self, out_dir: str, exit_code: int) -> str:
        """Why one run's outputs fail, or "" if they pass; updates max_rel_dev."""
        tables, reason = check.load_run(out_dir, self.committed, exit_code)
        if tables is None:
            return reason
        if self.at_reference_seed:
            dev, reason = check.compare(tables, self.committed)
            self.max_rel_dev = max(self.max_rel_dev, dev)
            if reason:
                return reason
        if self.first is None:
            self.first = tables
        elif tables != self.first:
            dev, _ = check.compare(tables, self.first)
            self.max_rel_dev = max(self.max_rel_dev, dev)
            return "CSVs differ from the session's first run (max rel dev %.3g)" % dev
        return ""


def end_to_end(session: Session, seconds: float) -> dict:
    """Closed loop of untraced runs for ``seconds``, then set-up-only runs;
    returns {metric: raw samples of the correct runs}."""
    samples = []
    stop = time.monotonic() + seconds
    while not samples or (time.monotonic() < stop and session.fits(session.last_wall)):
        samples.append(session.spawn())
    good = [s for s in samples if s["ok"]]
    setups = [s["setup_s"] for s in good]
    for _ in range(SETUP_PROBES):
        if session.fits(2 * max(setups, default=session.last_wall)):
            setups.append(session.spawn("--setup-only")["setup_s"])
    series = {name: [s[name] for s in good] for name in ("run_s", "wall_s", "cpu_s")}
    series["setup_s"] = [t for t in setups if t is not None]
    series["peak_rss_mb"] = [s["peak_rss_mb"] for s in good]
    return series


def per_layer(session: Session, seconds: float) -> dict:
    """Untraced runs for half of ``seconds``, then one traced run; returns
    {metric: value} of the traced run, empty if it failed.
    ``trace.overhead_s`` is the traced run_s minus the untraced median."""
    untraced = []
    stop = time.monotonic() + seconds / 2
    while not untraced or (time.monotonic() < stop and session.fits(2 * session.last_wall)):
        untraced.append(session.spawn())
    traced = session.spawn("--trace")
    runs = [s["run_s"] for s in untraced if s["ok"]]
    if not traced["ok"] or not runs:
        return {}
    metrics = tracer.layer_metrics(traced["trace"])
    metrics["trace.overhead_s"] = traced["run_s"] - statistics.median(runs)
    return metrics


def declared_metrics(trace: bool) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    begin = time.monotonic()
    try:
        units = declared_metrics(bool(args.trace))
        session = Session(args.workload, args.seed, begin + DEADLINE_S)
    except (OSError, json.JSONDecodeError, KeyError, SetupError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    try:
        session.spawn("--setup-only")  # warms the file cache and bytecode; discarded
        if args.trace:
            table = {k: [v] for k, v in per_layer(session, args.seconds).items()}
        else:
            table = end_to_end(session, args.seconds)
    except SetupError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    finally:
        session.close()
    for failure in session.failures:
        print("FAILED %s" % failure, file=sys.stderr)
    attempted, failed = session.runs, len(session.failures)
    correct = failed == 0 and all(table.get(name) for name in units)
    speed = session.speed()
    metrics = {}
    print("%s seed=%d runs=%d failed=%d fail_rate=%.3g max_rel_dev=%.3g speed=%.4f" % (
        args.workload, args.seed, attempted, failed, failed / attempted, session.max_rel_dev,
        speed))
    for name, unit in units.items():
        values = table.get(name)
        if not values:
            continue
        median, q1, q3 = quartiles(values)
        scaled = not args.trace and name in SCALED
        scale = speed if scaled else 1.0
        metrics[name] = {"value": median * scale, "unit": unit}
        line = "  %-30s %14.6g %-6s" % (name, median * scale, unit)
        if scaled:
            line += " raw=%.6g" % median
        if len(values) > 1:
            line += " q1=%.6g q3=%.6g n=%d" % (q1 * scale, q3 * scale, len(values))
        print(line)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
