"""One scenario run, as ``lab run CONFIG --threads N`` performs it.

    python child.py CONFIG TIMING_JSON THREADS [--setup-only | --trace SPANS_JSON]

``mmlab`` must be importable (the benchmark puts the checkout's ``src`` on
PYTHONPATH).  The only change to the run is a thin wrapper around
``mmlab.cli.run_scenario`` that reads the monotonic clock on entry and exit;
the times go to TIMING_JSON so the parent can split spawn-to-exit into set-up
and run time.  An exception that escapes ``lab run`` is recorded there as
``crash``, so the parent fails the run even if every table was written.
``--setup-only`` returns from that wrapper at once, which measures set-up
alone (interpreter start, imports, config load and validation).  ``--trace``
runs under the outside-in tracer and writes its spans to SPANS_JSON.
"""

import json
import sys
import time


def main(argv) -> int:
    config, timing_path, threads = argv[:3]
    mode = argv[3] if len(argv) > 3 else None
    import mmlab.cli as cli

    tracer = None
    if mode == "--trace":
        from tracer import Tracer
        tracer = Tracer().install()
    timing = {"mmlab": cli.__file__}
    run_scenario = cli.run_scenario

    def timed(*args, **kwargs):
        timing["enter"] = time.monotonic()
        if mode == "--setup-only":
            return 0
        try:
            return run_scenario(*args, **kwargs)
        finally:
            timing["exit"] = time.monotonic()

    cli.run_scenario = timed
    try:
        rc = cli.main(["run", config, "--threads", threads])
    except BaseException as exc:
        timing["crash"] = "%s: %s" % (type(exc).__name__, exc)
        raise
    finally:
        cli.run_scenario = run_scenario
        if tracer is not None:
            tracer.uninstall()
            with open(argv[4], "w") as fh:
                json.dump(tracer.dump(), fh)
        with open(timing_path, "w") as fh:
            json.dump(timing, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
