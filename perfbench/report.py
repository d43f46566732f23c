"""Print the environment and every end-to-end metric of every workload.

    python3 perfbench/report.py

Runs ``run.py``'s end-to-end measurement for each workload in turn, at the
bundled configs' seed (1234) and for BENCHMARK.json's ``run_seconds``.  At
that seed every run is also compared with the committed ``out/<scenario>/``
tables, so each workload's line shows ``fail_rate`` and ``max_rel_dev``
against them.
"""

import ctypes
import glob
import json
import os
import platform
import sys

import run

REFERENCE_SEED = 1234  # the seed of every bundled config, and of the committed out/ tables


def _cache_sizes() -> dict:
    sizes = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        try:
            with open(os.path.join(index, "level")) as fh:
                level = fh.read().strip()
            with open(os.path.join(index, "size")) as fh:
                sizes.setdefault("L%s" % level, fh.read().strip())
        except OSError:
            continue
    return sizes


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def _blas() -> dict:
    import numpy as np
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    out = {"name": info.get("name"), "version": info.get("version"),
           "configuration": info.get("openblas configuration")}
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)),
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                out["threads"] = getattr(lib, symbol)()
    return out


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": _blas(), "nproc": os.cpu_count(),
            "cpu": _cpu_model(), "caches": _cache_sizes(), "threads": int(run.THREADS),
            "file_cache": "warm: each run starts with a discarded set-up-only run; "
                          "caches are not dropped"}


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        seconds = json.load(fh)["run_seconds"]
    print(json.dumps(environment(), indent=2))
    status = 0
    for workload in run.WORKLOADS:
        status |= run.main(["--workload", workload, "--seed", str(REFERENCE_SEED),
                            "--seconds", str(seconds), "--trace", "0"])
    return status


if __name__ == "__main__":
    sys.exit(main())
