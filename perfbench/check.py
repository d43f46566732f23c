"""Output checks for one scenario run.

A run is correct when it wrote ``report.json`` without ``incomplete: true``,
``manifest.json`` and every table the committed ``out/<scenario>/`` holds,
exited as its report says (``lab run`` exits 0 when the report passes and 1
when it fails), and its tables match a reference: cell by cell within
``RTOL`` against the committed tables, or byte for byte against an earlier
run of the same config.
"""

import csv
import io
import json
import math
import os

RTOL = 1e-10


def read_tables(out_dir: str) -> dict:
    """{file name: bytes} of every CSV table in ``out_dir``."""
    tables = {}
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            with open(os.path.join(out_dir, name), "rb") as fh:
                tables[name] = fh.read()
    return tables


def load_run(out_dir: str, expected, exit_code: int) -> tuple:
    """``(tables, reason)``: the run's tables, or None and why the run failed
    (no report, an incomplete report, an exit code the report does not
    explain, no manifest, or a missing table)."""
    try:
        with open(os.path.join(out_dir, "report.json")) as fh:
            report = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return None, "no report: %s" % exc
    if report.get("incomplete", True):
        return None, "report marked incomplete"
    if exit_code != (0 if report.get("pass") else 1):
        return None, "exit code %d, but the report has pass: %s" % (exit_code, report.get("pass"))
    if not os.path.isfile(os.path.join(out_dir, "manifest.json")):
        return None, "no manifest.json"
    tables = read_tables(out_dir)
    missing = sorted(set(expected) - set(tables))
    if missing:
        return None, "missing tables: %s" % ", ".join(missing)
    return tables, ""


def _rel_dev(got: str, want: str) -> float:
    """Relative deviation of two cells; inf when they cannot match."""
    if got == want:
        return 0.0
    try:
        a, b = float(got), float(want)
    except ValueError:
        return math.inf
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def table_rel_dev(got: bytes, want: bytes) -> float:
    """Largest relative deviation between two CSV tables; inf when the
    header, the shape or a non-numeric cell differs."""
    rows_got = list(csv.reader(io.StringIO(got.decode())))
    rows_want = list(csv.reader(io.StringIO(want.decode())))
    if len(rows_got) != len(rows_want) or rows_got[:1] != rows_want[:1]:
        return math.inf
    worst = 0.0
    for row_got, row_want in zip(rows_got[1:], rows_want[1:]):
        if len(row_got) != len(row_want):
            return math.inf
        for a, b in zip(row_got, row_want):
            worst = max(worst, _rel_dev(a, b))
    return worst


def compare(tables: dict, reference: dict) -> tuple:
    """``(max_rel_dev, reason)`` of ``tables`` against every reference table;
    ``reason`` names the first table beyond RTOL, or is empty."""
    worst, reason = 0.0, ""
    for name, want in sorted(reference.items()):
        dev = table_rel_dev(tables.get(name, b""), want)
        if dev > RTOL and not reason:
            reason = "%s deviates by %.3g (rtol %g)" % (name, dev, RTOL)
        worst = max(worst, dev)
    return worst, reason
