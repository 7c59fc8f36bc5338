"""Shared fixtures for the benchmark suite.

Every paper table/figure has one module here; running

    pytest benchmarks/ --benchmark-only

regenerates all of them.  Each report is printed, written as a text table
to ``benchmarks/reports/<name>.txt``, and — for machines rather than humans
— as ``benchmarks/reports/BENCH_<name>.json`` carrying the same columns,
rows, notes and the raw ``report.data`` payload (NumPy scalars converted,
large arrays summarized), stamped with the commit, core count, numpy
version and whether numba was importable.  The JSON files are what the CI bench-smoke job
uploads, so the perf trajectory of the pipeline can be tracked PR over PR.

Accuracy experiments run the "quick" profile — scaled-down Table 1
surrogates — so the suite finishes in minutes; pass
``--repro-profile paper`` for the full (hours-long) workload.
"""

from __future__ import annotations

import functools
import json
import os
import subprocess

import numpy as np
import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--repro-profile",
        default="quick",
        choices=["quick", "paper"],
        help="experiment workload scale for accuracy benches",
    )


@pytest.fixture(scope="session")
def profile(request) -> str:
    return request.config.getoption("--repro-profile")


@pytest.fixture(scope="session")
def report_dir() -> str:
    path = os.path.join(os.path.dirname(__file__), "reports")
    os.makedirs(path, exist_ok=True)
    return path


#: arrays up to this many elements are inlined into the JSON; bigger ones
#: (embeddings, …) are summarized by shape/dtype so files stay diffable
_JSON_ARRAY_LIMIT = 32


def _jsonable(obj):
    """Best-effort conversion of a report payload to JSON-safe values."""
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        if obj.size <= _JSON_ARRAY_LIMIT:
            return _jsonable(obj.tolist())
        return {"ndarray": {"shape": list(obj.shape), "dtype": str(obj.dtype)}}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, (str, int, float, bool)) or obj is None:
        return obj
    return repr(obj)


@functools.cache
def _stamp() -> dict:
    """Where a report was produced: the checkout's commit (``-dirty`` when
    the working tree differs from it), cores, numpy and numba."""
    from repro.embedding.compiled import NUMBA_AVAILABLE

    try:
        commit = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--abbrev=40"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "numpy": np.__version__,
        "numba_available": NUMBA_AVAILABLE,
    }


def report_json_path(report_dir: str, report_name: str) -> str:
    """Canonical path of a report's machine-readable twin."""
    slug = report_name.lower().replace(" ", "_")
    return os.path.join(report_dir, f"BENCH_{slug}.json")


@pytest.fixture()
def emit_report(report_dir, capsys):
    """Print an ExperimentReport and persist it (text + JSON) under
    ``benchmarks/reports/``."""

    def _emit(report):
        text = report.render()
        with capsys.disabled():
            print("\n" + text)
        fname = report.name.lower().replace(" ", "") + ".txt"
        with open(os.path.join(report_dir, fname), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        payload = {
            "name": report.name,
            "title": report.title,
            "columns": _jsonable(list(report.columns)),
            "rows": _jsonable(list(report.rows)),
            "notes": _jsonable(list(report.notes)),
            "data": _jsonable(report.data),
            "stamp": _stamp(),
        }
        json_path = report_json_path(report_dir, report.name)
        with open(json_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return report

    return _emit
