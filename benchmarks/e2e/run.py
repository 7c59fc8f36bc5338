#!/usr/bin/env python3
"""End-to-end benchmark: graph -> walk workers -> transport -> kernels ->
store publish -> served queries, one workload per invocation.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload <name|all> --seed <int> \\
        [--seconds S] [--trace 0|1] [--scale full|smoke] [--out FILE]

(``python -m benchmarks.e2e.run`` is the same program.)  It prints every
metric with its unit and the number of samples behind it, the correctness
checks and a stamp of the machine, then, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; ``--trace 1`` (or bare ``--trace``)
reports the per-layer ones instead and writes the spans to
``benchmarks/e2e/results/trace-<workload>.json``.  ``--out`` appends the
result with its stamp to a JSON-lines file (the input of ``compare.py``).
The exit status is 0 only if every check passed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _stamp(seed: int, exec_backend: str) -> dict:
    import numpy as np

    from repro.embedding.compiled import NUMBA_AVAILABLE

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "commit": commit,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "numba_available": NUMBA_AVAILABLE,
        "seed": seed,
        "exec_backend": exec_backend,
    }


def _stop_resource_tracker() -> None:
    """The shared-memory transport starts multiprocessing's resource
    tracker, which would otherwise outlive this process for a moment
    while it exits; stop it and wait for it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _catalogue(bench: dict, kind: str) -> dict[str, tuple[str, str]]:
    """``BENCHMARK.json``'s metrics of one kind: name -> (unit, better)."""
    return {m["name"]: (m["unit"], m["better"]) for m in bench[kind]}


def _report(name: str, res, units: dict, tails: dict, stamp: dict) -> dict:
    """Print one workload's metrics and checks; return its JSON record."""
    unknown = res.metrics.keys() - units.keys()
    if unknown:
        raise RuntimeError(f"{name}: metrics missing from BENCHMARK.json: {sorted(unknown)}")
    missing = [k for k in units if k not in res.metrics]
    if missing:
        raise RuntimeError(f"{name}: metrics not produced: {missing}")
    res.attempted += len(units)
    res.check("every reported metric is finite",
              sum(not math.isfinite(res.metrics[k]) for k in units))
    print(f"== {name} ==")
    print("stamp " + json.dumps(stamp))

    def show(values: dict, catalogue: dict) -> None:
        for key, (unit, better) in catalogue.items():
            n = res.counts.get(key)
            note = f"n={n}" if n is not None else ""
            if values is res.metrics and res.as_timed.get(key, values[key]) != values[key]:
                note += f"  (as timed {res.as_timed[key]:.6g})"
            print(f"  {key:<30} {values[key]:>16.6g} {unit:<7} {better:<6} {note}")

    show(res.metrics, units)
    print("  host slowdown against the probe's reference: "
          + ", ".join(f"{k} {v:.3f}" for k, v in res.slowdown.items()))
    if tails:
        print("  reported, not gated:")
        show(res.tails, tails)
    if "traced_reps" in res.counts:
        print(f"  (median over {res.counts['traced_reps']} traced reps; "
              f"{res.counts['untraced_reps']} untraced reps for the overhead)")
    for what, ok in res.checks:
        print(f"  [{'ok' if ok else 'FAIL'}] {what}")
    for flag in res.flags:
        print(f"  FLAG {flag}")
    print(f"  fail_frac {res.failed}/{res.attempted} = {res.failed / res.attempted:.6g}")
    return {
        "correct": res.failed == 0,
        "attempted": res.attempted,
        "failed": res.failed,
        "metrics": {k: {"value": res.metrics[k], "unit": u} for k, (u, _) in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    end_to_end, per_layer = _catalogue(bench, "end_to_end"), _catalogue(bench, "per_layer")

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=(*workloads, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"],
                   help="time budget of the measured reps (default: run_seconds "
                   "of BENCHMARK.json)")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    p.add_argument("--scale", choices=("full", "smoke"), default="full")
    p.add_argument("--out", type=Path, help="append the stamped results to this JSON-lines file")
    args = p.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: the program under test is missing ({src / 'repro'}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(src)]
    from benchmarks.e2e.workloads import SCALES, run_workload

    names = workloads if args.workload == "all" else (args.workload,)
    units = per_layer if args.trace else end_to_end
    records = {}
    digests = {}
    for name in names:
        started = time.time()
        res = run_workload(name, args.seed, args.seconds, bool(args.trace), SCALES[args.scale])
        stamp = _stamp(args.seed, res.exec_backend)
        if args.trace:
            # a layer the workload does not run (the graph on a static
            # corpus, training on serve-churn) reports 0
            res.metrics = {**dict.fromkeys(per_layer, 0.0), **res.metrics}
        tails = {} if args.trace else {k: per_layer[k] for k in res.tails}
        records[name] = _report(name, res, units, tails, stamp)
        digests[name] = res.digest
        if res.tracer is not None:
            res.tracer.write(HERE / "results" / f"trace-{name}.json", {
                "workload": name, "seed": args.seed, "scale": args.scale,
                "reps": res.trace_reps,
            })
        if args.out:
            with args.out.open("a") as f:
                f.write(json.dumps({
                    "workload": name, "seed": args.seed, "trace": args.trace,
                    "scale": args.scale, "seconds": args.seconds, "started": started,
                    "stamp": stamp, "counts": res.counts, "tails": res.tails,
                    "as_timed": res.as_timed, "slowdown": res.slowdown, **records[name],
                }) + "\n")
    _stop_resource_tracker()

    if len(records) == 1:
        final = next(iter(records.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {f"{w}/{k}": v for w, r in records.items() for k, v in r["metrics"].items()},
        }
        if {"dynamic-burst", "dynamic-live"} <= digests.keys():
            same = digests["dynamic-burst"] == digests["dynamic-live"]
            print(f"[{'ok' if same else 'FAIL'}] dynamic-burst and dynamic-live "
                  "trained bit-identical embeddings")
            final["attempted"] += 1
            if not same:
                final["failed"] += 1
                final["correct"] = False
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
