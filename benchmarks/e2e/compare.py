#!/usr/bin/env python3
"""Compare end-to-end results of a parent commit and a change.

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py --parent P.jsonl [...] --change C.jsonl [...]

The inputs are the JSON-lines files ``run.py --out`` appends to, one record
per workload run (traced runs are ignored).  Runs of one workload are paired
in the order they started.  For every workload x end-to-end metric of
``BENCHMARK.json`` the verdict is:

* ``unresolved``   the parent's spread (IQR / median) is wider than the
                   metric's bound, unless every change run reads better than
                   every parent run (then ``better``);
* ``regression``   the change's median is worse than the parent's by more
                   than the bound;
* ``gain``         at least 10 pairs, run alternately (each pair adjacent in
                   time, the side that runs first alternating), the change
                   wins at least 9/10 of them and the medians differ by more
                   than the parent's IQR; void if the change failed more
                   operations than the parent;
* ``within bound`` otherwise.

The exit status is 1 if any metric regressed, else 0.  A run whose stamp
names a degraded backend (``[fallback=...]``) is refused outright.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(paths: list[Path]) -> dict[str, list[dict]]:
    """Untraced records per workload, in the order they started."""
    runs: dict[str, list[dict]] = defaultdict(list)
    for path in paths:
        for line in path.read_text().splitlines():
            if not line.strip():
                continue
            rec = json.loads(line)
            if "[fallback=" in rec["stamp"]["exec_backend"]:
                raise SystemExit(
                    f"{path}: {rec['workload']} ran a degraded backend "
                    f"({rec['stamp']['exec_backend']}); it cannot be compared"
                )
            if not rec["trace"]:
                runs[rec["workload"]].append(rec)
    for recs in runs.values():
        recs.sort(key=lambda r: r["started"])
    return runs


def alternating(parent: list[dict], change: list[dict]) -> bool:
    """Each pair ran back to back, and the side that ran first alternates."""
    order = sorted(
        [(r["started"], "p") for r in parent] + [(r["started"], "c") for r in change]
    )
    sides = [s for _, s in order]
    pairs = [sides[i : i + 2] for i in range(0, len(sides) - 1, 2)]
    firsts = [p[0] for p in pairs]
    return (
        all(sorted(p) == ["c", "p"] for p in pairs)
        and all(a != b for a, b in zip(firsts, firsts[1:], strict=False))
    )


def verdict(p: list[float], c: list[float], better: str, bound: float,
            n_pairs: int, alternated: bool, more_failures: bool) -> tuple[str, dict]:
    sign = 1.0 if better == "lower" else -1.0
    pq1, _, pq3 = statistics.quantiles(p, n=4)
    pmed, cmed = statistics.median(p), statistics.median(c)
    stats = {
        "parent": (pq1, pmed, pq3),
        "change": tuple(statistics.quantiles(c, n=4)) if len(c) > 1 else (cmed,) * 3,
        "spread": (pq3 - pq1) / pmed,
        "worse": sign * (cmed - pmed) / pmed,
    }
    all_better = all(sign * x < sign * y for x in c for y in p)
    if stats["spread"] > bound:
        return ("better" if all_better else "unresolved"), stats
    if stats["worse"] > bound:
        return "regression", stats
    wins = sum(sign * x < sign * y for x, y in zip(c, p, strict=False))
    if (
        n_pairs >= MIN_PAIRS and alternated and not more_failures
        and wins >= WIN_SHARE * n_pairs
        and sign * (pmed - cmed) > pq3 - pq1
    ):
        return "gain", stats
    return "within bound", stats


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, nargs="+", required=True)
    ap.add_argument("--change", type=Path, nargs="+", required=True)
    ap.add_argument("--benchmark", type=Path, default=ROOT / "BENCHMARK.json")
    args = ap.parse_args(argv)

    spec = json.loads(args.benchmark.read_text())
    parent, change = load(args.parent), load(args.change)
    regressions = 0
    for workload in [w["name"] for w in spec["workloads"]]:
        p_runs, c_runs = parent.get(workload, []), change.get(workload, [])
        if len(p_runs) < 2 or not c_runs:
            print(f"{workload}: not enough runs (parent {len(p_runs)}, change {len(c_runs)})")
            continue
        n_pairs = min(len(p_runs), len(c_runs))
        alternated = alternating(p_runs[:n_pairs], c_runs[:n_pairs])
        p_failed = sum(r["failed"] for r in p_runs)
        c_failed = sum(r["failed"] for r in c_runs)
        print(f"== {workload}: {len(p_runs)} parent / {len(c_runs)} change runs, "
              f"{n_pairs} pairs ({'alternating' if alternated else 'not alternating'}); "
              f"failed ops parent {p_failed}, change {c_failed}")
        for m in spec["end_to_end"]:
            name = m["name"]
            p = [r["metrics"][name]["value"] for r in p_runs]
            c = [r["metrics"][name]["value"] for r in c_runs]
            v, s = verdict(p, c, m["better"], m["bound"], n_pairs, alternated,
                           c_failed > p_failed)
            regressions += v == "regression"
            print(f"  {name:<14} {v:<13} parent {s['parent'][1]:<11.5g} change "
                  f"{s['change'][1]:<11.5g} {m['unit']:<5} worse {s['worse']:+.3f}  "
                  f"spread {s['spread']:.3f}  bound {m['bound']}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
