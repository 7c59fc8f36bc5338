"""Smoke test of the end-to-end benchmark: every workload at ``--scale
smoke``, untraced and traced, through the real command line.

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e.py -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
#: the consumer-side spans train_parallel's wall time is split into
PIPELINE_CHILDREN = {
    "graph.apply_delta", "embedding.train_chunk", "sampling.observe", "store.publish",
}


def _run(*args: str, cwd: Path = ROOT) -> tuple[subprocess.CompletedProcess, dict | None]:
    p = subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), "--workload", "all",
         "--seed", "0", "--scale", "smoke", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )
    lines = p.stdout.strip().splitlines()
    last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p, last


def _assert_emitted(out: dict, metrics: list[dict], nonzero: bool) -> None:
    for w in WORKLOADS:
        for m in metrics:
            got = out["metrics"][f"{w}/{m['name']}"]
            assert got["unit"] == m["unit"], (w, m)
            assert not nonzero or got["value"] > 0, (w, m, got)


def test_end_to_end_metrics_and_checks():
    p, out = _run()
    assert p.returncode == 0, p.stdout[-3000:] + p.stderr[-3000:]
    assert out["correct"] and out["failed"] == 0 and out["attempted"] > 0
    assert "[FAIL]" not in p.stdout
    assert len(out["metrics"]) == len(WORKLOADS) * len(BENCH["end_to_end"])
    _assert_emitted(out, BENCH["end_to_end"], nonzero=True)


def test_traced_spans_account_for_unattributed_time():
    p, out = _run("--trace", "1")
    assert p.returncode == 0, p.stdout[-3000:] + p.stderr[-3000:]
    assert out["correct"]
    _assert_emitted(out, BENCH["per_layer"], nonzero=False)
    for w in WORKLOADS[:4]:  # the training workloads
        trace = json.loads((HERE / "results" / f"trace-{w}.json").read_text())
        spans = trace["spans"]
        fractions = []
        for rep in trace["reps"]:
            lo, hi = rep["spans"]
            top = next(i for i in range(lo, hi) if spans[i][0] == "pipeline")
            _, start, end, _, _ = spans[top]
            children = sorted((s for s in spans[lo:hi] if s[3] == top), key=lambda s: s[1])
            assert {s[0] for s in children} <= PIPELINE_CHILDREN
            assert all(start <= s[1] <= s[2] <= end for s in children)
            assert all(a[2] <= b[1] for a, b in zip(children, children[1:], strict=False))
            self_s = (end - start) - sum(s[2] - s[1] for s in children)
            apply_s = sum(s[2] - s[1] for s in children if s[0] == "graph.apply_delta")
            # the pipeline span's self time is the consumer's wait (which
            # contains applying events), the unattributed remainder, and
            # the call's set-up outside the pipeline's own clock
            unattributed = (
                self_s - (rep["wait_s"] - apply_s) - ((end - start) - rep["total_s"])
            ) / rep["total_s"]
            assert abs(unattributed - rep["unattributed_frac"]) < 1e-6
            fractions.append(unattributed)
        reported = out["metrics"][f"{w}/pipeline.unattributed_frac"]["value"]
        assert abs(statistics.median(fractions) - reported) < 1e-6


def test_refuses_to_run_without_the_program(tmp_path: Path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in BENCH["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("results"))
    p, out = _run(cwd=tmp_path)
    assert p.returncode != 0
    assert out is None
