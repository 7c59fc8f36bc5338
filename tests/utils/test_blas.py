"""Tests for repro.utils.blas: training runs on one OpenBLAS thread.

Every case runs in a fresh interpreter with the BLAS thread variables
removed from its environment: the limit is applied once per process, and
the test runner's own environment must not decide the result.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.utils.blas import USER_THREAD_VARS

SRC = str(Path(__file__).resolve().parents[2] / "src")

# Prints {"before": [...], "after": [...], "worker": [...], "telemetry": n}:
# each pool's thread count before and after a two-worker training run, as
# seen from a process forked after it, and the run's blas_threads.
SCRIPT = """
import json, multiprocessing as mp, sys
import repro.utils.blas as blas
from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.parallel import train_parallel

def counts():
    return [p.get_num_threads() for p in blas.openblas_pools()]

before = counts()
real = blas.openblas_pools
if sys.argv[1] == "hide":  # a host without OpenBLAS: discovery finds nothing
    blas.openblas_pools = lambda: []
res = train_parallel(
    ring_of_cliques(4, 8, seed=0), dim=8,
    hyper=Node2VecParams(r=2, l=12, w=4, ns=3), n_workers=2, chunk_size=8,
)
blas.openblas_pools = real
with mp.get_context("fork").Pool(1) as pool:
    worker = pool.apply(counts)
print(json.dumps({"before": before, "after": counts(), "worker": worker,
                  "telemetry": res.telemetry.blas_threads,
                  "walks": res.n_walks}))
"""


def _run(mode: str, **env_extra: str) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in USER_THREAD_VARS}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    env.update(env_extra)
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT, mode],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if mode != "hide" and not result["before"]:
        pytest.skip("no OpenBLAS loaded in this interpreter")
    return result


def test_training_limits_every_pool_to_one_thread():
    res = _run("limit")
    assert res["after"] == [1] * len(res["before"])
    # the walk workers fork after the trainer exists: they inherit the limit
    assert res["worker"] == [1] * len(res["before"])
    assert res["telemetry"] == 1


def test_user_setting_left_alone():
    res = _run("limit", OPENBLAS_NUM_THREADS="2")
    # OpenBLAS caps the requested count at the core count
    assert res["after"] == res["before"]
    assert res["telemetry"] == max(res["before"])


def test_no_openblas_found_is_a_no_op():
    res = _run("hide")
    assert res["walks"] == 2 * 32
    assert res["telemetry"] == 0
    assert res["after"] == res["before"]
