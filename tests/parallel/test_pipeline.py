"""Tests for repro.parallel.pipeline."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.embedding import MODEL_REGISTRY
from repro.graph import ring_of_cliques
from repro.parallel import ParallelWalkGenerator, train_parallel
from repro.experiments.hyper import Node2VecParams
from repro.sampling.walks import WalkParams

HP = Node2VecParams(r=2, l=12, w=4, ns=3)


# the chunks here are tiny; keep the pool-mechanics tests on the pool
pytestmark = pytest.mark.usefixtures("pooled")


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(4, 8, seed=0)


class TestParallelWalkGenerator:
    def test_inline_generation(self, graph):
        gen = ParallelWalkGenerator(graph, WalkParams(length=8, walks_per_node=1), seed=0)
        walks = gen.all_walks()
        assert len(walks) == graph.n_nodes
        for w in walks:
            for a, b in zip(w[:-1], w[1:], strict=True):
                assert graph.has_edge(int(a), int(b))

    def test_corpus_starts_cover_every_node_r_times(self, graph):
        gen = ParallelWalkGenerator(graph, WalkParams(length=8, walks_per_node=3), seed=0)
        starts = gen.corpus_starts()
        counts = np.bincount(starts, minlength=graph.n_nodes)
        assert np.all(counts == 3)

    def test_chunking(self, graph):
        gen = ParallelWalkGenerator(
            graph, WalkParams(length=8, walks_per_node=1), chunk_size=10, seed=0
        )
        chunks = list(gen.generate())
        assert sum(len(c) for c in chunks) == graph.n_nodes
        assert all(len(c) <= 10 for c in chunks)

    def test_deterministic_inline(self, graph):
        params = WalkParams(length=10, walks_per_node=1)
        a = ParallelWalkGenerator(graph, params, seed=7).all_walks()
        b = ParallelWalkGenerator(graph, params, seed=7).all_walks()
        assert all(np.array_equal(x, y) for x, y in zip(a, b, strict=True))

    def test_workers_match_inline(self, graph):
        """The headline invariant: identical corpus for any worker count."""
        params = WalkParams(length=10, walks_per_node=2)
        inline = ParallelWalkGenerator(
            graph, params, n_workers=0, chunk_size=16, seed=3
        ).all_walks()
        pooled = ParallelWalkGenerator(
            graph, params, n_workers=2, chunk_size=16, seed=3
        ).all_walks()
        assert len(inline) == len(pooled)
        assert all(np.array_equal(x, y) for x, y in zip(inline, pooled, strict=True))

    def test_chunk_size_does_not_change_walks_given_same_seeding(self, graph):
        # different chunk sizes reseed chunks differently — corpora differ,
        # but both are valid and full-sized
        params = WalkParams(length=10, walks_per_node=1)
        a = ParallelWalkGenerator(graph, params, chunk_size=8, seed=3).all_walks()
        b = ParallelWalkGenerator(graph, params, chunk_size=64, seed=3).all_walks()
        assert len(a) == len(b)

    def test_explicit_starts(self, graph):
        gen = ParallelWalkGenerator(graph, WalkParams(length=6), seed=0)
        walks = gen.all_walks(np.array([0, 5, 9]))
        assert [int(w[0]) for w in walks] == [0, 5, 9]

    def test_invalid_args(self, graph):
        with pytest.raises(ValueError):
            ParallelWalkGenerator(graph, n_workers=-1)
        with pytest.raises((ValueError, TypeError)):
            ParallelWalkGenerator(graph, chunk_size=0)
        for bad in (
            {"n_workers": -1},
            {"n_workers": 1.5},
            {"n_workers": True},
            {"n_workers": "2"},
            {"chunk_size": 0},
            {"chunk_size": "auto"},
        ):
            with pytest.raises((ValueError, TypeError)):
                train_parallel(graph, dim=8, hyper=HP, seed=0, **bad)

    def test_generate_timed_reports_positive_times(self, graph):
        gen = ParallelWalkGenerator(
            graph, WalkParams(length=8, walks_per_node=1), chunk_size=10, seed=0
        )
        timed = list(gen.stream_timed())
        assert sum(len(c) for c, *_ in timed) == graph.n_nodes
        assert all(dt > 0 for _, dt, *_ in timed)
        # the corpus is one task: only its final chunk closes it
        assert [done for *_, done in timed] == [False] * (len(timed) - 1) + [True]


class TestTrainParallel:
    @pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
    def test_every_registry_model_runs(self, graph, model):
        res = train_parallel(graph, dim=8, model=model, hyper=HP, seed=0)
        assert res.embedding.shape == (graph.n_nodes, 8)
        assert res.n_walks == HP.r * graph.n_nodes
        assert np.isfinite(res.embedding).all()

    def test_bit_identical_across_worker_counts(self, graph):
        a = train_parallel(graph, dim=8, hyper=HP, n_workers=0, seed=5)
        b = train_parallel(graph, dim=8, hyper=HP, n_workers=2, seed=5)
        assert np.array_equal(a.embedding, b.embedding)

    def test_deterministic_repeat(self, graph):
        a = train_parallel(graph, dim=8, hyper=HP, n_workers=2, seed=9)
        b = train_parallel(graph, dim=8, hyper=HP, n_workers=2, seed=9)
        assert np.array_equal(a.embedding, b.embedding)

    def test_seed_matters(self, graph):
        a = train_parallel(graph, dim=8, hyper=HP, seed=1)
        b = train_parallel(graph, dim=8, hyper=HP, seed=2)
        assert not np.array_equal(a.embedding, b.embedding)

    def test_telemetry_attached_by_default(self, graph):
        res = train_parallel(graph, dim=8, hyper=HP, seed=0)
        assert res.telemetry is not None
        assert res.telemetry.negative_source == "corpus"
        assert res.telemetry.total_s > 0

    def test_epochs_supported(self, graph):
        res = train_parallel(graph, dim=8, hyper=HP, epochs=2, seed=0)
        assert res.n_walks == 2 * HP.r * graph.n_nodes

    def test_model_instance_accepted(self, graph):
        from repro.embedding.trainer import make_model

        mdl = make_model("proposed", graph.n_nodes, 8, seed=1)
        res = train_parallel(graph, model=mdl, hyper=HP, seed=0)
        assert res.model is mdl

    def test_model_instance_rejects_model_kwargs(self, graph):
        from repro.embedding.trainer import make_model

        mdl = make_model("proposed", graph.n_nodes, 8, seed=1)
        with pytest.raises(ValueError, match="model_kwargs"):
            train_parallel(graph, model=mdl, hyper=HP, seed=0, mu=0.5)

    def test_model_kwargs_forwarded(self, graph):
        res = train_parallel(graph, dim=8, hyper=HP, seed=0, mu=0.123)
        assert res.model.mu == 0.123

    def test_learns(self, graph):
        from repro.evaluation import evaluate_embedding

        res = train_parallel(
            graph, dim=16, hyper=HP, n_workers=2, seed=0, mu=0.05
        )
        scores = evaluate_embedding(res.embedding, graph.node_labels, seed=0)
        assert scores.micro_f1 > 0.5


# Kills the worker of every chunk after the first — os._exit(1) under the
# shm transport, SIGKILL (as the OOM killer does) under pickle — a second
# in, so the first chunk has long arrived when chunk 1 is lost — and prints,
# per transport, the WorkerDiedError's walk range and exit codes, then the
# shared-memory segments the runs left behind.  By default every chunk goes
# to the pool; with the argument "mixed" the placement rule stands and the
# stream is a 4-walk chunk (walked in the consumer) then a 128-walk chunk
# (walked, and lost, in the pool).
DEAD_WORKER_SCRIPT = """
import json, os, signal, sys, time
import numpy as np
import repro.parallel.pipeline as pl
from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.parallel import WalkTask, WorkerDiedError, train_parallel

MIXED = sys.argv[1:] == ["mixed"]
if not MIXED:
    pl.POOL_MIN_WALK_STEPS = 0
real = pl._run_chunk
def dying(graph, params, starts, seed, lo):
    if lo > 0:
        time.sleep(1)
        if TRANSPORT == "shm":
            os._exit(1)
        os.kill(os.getpid(), signal.SIGKILL)
    return real(graph, params, starts, seed, lo)
pl._run_chunk = dying

g = ring_of_cliques(4, 8, seed=0)
kw = dict(n_workers=2, chunk_size=8)
if MIXED:
    kw = dict(n_workers=2, chunk_size=128, tasks=[
        WalkTask(starts=np.arange(4)),
        WalkTask(starts=np.arange(128) % g.n_nodes, epoch=1),
    ])
shm_before = set(os.listdir("/dev/shm"))
out = {}
for TRANSPORT in ("shm", "pickle"):
    try:
        train_parallel(g, dim=8, hyper=Node2VecParams(r=2, l=12, w=4, ns=3),
                       transport=TRANSPORT, **kw)
    except WorkerDiedError as e:
        out[TRANSPORT] = [e.lo, e.hi, sorted(set(e.exitcodes))]
out["leaked"] = sorted(set(os.listdir("/dev/shm")) - shm_before)
print(json.dumps(out))
"""


def _run_dead_worker_script(*args: str) -> dict:
    """Run the script in a subprocess under a timeout, so a regression
    fails, not hangs; returns its JSON report."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", DEAD_WORKER_SCRIPT, *args],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.skipif(not os.path.isdir("/dev/shm"), reason="needs /dev/shm")
class TestDeadWorker:
    def test_dead_worker_raises_named_error(self):
        """A dead walk worker fails the run with the lost chunk's walk range
        instead of hanging it, and leaves no shared memory behind."""
        res = _run_dead_worker_script()
        # chunk 0 = walks [0, 8) arrives; chunk 1's worker dies first
        assert res["shm"] == [8, 16, [1]]
        assert res["pickle"] == [8, 16, [-9]]
        assert res["leaked"] == []

    def test_mixed_stream_names_the_lost_pooled_chunk(self):
        """Under the placement rule the 4-walk chunk [0, 4) walks in the
        consumer and the 128-walk chunk [4, 132) in the pool; its worker's
        death names that chunk's range."""
        res = _run_dead_worker_script("mixed")
        assert res["shm"] == [4, 132, [1]]
        assert res["pickle"] == [4, 132, [-9]]
        assert res["leaked"] == []
