"""Chunk placement: chunks under ``POOL_MIN_WALK_STEPS`` walk-steps walk in
the consumer, larger ones in the worker pool.  Placement must not change a
bit of the embedding, must not pull the task stream past an inline chunk,
and must not start a pool that no chunk needs."""

import multiprocessing.context
import sys
from dataclasses import replace

import numpy as np
import pytest

from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.graph.components import forest_split
from repro.graph.dynamic import DynamicGraph, edge_stream
from repro.parallel import ParallelWalkGenerator, WalkTask, train_parallel
from repro.parallel import pipeline as pipeline_mod
from repro.sampling.walks import WalkParams

HP = Node2VecParams(r=2, l=20, w=4, ns=3)
#: 64 walks × 20 steps = 1280 walk-steps: a full chunk goes to the pool
CHUNK = 64


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(4, 8, seed=0)


def mixed_tasks(graph, n_events=12):
    """A replay of one-edge events (4-walk tasks, each carrying its
    snapshot) with a corpus-sized task on the live snapshot after every
    fourth event: 96 walks, i.e. a pooled 64-walk chunk and an inline
    32-walk one under the rule.  Task epochs strictly increase, so event
    ``k`` is renumbered ``2k`` and a corpus task after it takes ``2k + 1``."""
    split = forest_split(graph, seed=0)
    dyn = DynamicGraph(graph.n_nodes, initial=split.initial)
    events = edge_stream(split.removed_edges, max_events=n_events)
    for task in dyn.walk_tasks(events, walks_per_endpoint=2):
        yield replace(task, epoch=2 * task.epoch)
        if task.epoch % 4 == 3:
            starts = np.tile(np.arange(graph.n_nodes), 3)
            yield WalkTask(starts=starts, epoch=2 * task.epoch + 1, graph=task.graph)


def _train(graph, source, n_workers):
    return train_parallel(
        graph, dim=8, hyper=HP, seed=4, n_workers=n_workers, chunk_size=CHUNK,
        negative_source=source, tasks=mixed_tasks(graph),
    )


class TestBitIdentity:
    @pytest.fixture(scope="class", params=["decayed", "degree"])
    def reference(self, request, graph):
        return request.param, _train(graph, request.param, 0)

    @pytest.mark.parametrize("n_workers", [0, 2])
    @pytest.mark.parametrize("mode", ["inline", "rule", "pooled"])
    def test_placement_never_changes_the_embedding(
        self, graph, reference, n_workers, mode, monkeypatch, request
    ):
        source, ref = reference
        if mode == "inline":
            monkeypatch.setattr(pipeline_mod, "POOL_MIN_WALK_STEPS", sys.maxsize)
        elif mode == "pooled":
            request.getfixturevalue("pooled")
        res = _train(graph, source, n_workers)
        assert np.array_equal(res.embedding, ref.embedding)
        t = res.telemetry
        # 12 event chunks + 3 corpus tasks of 2 chunks each
        assert t.n_chunks == 18
        if n_workers == 0 or mode == "inline":
            assert (t.transport, t.inline_chunks) == ("inline", 18)
        elif mode == "pooled":
            assert t.transport in ("shm", "pickle") and t.inline_chunks == 0
        else:  # only the three 64-walk chunks reach the pool
            assert t.transport in ("shm", "pickle") and t.inline_chunks == 15


def small_tasks(graph, n, pulled):
    """``n`` two-walk tasks, counting in ``pulled`` how many were drawn."""
    for i in range(n):
        pulled.append(i)
        yield WalkTask(starts=np.array([i, i + 1]) % graph.n_nodes, epoch=i)


class TestNoLookAhead:
    def test_small_stream_pulled_one_task_at_a_time(self, graph):
        pulled: list = []
        gen = ParallelWalkGenerator(graph, WalkParams(length=20), n_workers=2, seed=1)
        consumed = 0
        for _walks, _gen_s, epoch, _done in gen.stream_timed(
            small_tasks(graph, 10, pulled)
        ):
            consumed += 1
            # the chunk in hand is the newest task drawn
            assert epoch == consumed - 1
            assert len(pulled) == consumed
        assert consumed == 10

    def test_pooled_stream_keeps_its_prefetch_window(self, graph, pooled):
        pulled: list = []
        gen = ParallelWalkGenerator(graph, WalkParams(length=20), n_workers=2, seed=1)
        seen = [len(pulled) for _ in gen.stream_timed(small_tasks(graph, 10, pulled))]
        assert seen[0] == gen.prefetch + 1  # the window plus one refill before the yield


class TestLazyPool:
    @pytest.fixture
    def no_fork(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        monkeypatch.setattr(multiprocessing.context.BaseContext, "Pool", refuse)

    def test_small_stream_never_forks(self, graph, no_fork):
        pulled: list = []
        res = train_parallel(
            graph, dim=8, hyper=HP, seed=2, n_workers=2, negative_source="degree",
            tasks=small_tasks(graph, 6, pulled),
        )
        assert (res.telemetry.transport, res.telemetry.inline_chunks) == ("inline", 6)

    def test_pooled_chunk_does_fork(self, graph, no_fork, pooled):
        with pytest.raises(AssertionError, match="worker pool was started"):
            train_parallel(
                graph, dim=8, hyper=HP, seed=2, n_workers=2, negative_source="degree",
                tasks=small_tasks(graph, 6, []),
            )
