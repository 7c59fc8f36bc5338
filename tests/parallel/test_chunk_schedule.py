"""The pipeline's one chunk schedule and its iterable task streams.

``chunk_size`` is a fixed int: every epoch walks the same
``ceil(walks / chunk_size)`` chunks, whatever the negative source, and a
string schedule name or a non-integer is refused at every entry point that
forwards the knob.  ``negative_source`` takes a registry name only, and
``tasks`` is an iterable (a list or a one-shot generator), never a callable
that rebuilds the stream.  The window depth and the publish schedule are
not knobs: no entry point takes ``prefetch`` or ``publish_every``.
"""

import inspect

import numpy as np
import pytest

from repro.api import train_dynamic, train_embedding
from repro.dynamic import run_drift_scenario, run_seq_scenario
from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.parallel import (
    DEFAULT_CHUNK_SIZE,
    NEGATIVE_SOURCES,
    ParallelWalkGenerator,
    WalkTask,
    train_parallel,
)

HP = Node2VecParams(r=2, l=12, w=4, ns=3)


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(4, 8, seed=0)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


class TestFixedSchedule:
    @pytest.mark.parametrize("source", NEGATIVE_SOURCES)
    @pytest.mark.parametrize("chunk_size", (1, 5, 64, 1000))
    def test_every_epoch_walks_the_same_chunks(self, graph, source, chunk_size):
        """Two epochs cost exactly twice one epoch's chunks, for the
        buffering ``"corpus"`` bootstrap epoch as for the streamed ones."""
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=0, chunk_size=chunk_size,
            negative_source=source, seed=5, epochs=2,
        )
        walks_per_epoch = HP.r * graph.n_nodes
        t = res.telemetry
        assert t.n_chunks == 2 * _ceil_div(walks_per_epoch, chunk_size)
        assert t.train_walks == res.n_walks == 2 * walks_per_epoch

    def test_default_chunk_size_is_every_signature_default(self):
        assert DEFAULT_CHUNK_SIZE == 256
        default = inspect.signature(train_parallel).parameters["chunk_size"].default
        assert default == DEFAULT_CHUNK_SIZE
        # the front ends pass None through, which means the pipeline default
        for fn in (train_embedding, train_dynamic, run_drift_scenario):
            assert inspect.signature(fn).parameters["chunk_size"].default is None

    def test_drift_default_equals_explicit_default(self, graph):
        kw = dict(dim=8, hyper=HP, seed=3, negative_source="degree")
        implicit = run_drift_scenario(graph, **kw)
        explicit = run_drift_scenario(graph, chunk_size=DEFAULT_CHUNK_SIZE, **kw)
        assert implicit.f1_recovered == explicit.f1_recovered
        for a, b in zip(
            implicit.extras["telemetry"], explicit.extras["telemetry"], strict=True
        ):
            assert a.n_chunks == b.n_chunks

    @pytest.mark.parametrize("source", NEGATIVE_SOURCES)
    def test_static_epochs_share_one_snapshot(self, graph, source):
        """A static run's epochs all walk the base graph: one snapshot, and
        its turnover stall is a share of the total wait."""
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=0, chunk_size=5,
            negative_source=source, seed=5, epochs=3,
        )
        t = res.telemetry
        assert t.n_snapshots == 1
        assert 0.0 <= t.snapshot_stall_s <= t.wait_s


def _run_train_parallel(graph, **kw):
    return train_parallel(graph, dim=8, hyper=HP, seed=1, **kw)


def _run_train_embedding(graph, **kw):
    return train_embedding(graph, dim=8, hyper=HP, seed=1, **kw)


def _run_train_dynamic(graph, **kw):
    return train_dynamic(graph, dim=8, hyper=HP, seed=1, max_events=2, **kw)


def _run_drift(graph, **kw):
    return run_drift_scenario(graph, dim=8, hyper=HP, seed=1, **kw)


def _run_seq(graph, **kw):
    return run_seq_scenario(graph, dim=8, hyper=HP, seed=1, max_events=2, **kw)


def _run_generator(graph, **kw):
    return ParallelWalkGenerator(graph, HP.walk_params(), seed=1, **kw)


#: the entry points that train, and so take a ``negative_source``
TRAINERS = {
    "train_parallel": _run_train_parallel,
    "train_embedding": _run_train_embedding,
    "train_dynamic": _run_train_dynamic,
    "run_drift_scenario": _run_drift,
    "run_seq_scenario": _run_seq,
}
ENTRY_POINTS = {**TRAINERS, "ParallelWalkGenerator": _run_generator}


class TestBoundary:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    @pytest.mark.parametrize(
        ("kw", "exc", "knob"),
        (
            ({"chunk_size": "auto"}, TypeError, "chunk_size"),
            ({"chunk_size": 8.0}, TypeError, "chunk_size"),
            ({"chunk_size": True}, TypeError, "chunk_size"),
            ({"chunk_size": 0}, ValueError, "chunk_size"),
            # the window is max(2, 2 * n_workers) chunks, not a setting
            ({"prefetch": 2}, TypeError, "prefetch"),
            ({"prefetch": 0}, TypeError, "prefetch"),
            # every version publishes when it closes
            ({"publish_every": 2}, TypeError, "publish_every"),
        ),
    )
    def test_refused_knobs_name_themselves(self, graph, entry, kw, exc, knob):
        with pytest.raises(exc, match=knob):
            ENTRY_POINTS[entry](graph, **kw)

    @pytest.mark.parametrize("entry", TRAINERS)
    @pytest.mark.parametrize("bad", ("two_pass", "count"))
    def test_unknown_source_lists_the_registry(self, graph, entry, bad):
        with pytest.raises(ValueError, match="negative_source") as err:
            TRAINERS[entry](graph, negative_source=bad)
        assert all(name in str(err.value) for name in NEGATIVE_SOURCES)


class TestIterableTasks:
    @staticmethod
    def _tasks(graph):
        other = ring_of_cliques(4, 8, seed=3)
        return [
            WalkTask(starts=np.arange(graph.n_nodes), epoch=0),
            WalkTask(starts=np.arange(12), epoch=1, graph=other),
            WalkTask(starts=np.arange(20), epoch=2),
        ]

    @pytest.mark.parametrize("source", NEGATIVE_SOURCES)
    def test_generator_trains_like_a_list(self, graph, source):
        """A one-shot generator is streamed once and trains the same bits
        as the materialized list, for every source (``"corpus"`` buffers
        the whole stream for its bootstrap instead of re-walking it)."""
        kw = dict(dim=8, hyper=HP, n_workers=0, chunk_size=8,
                  negative_source=source, seed=5)
        listed = train_parallel(graph, tasks=self._tasks(graph), **kw)
        lazy = train_parallel(graph, tasks=iter(self._tasks(graph)), **kw)
        assert np.array_equal(listed.embedding, lazy.embedding)
        assert lazy.n_walks == listed.n_walks == graph.n_nodes + 32
        assert lazy.telemetry.n_snapshots == 3

    def test_corpus_buffers_the_whole_stream_once(self, graph):
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=0, chunk_size=8,
            negative_source="corpus", tasks=iter(self._tasks(graph)), seed=5,
        )
        t = res.telemetry
        assert t.peak_buffered_walks == res.n_walks == graph.n_nodes + 32
        # chunks never span tasks: 32 / 8 + 12 / 8 + 20 / 8 chunks, walked once
        assert t.n_chunks == 4 + 2 + 3

    @pytest.mark.parametrize("n_workers", (0, 2))
    def test_callable_stream_rejected(self, graph, n_workers):
        def tasks():
            yield WalkTask(starts=np.arange(8))

        with pytest.raises(TypeError, match="not iterable"):
            train_parallel(
                graph, dim=8, hyper=HP, n_workers=n_workers,
                negative_source="corpus", tasks=tasks, seed=5,
            )
