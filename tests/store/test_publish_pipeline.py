"""Live-publish integration: training runs publish versioned epochs into a
store with zero full-table copies, and a reader pinned mid-run stays
bit-identical to a post-hoc reference checkpoint of the same epoch.

The reference checkpoint exploits prefix determinism: a run truncated after
epoch *e* (same seed) reproduces exactly the model state the longer run
published as version *e* — so "what the pinned reader serves" can be checked
against an independently recomputed table, not just the store's own bytes.
"""

import numpy as np
import pytest

from repro.dynamic import run_seq_scenario
from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.parallel import NEGATIVE_SOURCES, train_parallel
from repro.parallel.tasks import WalkTask
from repro.store import STORE_BACKENDS, ShmEmbeddingStore, make_store

HP = Node2VecParams(r=1, l=10, w=4, ns=2)


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(3, 6, seed=0)


class TestStaticPublish:
    @pytest.mark.parametrize("backend", STORE_BACKENDS)
    def test_every_epoch_published_zero_copies(self, graph, backend):
        res = train_parallel(
            graph, dim=8, hyper=HP, epochs=2, seed=0, store=backend
        )
        store = res.store
        try:
            assert store.epochs() == (0, 1)
            assert res.telemetry.store_publishes == 2
            assert res.telemetry.store_full_copies == 0
            assert res.telemetry.store_publish_s > 0.0
            assert res.telemetry.store_publish_bytes > 0
            # the final version IS the returned embedding, bit for bit
            assert np.array_equal(store.get(np.arange(graph.n_nodes), epoch=1), res.embedding)
        finally:
            store.close()

    def test_published_epoch_matches_truncated_reference_run(self, graph):
        """Version *e* of a long run == the final table of a run stopped
        after epoch *e* (the post-hoc reference checkpoint)."""
        res = train_parallel(graph, dim=8, hyper=HP, epochs=3, seed=7, store="local")
        try:
            reference = train_parallel(graph, dim=8, hyper=HP, epochs=2, seed=7)
            assert np.array_equal(
                res.store.get(np.arange(graph.n_nodes), epoch=1),
                reference.embedding,
            )
        finally:
            res.store.close()

    def test_no_store_means_no_publishing(self, graph):
        res = train_parallel(graph, dim=8, hyper=HP, epochs=1, seed=0)
        assert res.store is None
        assert res.telemetry.store_publishes == 0


class _PinAtEpoch(ShmEmbeddingStore):
    """A store whose publish hook pins one epoch the moment it appears —
    the concurrent reader of the acceptance test, sitting inside the live
    run while training keeps publishing behind it."""

    def __init__(self, *args, pin_epoch, **kwargs):
        super().__init__(*args, **kwargs)
        self._pin_epoch = pin_epoch
        self.pinned_reader = None
        self.frozen = None

    def publish(self, epoch, vectors, **kwargs):
        stats = super().publish(epoch, vectors, **kwargs)
        if epoch == self._pin_epoch:
            self.pinned_reader = self.reader(epoch)
            self.frozen = self.get(np.arange(self.n_nodes), epoch=epoch)
        return stats


class TestDynamicPublish:
    def test_seq_replay_publishes_task_epochs(self, graph):
        res = run_seq_scenario(
            graph, dim=8, hyper=HP, seed=0, max_events=4, store="shm"
        )
        tr = res.extras["training_result"]
        try:
            tele = res.extras["telemetry"]
            assert tele.store_publishes >= 2
            assert tele.store_full_copies == 0
            assert tr.store.epochs() == (0, 1, 2, 3)
            assert np.array_equal(
                tr.store.get(np.arange(graph.n_nodes), epoch=3), res.embedding
            )
        finally:
            tr.store.close()

    def test_acceptance_pinned_reader_bit_identical_under_live_publishes(self, graph):
        """The ISSUE's acceptance scenario: a live ``train_dynamic``-path
        run publishes ≥2 epochs through ``"shm"`` with zero full-table
        copies while a reader pinned to an early epoch — under retirement
        pressure from ``retain=1`` — serves vectors bit-identical to a
        post-hoc reference checkpoint of that epoch."""
        n = graph.n_nodes
        store = _PinAtEpoch(n, 8, n_shards=4, retain=1, pin_epoch=1)
        try:
            res = run_seq_scenario(
                graph, dim=8, hyper=HP, seed=3, max_events=4, store=store
            )
            tele = res.extras["telemetry"]
            assert tele.store_publishes >= 2
            assert tele.store_full_copies == 0
            # retain=1 retired everything unpinned except the latest ...
            assert set(store.epochs()) == {1, 3}
            # ... but the pinned epoch still reads, bit-identical to the
            # moment it was published
            reader = store.pinned_reader
            assert np.array_equal(reader.get(np.arange(n)), store.frozen)
            # and to an independent truncated rerun of the same seed
            reference = run_seq_scenario(graph, dim=8, hyper=HP, seed=3, max_events=2)
            assert np.array_equal(reader.get(np.arange(n)), reference.embedding)
            reader.close()
            assert store.epochs() == (3,)
        finally:
            store.close()


def _task_stream(graph, n_epochs=5):
    """One task per epoch on the base graph, three start nodes each."""
    return [
        WalkTask(starts=np.arange(3 * e, 3 * e + 3) % graph.n_nodes, epoch=e)
        for e in range(n_epochs)
    ]


class TestPublishSchedule:
    """The exact version list each path publishes: every version publishes
    when it closes.  A buffered ``"corpus"`` task run trains everything in
    one pass after the stream ends, so only its last task epoch is ever
    published."""

    @pytest.mark.parametrize("path", ["static", "tasks"])
    @pytest.mark.parametrize("source", NEGATIVE_SOURCES)
    def test_published_versions(self, graph, source, path):
        expected = {"static": (0, 1, 2), "tasks": (0, 1, 2, 3, 4)}[path]
        if path == "tasks" and source == "corpus":
            expected = (4,)
        # retain above the version count: the store keeps every publish
        store = make_store("local", graph.n_nodes, 8, retain=8)
        run = (
            {"epochs": 3} if path == "static" else {"tasks": _task_stream(graph)}
        )
        try:
            res = train_parallel(
                graph, dim=8, hyper=HP, seed=0, negative_source=source,
                store=store, **run,
            )
            assert store.epochs() == expected
            assert res.telemetry.store_publishes == len(expected)
            assert np.array_equal(
                store.get(np.arange(graph.n_nodes), epoch=expected[-1]),
                res.embedding,
            )
        finally:
            store.close()


def _recording(store, tasks, seen):
    """Yield ``tasks``, appending ``store.latest_epoch`` to ``seen`` each
    time the pipeline asks for a task (including the ask past the end)."""
    for task in tasks:
        seen.append(store.latest_epoch)
        yield task
    seen.append(store.latest_epoch)


class TestPublishPoint:
    """A task epoch publishes as soon as the task's last chunk has trained:
    an inline stream never waits for the next task to close an epoch."""

    @pytest.mark.parametrize("source", ["degree", "decayed"])
    def test_epoch_published_before_next_task_is_requested(self, graph, source):
        store = make_store("local", graph.n_nodes, 8, retain=8)
        seen: list = []
        try:
            train_parallel(
                graph, dim=8, hyper=HP, seed=0, negative_source=source,
                store=store, tasks=_recording(store, _task_stream(graph), seen),
            )
            assert seen == [None, 0, 1, 2, 3, 4]
            assert store.epochs() == (0, 1, 2, 3, 4)
        finally:
            store.close()

    def test_split_task_publishes_once_after_its_last_chunk(self, graph):
        """Three 6-walk tasks in 4-walk chunks: each epoch publishes once,
        and what it publishes is the table after both of its chunks — the
        final table of a run over the stream's prefix up to that task."""

        def tasks(n):
            return [
                WalkTask(starts=np.arange(6 * e, 6 * e + 6) % graph.n_nodes, epoch=e)
                for e in range(n)
            ]

        run = dict(dim=8, hyper=HP, seed=0, negative_source="degree", chunk_size=4)
        store = make_store("local", graph.n_nodes, 8, retain=8)
        seen: list = []
        try:
            res = train_parallel(
                graph, store=store, tasks=_recording(store, tasks(3), seen), **run
            )
            assert res.telemetry.n_chunks == 6
            assert res.telemetry.store_publishes == 3
            assert store.epochs() == (0, 1, 2)
            assert seen == [None, 0, 1, 2]
            for e in range(3):
                prefix = train_parallel(graph, tasks=tasks(e + 1), **run)
                assert np.array_equal(
                    store.get(np.arange(graph.n_nodes), epoch=e), prefix.embedding
                )
        finally:
            store.close()


class TestEpochContract:
    """A task stream's epochs strictly increase; a task whose epoch repeats
    or goes back is rejected before it trains or publishes."""

    @pytest.mark.parametrize("epochs", [(0, 0), (1, 0)])
    @pytest.mark.parametrize("placement", ["inline", "pooled"])
    def test_non_increasing_epoch_rejected(self, graph, epochs, placement, request):
        if placement == "pooled":
            request.getfixturevalue("pooled")
        first, second = epochs
        stream = [
            WalkTask(starts=np.arange(3), epoch=first),
            WalkTask(starts=np.arange(3, 6), epoch=second),
        ]
        run = dict(dim=8, hyper=HP, seed=0, negative_source="degree", n_workers=2)
        store = make_store("local", graph.n_nodes, 8, retain=8)
        try:
            with pytest.raises(ValueError, match="task epochs must strictly increase") as err:
                train_parallel(graph, store=store, tasks=stream, **run)
            assert f"epoch {second} follows one of epoch {first}" in str(err.value)
            if placement == "inline":
                # the first task trained and published before the second
                # was pulled; the second added nothing to that version
                assert store.epochs() == (first,)
                alone = train_parallel(graph, tasks=stream[:1], **run)
                assert np.array_equal(
                    store.get(np.arange(graph.n_nodes), epoch=first), alone.embedding
                )
            else:
                # the pool's window pulled the second task before the
                # first one's chunk was handed over: nothing trained
                assert store.epochs() == ()
        finally:
            store.close()
