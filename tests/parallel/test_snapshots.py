"""Publish-once snapshot transport: store/worker-cache unit tests, the
pipeline's byte accounting, segment hygiene, and the dynamic replay's
bit-identity with the cache engaged."""

import os
import pickle

import numpy as np
import pytest

from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.parallel import WalkTask, train_parallel
from repro.parallel import pipeline as pipeline_mod
from repro.parallel import snapshots as snapshots_mod
from repro.parallel.snapshots import SnapshotStore, resolve_snapshot_ref

HP = Node2VecParams(r=2, l=12, w=4, ns=3)


# the chunks here are tiny; keep the pool-mechanics tests on the pool
pytestmark = pytest.mark.usefixtures("pooled")


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(4, 8, seed=0)


@pytest.fixture(scope="module")
def other(graph):
    return ring_of_cliques(4, 8, seed=3)


def _shm_names() -> set:
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


class TestSnapshotStore:
    def test_publish_once_then_free_rides(self, graph):
        store = SnapshotStore()
        try:
            ref1 = store.ref_for(0, graph)
            shipped_once = store.bytes_shipped
            assert shipped_once > 0
            assert store.bytes_saved == 0
            ref2 = store.ref_for(0, graph)
            assert ref2 == ref1
            if ref1[0] == "shm":
                # second job rides free: nothing new shipped, savings count
                assert store.bytes_shipped == shipped_once
                assert store.bytes_saved == shipped_once
        finally:
            store.close()

    def test_ref_roundtrips_through_worker_cache(self, graph):
        store = SnapshotStore()
        try:
            ref = store.ref_for(0, graph)
            snapshots_mod._WORKER_SNAPSHOTS.clear()
            g1 = resolve_snapshot_ref(ref)
            assert g1.n_nodes == graph.n_nodes
            assert np.array_equal(g1.edge_array(), graph.edge_array())
            # cached: a second resolve returns the SAME object, no reload
            assert resolve_snapshot_ref(ref) is g1
        finally:
            store.close()
            snapshots_mod._WORKER_SNAPSHOTS.clear()

    def test_worker_cache_evicts_passed_sids(self, graph, other):
        store = SnapshotStore()
        try:
            snapshots_mod._WORKER_SNAPSHOTS.clear()
            resolve_snapshot_ref(store.ref_for(0, graph))
            resolve_snapshot_ref(store.ref_for(1, other))
            assert set(snapshots_mod._WORKER_SNAPSHOTS) == {1}
        finally:
            store.close()
            snapshots_mod._WORKER_SNAPSHOTS.clear()

    def test_retire_below_and_close_unlink_segments(self, graph, other):
        before = _shm_names()
        store = SnapshotStore()
        ref0 = store.ref_for(0, graph)
        store.ref_for(1, other)
        if ref0[0] != "shm":
            store.close()
            pytest.skip("no shared memory on this host")
        store.retire_below(1)
        assert len(_shm_names() - before) == 1  # sid 0 gone, sid 1 alive
        store.close()
        assert _shm_names() <= before

    def test_bytes_fallback_when_shm_unavailable(self, graph, monkeypatch):
        store = SnapshotStore()
        monkeypatch.setattr(store, "_create_segment", lambda size: None)
        try:
            ref = store.ref_for(0, graph)
            assert ref[0] == "bytes"
            payload_len = len(ref[2])
            assert store.bytes_shipped == payload_len
            # fallback re-ships the payload per job — no savings, honest count
            store.ref_for(0, graph)
            assert store.bytes_shipped == 2 * payload_len
            assert store.bytes_saved == 0
            snapshots_mod._WORKER_SNAPSHOTS.clear()
            g = resolve_snapshot_ref(ref)
            assert g.n_nodes == graph.n_nodes
        finally:
            store.close()
            snapshots_mod._WORKER_SNAPSHOTS.clear()

    def test_creation_failure_does_not_latch(self, graph, other, monkeypatch):
        """One failed segment creation (oversized snapshot, transient
        limit) must not degrade every later snapshot to the bytes
        fallback."""
        store = SnapshotStore()
        real = store._create_segment
        calls = {"n": 0}

        def flaky(size):
            calls["n"] += 1
            return None if calls["n"] == 1 else real(size)

        monkeypatch.setattr(store, "_create_segment", flaky)
        try:
            first = store.ref_for(0, graph)
            second = store.ref_for(1, other)
            assert first[0] == "bytes"
            if second[0] != "shm":
                pytest.skip("no shared memory on this host")
        finally:
            store.close()

    def test_retire_evicts_fallback_payloads(self, graph, other, monkeypatch):
        """In the bytes fallback the cached ref IS the pickled payload:
        retiring must drop it, or a long replay would retain every
        snapshot's payload for the whole pass."""
        store = SnapshotStore()
        monkeypatch.setattr(store, "_create_segment", lambda size: None)
        try:
            store.ref_for(0, graph)
            store.ref_for(1, other)
            store.retire_below(1)
            assert set(store._refs) == {1}
            assert set(store._payload_len) == {1}
            store.close()
            assert not store._refs and not store._payload_len
        finally:
            store.close()


def _replay_snapshots(graph, n_steps=4):
    """The snapshots a one-edge-per-event replay of ``graph`` produces:
    ``[snapshot_0, snapshot_1, …]``, each one edge larger than the last."""
    from repro.graph.components import forest_split
    from repro.graph.dynamic import DynamicGraph, EdgeEvent

    split = forest_split(graph, seed=0)
    dyn = DynamicGraph(graph.n_nodes, initial=split.initial)
    snaps = [dyn.snapshot()]
    for k in range(n_steps):
        snaps.append(dyn.apply(EdgeEvent(k, split.removed_edges[k : k + 1])))
    return snaps


def _payload_len(graph) -> int:
    return len(pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL))


class TestReplayStore:
    """The store across a replay's snapshot sequence: every sid publishes
    in full, and nothing outlives the sid that retires it."""

    def test_every_sid_publishes_in_full(self, graph):
        snaps = _replay_snapshots(graph)
        store = SnapshotStore()
        try:
            kinds = [store.ref_for(sid, s)[0] for sid, s in enumerate(snaps)]
            assert set(kinds) <= {"shm", "bytes"}
            assert store.bytes_shipped == sum(_payload_len(s) for s in snaps)
            assert store.bytes_saved == 0
        finally:
            store.close()

    def test_resolve_bit_identical_to_consumer_snapshot(self, graph):
        """What a worker walks must be *bitwise* the consumer's snapshot —
        same indptr/indices/weights — so placement changes no walk."""
        snaps = _replay_snapshots(graph)
        store = SnapshotStore()
        try:
            snapshots_mod._WORKER_SNAPSHOTS.clear()
            for sid, snap in enumerate(snaps):
                got = resolve_snapshot_ref(store.ref_for(sid, snap))
                assert np.array_equal(got.indptr, snap.indptr)
                assert np.array_equal(got.indices, snap.indices)
                assert np.array_equal(got.weights, snap.weights)
        finally:
            store.close()
            snapshots_mod._WORKER_SNAPSHOTS.clear()

    def test_worker_skips_intermediate_sids(self, graph):
        """A worker that never ran sids 1..k-1 materializes sid k from its
        own ref alone."""
        snaps = _replay_snapshots(graph)
        store = SnapshotStore()
        try:
            refs = [store.ref_for(sid, s) for sid, s in enumerate(snaps)]
            snapshots_mod._WORKER_SNAPSHOTS.clear()  # fresh worker
            got = resolve_snapshot_ref(refs[-1])
            assert got == snaps[-1]
            assert set(snapshots_mod._WORKER_SNAPSHOTS) == {len(snaps) - 1}
        finally:
            store.close()
            snapshots_mod._WORKER_SNAPSHOTS.clear()

    def test_worker_eviction_drops_every_passed_sid(self, graph):
        snaps = _replay_snapshots(graph)
        store = SnapshotStore()
        try:
            refs = [store.ref_for(sid, s) for sid, s in enumerate(snaps)]
            snapshots_mod._WORKER_SNAPSHOTS.clear()
            resolve_snapshot_ref(refs[0])
            resolve_snapshot_ref(refs[1])
            assert set(snapshots_mod._WORKER_SNAPSHOTS) == {1}
            resolve_snapshot_ref(refs[3])
            assert set(snapshots_mod._WORKER_SNAPSHOTS) == {3}
        finally:
            store.close()
            snapshots_mod._WORKER_SNAPSHOTS.clear()

    def test_retire_below_spares_no_earlier_sid(self, graph):
        """No snapshot is another's base: ``retire_below(k)`` drops sid 0
        along with every other sid under k."""
        snaps = _replay_snapshots(graph)
        store = SnapshotStore()
        try:
            for sid, s in enumerate(snaps):
                store.ref_for(sid, s)
            store.retire_below(3)
            assert set(store._refs) == {3, 4}
            assert set(store._payload_len) == {3, 4}
            assert set(store._segments) <= {3, 4}
        finally:
            store.close()

    def test_close_unlinks_every_replay_segment(self, graph):
        before = _shm_names()
        store = SnapshotStore()
        for sid, s in enumerate(_replay_snapshots(graph)):
            store.ref_for(sid, s)
        store.close()
        assert _shm_names() <= before
        assert not store._refs and not store._segments

    def test_shm_ref_is_tiny(self, graph):
        """A job carries the segment's name and size, not the graph."""
        store = SnapshotStore()
        try:
            ref = store.ref_for(0, graph)
            if ref[0] != "shm":
                pytest.skip("no shared memory on this host")
            assert len(pickle.dumps(ref)) < _payload_len(graph) // 4
        finally:
            store.close()

    def test_resolve_rejects_unknown_ref_kind(self, graph):
        snapshots_mod._WORKER_SNAPSHOTS.clear()
        with pytest.raises(ValueError, match="unknown snapshot ref kind"):
            resolve_snapshot_ref(("delta", 1, (("bytes", 0, b""), None)))
        assert not snapshots_mod._WORKER_SNAPSHOTS


class TestRebaseKnobGone:
    """``snapshot_rebase_every`` left every public signature with the delta
    chain; passing it is an error, not a silently ignored option."""

    @pytest.mark.parametrize(
        "entry",
        ["train_parallel", "run_seq_scenario", "train_dynamic",
         "ParallelWalkGenerator"],
    )
    def test_rejected(self, graph, entry):
        from repro.api import train_dynamic
        from repro.dynamic import run_seq_scenario
        from repro.parallel import ParallelWalkGenerator

        calls = {
            "train_parallel": lambda **kw: train_parallel(
                graph, dim=8, hyper=HP, seed=1, **kw),
            "run_seq_scenario": lambda **kw: run_seq_scenario(
                graph, dim=8, hyper=HP, seed=1, max_events=1, **kw),
            "train_dynamic": lambda **kw: train_dynamic(
                graph, dim=8, hyper=HP, seed=1, max_events=1, **kw),
            "ParallelWalkGenerator": lambda **kw: ParallelWalkGenerator(
                graph, **kw),
        }
        with pytest.raises(TypeError, match="snapshot_rebase_every"):
            calls[entry](snapshot_rebase_every=4)


class TestPipelineIntegration:
    def tasks(self, graph, other):
        yield WalkTask(starts=np.arange(graph.n_nodes), epoch=0, graph=other)
        yield WalkTask(starts=np.arange(graph.n_nodes), epoch=1, graph=other)

    def test_snapshot_bytes_counted_and_saved(self, graph, other):
        """Two 32-start snapshot tasks at chunk_size=8 → 4 jobs per
        snapshot; the per-job scheme would ship the payload 8×, the store
        ships it twice and saves the rest."""
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=8,
            negative_source="degree", tasks=self.tasks(graph, other), seed=5,
        )
        t = res.telemetry
        payload = len(pickle.dumps(other, protocol=pickle.HIGHEST_PROTOCOL))
        assert t.ipc_snapshot_bytes >= 2 * payload  # once per snapshot task
        if t.ipc_snapshot_bytes == 2 * payload:  # shm store engaged
            assert t.ipc_snapshot_bytes_saved == 6 * payload
        assert t.ipc_walk_bytes >= 0

    def test_no_segments_leak_after_task_stream(self, graph, other):
        before = _shm_names()
        train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=8,
            negative_source="degree", tasks=self.tasks(graph, other), seed=5,
        )
        assert _shm_names() <= before

    def test_base_graph_tasks_ship_nothing(self, graph):
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=8,
            negative_source="degree", seed=5,
        )
        assert res.telemetry.ipc_snapshot_bytes == 0
        assert res.telemetry.ipc_snapshot_bytes_saved == 0

    def test_inline_path_ships_nothing(self, graph, other):
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=0, chunk_size=8,
            negative_source="degree", tasks=self.tasks(graph, other), seed=5,
        )
        assert res.telemetry.ipc_snapshot_bytes == 0

    def test_bit_identical_with_and_without_workers(self, graph, other):
        """The cache is pure transport: the trained embedding must match
        the inline path (which never serializes snapshots at all)."""
        runs = [
            train_parallel(
                graph, dim=8, hyper=HP, n_workers=nw, chunk_size=8,
                transport=tr, negative_source="degree",
                tasks=self.tasks(graph, other), seed=5,
            ).embedding
            for nw, tr in ((0, "shm"), (2, "shm"), (2, "pickle"), (4, "shm"))
        ]
        for run in runs[1:]:
            assert np.array_equal(runs[0], run)


class TestDynamicReplay:
    def test_seq_scenario_counts_snapshot_savings(self, graph):
        from repro.dynamic import run_seq_scenario

        res = run_seq_scenario(
            graph, dim=8, hyper=HP, seed=3, n_workers=2,
            edges_per_event=4, chunk_size=4,
        )
        t = res.extras["telemetry"]
        assert t.ipc_snapshot_bytes > 0
        # chunks per event > 1 on this workload → real savings
        assert t.ipc_snapshot_bytes_saved > 0
        inline = run_seq_scenario(
            graph, dim=8, hyper=HP, seed=3, n_workers=0,
            edges_per_event=4, chunk_size=4,
        )
        assert np.array_equal(res.embedding, inline.embedding)

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs /dev/shm"
    )
    def test_worker_crash_leaves_no_snapshot_segments(self, graph, monkeypatch):
        """A crash mid-replay must not leak the segments of the snapshots
        published so far."""
        from repro.dynamic import run_seq_scenario

        def boom(*a, **k):
            raise RuntimeError("worker crashed")

        monkeypatch.setattr(pipeline_mod, "_run_chunk", boom)
        before = _shm_names()
        with pytest.raises(RuntimeError, match="worker crashed"):
            run_seq_scenario(
                graph, dim=8, hyper=HP, seed=3, n_workers=2,
                edges_per_event=1, chunk_size=8,
            )
        assert _shm_names() - before == set()

    def test_delta_telemetry_reads_zero(self, graph):
        """Pooled events publish full snapshots only: the delta counters the
        e2e harness still reads stay 0 while snapshot bytes flow."""
        from repro.dynamic import run_seq_scenario

        res = run_seq_scenario(
            graph, dim=8, hyper=HP, seed=3, n_workers=2,
            edges_per_event=1, chunk_size=8, max_events=4,
        )
        t = res.extras["telemetry"]
        assert t.ipc_snapshot_bytes > 0
        assert (t.ipc_delta_bytes, t.delta_applies, t.rebase_count) == (0, 0, 0)

    def test_one_chunk_events_ship_each_snapshot_once(self, graph):
        """One chunk per event: every event's snapshot crosses to the pool
        exactly once, in full, whichever way the store publishes it."""
        from repro.graph.components import forest_split
        from repro.graph.dynamic import DynamicGraph, edge_stream

        split = forest_split(graph, seed=0)
        events = list(edge_stream(split.removed_edges, max_events=5))

        def tasks():
            dyn = DynamicGraph(graph.n_nodes, initial=split.initial)
            return dyn.walk_tasks(events, walks_per_endpoint=2)

        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=64,
            negative_source="degree", tasks=tasks(), seed=5,
        )
        want = sum(_payload_len(task.graph) for task in tasks())
        assert res.telemetry.ipc_snapshot_bytes == want
        assert res.telemetry.ipc_snapshot_bytes_saved == 0
