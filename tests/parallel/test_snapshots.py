"""Publish-once snapshot transport: store/worker-cache unit tests, the
pipeline's byte accounting, segment hygiene, delta-chain lifecycle, and
the dynamic replay's bit-identity with the cache engaged."""

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


def _delta_chain(graph, n_steps=4):
    """A snapshot/delta sequence grown from ``graph`` by one edge-removal
    replay step at a time: ``[(snapshot_0, None), (snapshot_1, delta_1), …]``
    with ``snapshot_k == snapshot_{k-1}.insert_edges(delta_k)``."""
    from repro.graph.components import forest_split
    from repro.graph.dynamic import DynamicGraph, EdgeEvent

    split = forest_split(graph, seed=0)
    dyn = DynamicGraph(graph.n_nodes, initial=split.initial)
    chain = [(dyn.snapshot(), None)]
    for k in range(n_steps):
        snap, delta = dyn.apply_delta(
            EdgeEvent(step=k, edges=split.removed_edges[k : k + 1])
        )
        chain.append((snap, delta))
    return chain


class TestDeltaStore:
    def test_chain_base_once_then_delta_refs(self, graph):
        chain = _delta_chain(graph, n_steps=3)
        store = SnapshotStore(rebase_every=8)
        try:
            base_ref = store.ref_for(0, chain[0][0])
            assert base_ref[0] in ("shm", "bytes")
            full_bytes = store.bytes_shipped
            for sid, (snap, delta) in enumerate(chain[1:], start=1):
                ref = store.ref_for(sid, snap, delta)
                assert ref[0] == "delta"
                assert ref[2] == base_ref  # cumulative from the chain base
            assert store.bytes_shipped == full_bytes  # no further full ships
            assert store.delta_refs == 3
            assert store.delta_bytes_shipped > 0
            # each delta payload is O(delta): far below the full snapshot
            assert store.delta_bytes_shipped < full_bytes
        finally:
            store.close()

    def test_delta_resolve_bit_identical_to_full(self, graph):
        """The worker-side patched graph must be *bitwise* equal to the
        consumer's snapshot — same indptr/indices/weights arrays — which is
        what makes walks (and embeddings) transport-invariant."""
        chain = _delta_chain(graph, n_steps=3)
        store = SnapshotStore(rebase_every=8)
        try:
            snapshots_mod._WORKER_SNAPSHOTS.clear()
            store.ref_for(0, chain[0][0])
            for sid, (snap, delta) in enumerate(chain[1:], start=1):
                ref = store.ref_for(sid, snap, delta)
                assert ref[0] == "delta"
                got = resolve_snapshot_ref(ref)
                assert np.array_equal(got.indptr, snap.indptr)
                assert np.array_equal(got.indices, snap.indices)
                assert np.array_equal(got.weights, snap.weights)
        finally:
            store.close()
            snapshots_mod._WORKER_SNAPSHOTS.clear()

    def test_worker_skips_intermediate_sids(self, graph):
        """A worker that never ran sids 1..k-1 must still materialize sid k
        from the base alone — deltas are cumulative, not consecutive."""
        chain = _delta_chain(graph, n_steps=3)
        store = SnapshotStore(rebase_every=8)
        try:
            store.ref_for(0, chain[0][0])
            refs = [
                store.ref_for(sid, snap, delta)
                for sid, (snap, delta) in enumerate(chain[1:], start=1)
            ]
            snapshots_mod._WORKER_SNAPSHOTS.clear()  # fresh worker
            got = resolve_snapshot_ref(refs[-1])
            want = chain[-1][0]
            assert np.array_equal(got.indptr, want.indptr)
            assert np.array_equal(got.indices, want.indices)
        finally:
            store.close()
            snapshots_mod._WORKER_SNAPSHOTS.clear()

    def test_rebase_after_k_snapshots(self, graph):
        chain = _delta_chain(graph, n_steps=4)
        store = SnapshotStore(rebase_every=3)
        try:
            kinds = [
                store.ref_for(sid, snap, delta)[0]
                for sid, (snap, delta) in enumerate(chain)
            ]
            # chain length 3 = 1 full + 2 deltas, then a fresh base
            assert [k != "delta" for k in kinds] == [True, False, False, True, False]
            assert store.rebase_count == 1
        finally:
            store.close()

    def test_rebase_every_1_disables_deltas(self, graph):
        chain = _delta_chain(graph, n_steps=2)
        store = SnapshotStore(rebase_every=1)
        try:
            for sid, (snap, delta) in enumerate(chain):
                assert store.ref_for(sid, snap, delta)[0] != "delta"
            assert store.delta_refs == 0
            assert store.rebase_count == 0
        finally:
            store.close()

    def test_arc_guard_rejects_inconsistent_delta(self, graph):
        """A delta that does not account exactly for the snapshot's arc
        growth (here: the real batch polluted with an edge the base already
        has) must force a full publish, not a wrong patched graph on the
        workers."""
        chain = _delta_chain(graph, n_steps=1)
        store = SnapshotStore(rebase_every=8)
        try:
            store.ref_for(0, chain[0][0])
            snap, delta = chain[1]
            bogus = np.concatenate([delta, chain[0][0].edge_array()[:1]])
            ref = store.ref_for(1, snap, bogus)
            assert ref[0] != "delta"
        finally:
            store.close()

    def test_retire_spares_live_chain_base(self, graph):
        """``retire_below`` must not unlink the chain base while deltas
        still reference it; after a re-base the old base retires."""
        chain = _delta_chain(graph, n_steps=3)
        store = SnapshotStore(rebase_every=3)
        try:
            for sid, (snap, delta) in enumerate(chain[:3]):
                store.ref_for(sid, snap, delta)  # full, delta, delta
            store.retire_below(2)
            assert 0 in store._refs  # base survives: sid-2 deltas embed it
            assert 1 not in store._refs
            store.ref_for(3, chain[3][0], chain[3][1])  # re-base (chain full)
            store.retire_below(4)
            assert 0 not in store._refs  # old base finally retired
            assert set(store._refs) == {3}
        finally:
            store.close()

    def test_worker_eviction_keeps_base_across_deltas(self, graph):
        """Worker cache across a chain: patching sid k keeps the base (later
        deltas reuse it) and drops other passed sids; a re-base drops the
        whole old chain."""
        chain = _delta_chain(graph, n_steps=4)
        store = SnapshotStore(rebase_every=4)
        try:
            refs = [
                store.ref_for(sid, snap, delta)
                for sid, (snap, delta) in enumerate(chain)
            ]
            snapshots_mod._WORKER_SNAPSHOTS.clear()
            resolve_snapshot_ref(refs[0])
            resolve_snapshot_ref(refs[1])
            assert set(snapshots_mod._WORKER_SNAPSHOTS) == {0, 1}
            resolve_snapshot_ref(refs[3])  # last delta of the chain
            assert set(snapshots_mod._WORKER_SNAPSHOTS) == {0, 3}
            assert refs[4][0] != "delta"  # rebase boundary
            resolve_snapshot_ref(refs[4])
            assert set(snapshots_mod._WORKER_SNAPSHOTS) == {4}
        finally:
            store.close()
            snapshots_mod._WORKER_SNAPSHOTS.clear()

    def test_close_unlinks_delta_chain_segments(self, graph):
        before = _shm_names()
        chain = _delta_chain(graph, n_steps=3)
        store = SnapshotStore(rebase_every=2)
        for sid, (snap, delta) in enumerate(chain):
            store.ref_for(sid, snap, delta)
        store.close()
        assert _shm_names() <= before

    def test_rebase_every_validation(self):
        with pytest.raises(ValueError, match="rebase_every"):
            SnapshotStore(rebase_every=0)


class TestPipelineIntegration:
    def tasks(self, graph, other):
        def stream():
            yield WalkTask(starts=np.arange(graph.n_nodes), epoch=0, graph=other)
            yield WalkTask(starts=np.arange(graph.n_nodes), epoch=1, graph=other)

        return stream

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

    def test_delta_bit_identical_across_workers_prefetch_transports(self, graph):
        """The delta transport is pure transport: the embedding must match
        the inline path (which never ships anything) for every worker
        count, prefetch depth, transport, and rebase period."""
        from repro.dynamic import run_seq_scenario

        kw = dict(dim=8, hyper=HP, seed=3, edges_per_event=1, chunk_size=8)
        want = run_seq_scenario(graph, n_workers=0, **kw).embedding
        for nw, pf, tr, k in (
            (2, None, "shm", 8),
            (2, None, "pickle", 8),
            (4, 2, "shm", 4),
            (2, 6, "shm", 1),  # deltas off — same embedding either way
        ):
            res = run_seq_scenario(
                graph, n_workers=nw, prefetch=pf, transport=tr,
                snapshot_rebase_every=k, **kw,
            )
            assert np.array_equal(want, res.embedding), (nw, pf, tr, k)
            t = res.extras["telemetry"]
            if k == 1:
                assert t.delta_applies == 0 and t.ipc_delta_bytes == 0
            else:
                assert t.delta_applies > 0 and t.ipc_delta_bytes > 0

    def test_delta_bytes_scale_with_delta_not_graph(self, graph):
        """Per-event IPC under the delta transport: full snapshots ship only
        at rebase boundaries, so total bytes collapse relative to the
        every-event-full run on the same replay."""
        from repro.dynamic import run_seq_scenario

        kw = dict(dim=8, hyper=HP, seed=3, n_workers=2,
                  edges_per_event=1, chunk_size=8)
        full = run_seq_scenario(graph, snapshot_rebase_every=1, **kw)
        delta = run_seq_scenario(graph, snapshot_rebase_every=16, **kw)
        tf = full.extras["telemetry"]
        td = delta.extras["telemetry"]
        assert np.array_equal(full.embedding, delta.embedding)
        assert td.rebase_count > 0
        assert td.delta_applies > td.rebase_count  # mostly deltas
        assert (
            td.ipc_snapshot_bytes + td.ipc_delta_bytes
            < tf.ipc_snapshot_bytes / 2
        )

    def test_config_carries_rebase_knob(self, graph):
        from repro.dynamic import run_seq_scenario

        res = run_seq_scenario(
            graph, dim=8, hyper=HP, seed=3, edges_per_event=1, chunk_size=8,
            n_workers=2, snapshot_rebase_every=4,
        )
        assert res.extras["telemetry"].delta_applies > 0
        assert res.extras["telemetry"].rebase_count > 0

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm"), reason="needs /dev/shm"
    )
    def test_worker_crash_leaves_no_delta_chain_segments(self, graph, monkeypatch):
        """A crash mid-chain must not leak the chain base's segment (the one
        snapshot `retire_below` deliberately spares)."""
        from repro.dynamic import run_seq_scenario

        def boom(*a, **k):
            raise RuntimeError("worker crashed")

        monkeypatch.setattr(pipeline_mod, "_run_chunk", boom)
        before = _shm_names()
        with pytest.raises(RuntimeError, match="worker crashed"):
            run_seq_scenario(
                graph, dim=8, hyper=HP, seed=3, n_workers=2,
                edges_per_event=1, chunk_size=8, snapshot_rebase_every=8,
            )
        assert _shm_names() - before == set()
