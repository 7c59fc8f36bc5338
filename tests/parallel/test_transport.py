"""Walk-transport tests: the shared-memory ring, pickle/shm equivalence,
fallback paths, and SharedMemory hygiene (no leaked segments, ever)."""

import os

import numpy as np
import pytest

from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.parallel import (
    NEGATIVE_SOURCES,
    TRANSPORTS,
    ParallelWalkGenerator,
    ShmWalkRing,
    train_parallel,
)
from repro.parallel import pipeline as pipeline_mod
from repro.sampling.lockstep import WalkBatch
from repro.sampling.walks import WalkParams

HP = Node2VecParams(r=2, l=12, w=4, ns=3)


# the chunks here are tiny; keep the pool-mechanics tests on the pool
pytestmark = pytest.mark.usefixtures("pooled")

needs_dev_shm = pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)


def _shm_available() -> bool:
    """Can this host actually create shared-memory segments?  (The library
    falls back to pickling when it cannot — tests that assert shm *engaged*
    must skip there, mirroring the bench's `if transport == "shm"` guard.)"""
    try:
        ring = ShmWalkRing.create(1, 1, 1)
    except Exception:
        return False
    ring.close()
    ring.unlink()
    return True


needs_shm = pytest.mark.skipif(
    not _shm_available(), reason="shared memory unavailable on this host"
)


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(4, 8, seed=0)


def shm_segments() -> set:
    """Names currently present under /dev/shm (posix shared memory)."""
    return set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()


def pack(walks):
    """A chunk as the padded batch workers hand the ring."""
    return WalkBatch.from_walks(walks, max(len(w) for w in walks))


@needs_shm
class TestShmWalkRing:
    def test_write_read_roundtrip_ragged(self):
        with ShmWalkRing.create(2, 4, 10) as ring:
            walks = [
                np.arange(10, dtype=np.int64),
                np.array([7], dtype=np.int64),
                np.arange(5, dtype=np.int64) * 3,
            ]
            assert ring.write(1, pack(walks))
            back = ring.read(1)
            assert len(back) == 3
            for w, b in zip(walks, back, strict=True):
                assert np.array_equal(w, b)

    def test_read_returns_views_not_copies(self):
        with ShmWalkRing.create(1, 2, 6) as ring:
            ring.write(0, pack([np.arange(6, dtype=np.int64)]))
            view = ring.read(0)[0]
            assert view.base is not None  # a view into the segment
            # rewriting the slot is visible through the old view (aliasing
            # is the documented lifetime contract, not a bug)
            ring.write(0, pack([np.zeros(6, dtype=np.int64)]))
            assert np.array_equal(view, np.zeros(6))

    def test_slot_reuse_overwrites_count(self):
        with ShmWalkRing.create(1, 4, 6) as ring:
            ring.write(0, pack([np.arange(6, dtype=np.int64)] * 4))
            ring.write(0, pack([np.arange(3, dtype=np.int64)]))
            assert len(ring.read(0)) == 1

    def test_ragged_beyond_slot_rejected(self):
        with ShmWalkRing.create(1, 2, 6) as ring:
            # too many walks for the slot
            assert not ring.write(0, pack([np.arange(3, dtype=np.int64)] * 3))
            # a walk longer than the slot row
            assert not ring.write(0, pack([np.arange(7, dtype=np.int64)]))
            # and the slot was left untouched
            assert ring.read(0) == []

    def test_attach_sees_owner_writes(self):
        with ShmWalkRing.create(2, 3, 5) as ring:
            ring.write(0, pack([np.array([1, 2, 3], dtype=np.int64)]))
            other = ShmWalkRing.attach(ring.spec)
            try:
                assert np.array_equal(other.read(0)[0], [1, 2, 3])
                assert not other.owner
            finally:
                other.close()

    @needs_dev_shm
    def test_context_manager_unlinks_segment(self):
        before = shm_segments()
        with ShmWalkRing.create(2, 4, 8) as ring:
            name = ring.shm.name.lstrip("/")
            assert name in shm_segments()
        assert shm_segments() - before == set()

    @needs_dev_shm
    def test_close_with_live_views_still_unlinks(self):
        """The zero-copy contract's failure mode: a caller retains views
        past the ring's life.  The segment must still disappear from
        /dev/shm and no error may surface (the mapping dies with the
        views)."""
        before = shm_segments()
        ring = ShmWalkRing.create(1, 2, 6)
        ring.write(0, pack([np.arange(6, dtype=np.int64)]))
        view = ring.read(0)[0]
        ring.close()
        ring.unlink()
        assert shm_segments() - before == set()
        assert view[0] == 0  # the retained view still reads


class TestTransportEquivalence:
    @pytest.mark.parametrize("source", NEGATIVE_SOURCES)
    def test_bit_identical_across_chunk_sizes(self, graph, source):
        """chunk_size never changes the embedding, over two epochs (the
        corpus source's buffered pass and its streamed one)."""
        embs = [
            train_parallel(
                graph, dim=8, hyper=HP, n_workers=2, chunk_size=cs,
                negative_source=source, seed=5, epochs=2,
            ).embedding
            for cs in (4, 16, 64)
        ]
        assert np.array_equal(embs[0], embs[1])
        assert np.array_equal(embs[0], embs[2])

    @needs_shm
    def test_generator_chunks_identical_across_transports(self, graph):
        params = WalkParams(length=8, walks_per_node=4)
        corpora = {}
        for transport in TRANSPORTS:
            gen = ParallelWalkGenerator(
                graph, params, n_workers=2, chunk_size=8, seed=3,
                transport=transport,
            )
            corpora[transport] = gen.all_walks()
            assert gen.effective_transport == transport
        assert len(corpora["shm"]) == len(corpora["pickle"])
        for a, b in zip(corpora["shm"], corpora["pickle"], strict=True):
            assert np.array_equal(a, b)

    @needs_shm
    def test_api_exposes_transport(self, graph):
        from repro import train_embedding

        shm = train_embedding(
            graph, dim=8, hyper=HP, n_workers=2, transport="shm", seed=5
        )
        pik = train_embedding(
            graph, dim=8, hyper=HP, n_workers=2, transport="pickle", seed=5
        )
        assert shm.telemetry.transport == "shm"
        assert pik.telemetry.transport == "pickle"
        assert np.array_equal(shm.embedding, pik.embedding)

    def test_api_transport_alone_implies_pipeline(self, graph):
        from repro import train_embedding

        res = train_embedding(graph, dim=8, hyper=HP, transport="shm", seed=5)
        assert res.telemetry is not None

    def test_api_chunk_size_alone_implies_pipeline(self, graph):
        from repro import train_embedding

        res = train_embedding(graph, dim=8, hyper=HP, chunk_size=16, seed=5)
        assert res.telemetry is not None
        assert res.telemetry.n_chunks == -(-HP.r * graph.n_nodes // 16)

    def test_invalid_transport(self, graph):
        with pytest.raises(ValueError):
            # reprolint: disable=registry-sync(deliberately invalid name for the error path)
            train_parallel(graph, hyper=HP, transport="carrier_pigeon")
        with pytest.raises(ValueError):
            # reprolint: disable=registry-sync(deliberately invalid name for the error path)
            ParallelWalkGenerator(graph, transport="osc")

    # "auto" was a timing-driven chunk schedule once; chunk_size is an int
    @pytest.mark.parametrize("bad", ("adaptive", "auto"))
    def test_invalid_chunk_size_string(self, graph, bad):
        with pytest.raises(TypeError, match="chunk_size"):
            train_parallel(graph, hyper=HP, chunk_size=bad)


class TestIpcAccounting:
    @needs_shm
    def test_pickle_moves_walk_bytes_shm_moves_none(self, graph):
        pik = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=16,
            transport="pickle", negative_source="degree", seed=5,
        )
        shm = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=16,
            transport="shm", negative_source="degree", seed=5,
        )
        assert pik.telemetry.ipc_walk_bytes > 0
        assert shm.telemetry.ipc_walk_bytes == 0
        assert shm.telemetry.ipc_walk_bytes < pik.telemetry.ipc_walk_bytes

    def test_inline_has_no_ipc(self, graph):
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=0, negative_source="degree", seed=5
        )
        assert res.telemetry.transport == "inline"
        assert res.telemetry.ipc_walk_bytes == 0


class TestFallbacks:
    def test_ring_creation_failure_falls_back_to_pickle(self, graph, monkeypatch):
        def no_shm(*a, **k):
            raise OSError("shared memory unavailable")

        monkeypatch.setattr(pipeline_mod.ShmWalkRing, "create", no_shm)
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=16,
            transport="shm", negative_source="degree", seed=5,
        )
        assert res.telemetry.transport == "pickle"
        reference = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=16,
            transport="pickle", negative_source="degree", seed=5,
        )
        assert np.array_equal(res.embedding, reference.embedding)

    @needs_shm
    def test_ragged_chunk_falls_back_per_chunk(self, graph, monkeypatch):
        """When a chunk does not fit its slot the worker degrades that
        chunk — and only that chunk — to the pickle payload."""
        monkeypatch.setattr(
            pipeline_mod.ShmWalkRing, "write", lambda self, slot, walks: False
        )
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=16,
            transport="shm", negative_source="degree", seed=5,
        )
        # every chunk fell back, so walk bytes crossed the pickle channel
        assert res.telemetry.ipc_walk_bytes > 0
        reference = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=16,
            transport="pickle", negative_source="degree", seed=5,
        )
        assert np.array_equal(res.embedding, reference.embedding)


@needs_dev_shm
class TestNoLeakedSegments:
    def test_train_parallel_leaves_dev_shm_clean(self, graph):
        before = shm_segments()
        train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=8,
            transport="shm", negative_source="degree", seed=5, epochs=2,
        )
        assert shm_segments() - before == set()

    def test_worker_exception_leaves_dev_shm_clean(self, graph, monkeypatch):
        def boom(*a, **k):
            raise RuntimeError("worker crashed")

        monkeypatch.setattr(pipeline_mod, "_run_chunk", boom)
        before = shm_segments()
        with pytest.raises(RuntimeError, match="worker crashed"):
            train_parallel(
                graph, dim=8, hyper=HP, n_workers=2, chunk_size=8,
                transport="shm", negative_source="degree", seed=5,
            )
        assert shm_segments() - before == set()

    def test_abandoned_iterator_leaves_dev_shm_clean(self, graph):
        gen = ParallelWalkGenerator(
            graph, WalkParams(length=8, walks_per_node=8),
            n_workers=2, chunk_size=8, seed=1, transport="shm",
        )
        before = shm_segments()
        it = gen.generate()
        next(it)
        it.close()
        assert shm_segments() - before == set()


@needs_shm
class TestSlotRecycling:
    def test_many_more_chunks_than_slots(self, graph):
        """The ring has window + 1 slots; a corpus of many chunks must
        stream through it with the window bound intact."""
        params = WalkParams(length=8, walks_per_node=8)  # 256-walk corpus
        gen = ParallelWalkGenerator(
            graph, params, n_workers=2, chunk_size=8, seed=1, transport="shm",
        )
        n_chunks = 0
        for chunk in gen.generate():
            assert 0 < len(chunk) <= 8
            n_chunks += 1
        assert n_chunks == 32  # far more than the 5 ring slots
        assert gen.last_stats.peak_in_flight <= gen.prefetch * 8
        assert gen.last_stats.consumed_walks == 8 * graph.n_nodes

    def test_shm_views_valid_during_consumption(self, graph):
        """Each yielded chunk must read correctly while current — compare
        against the inline reference corpus chunk by chunk."""
        params = WalkParams(length=8, walks_per_node=4)
        reference = ParallelWalkGenerator(
            graph, params, n_workers=0, chunk_size=8, seed=2
        ).all_walks()
        gen = ParallelWalkGenerator(
            graph, params, n_workers=2, chunk_size=8, seed=2, transport="shm",
        )
        i = 0
        for chunk in gen.generate():
            for w in chunk:
                assert np.array_equal(w, reference[i])
                i += 1
        assert i == len(reference)
