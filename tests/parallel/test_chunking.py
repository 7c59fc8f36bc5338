"""Adaptive chunk-size controller: initial sizing, the stall-fraction
hill-climb, clamping, and the telemetry invariants of the pipeline."""

import pytest

from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.parallel import (
    MAX_CHUNK_SIZE,
    MIN_CHUNK_SIZE,
    AdaptiveChunkController,
    EpochStats,
    train_parallel,
)

HP = Node2VecParams(r=2, l=12, w=4, ns=3)


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(4, 8, seed=0)


def stats(chunk_size=64, wait_s=0.0, elapsed_s=1.0, **kw):
    return EpochStats(
        chunk_size=chunk_size,
        n_chunks=kw.get("n_chunks", 10),
        generation_s=kw.get("generation_s", 0.5),
        wait_s=wait_s,
        train_s=kw.get("train_s", 0.5),
        elapsed_s=elapsed_s,
    )


class TestEpochStats:
    def test_stall_fraction(self):
        assert stats(wait_s=0.25, elapsed_s=1.0).stall_fraction == 0.25

    def test_stall_fraction_clamped_and_degenerate(self):
        assert stats(wait_s=5.0, elapsed_s=1.0).stall_fraction == 1.0
        assert stats(wait_s=0.5, elapsed_s=0.0).stall_fraction == 0.0


class TestController:
    def test_initial_size_targets_worker_load_balance(self):
        # ~4 chunks per worker: 4096 walks / (4 * 4 workers) = 256
        c = AdaptiveChunkController(n_walks=4096, n_workers=4)
        assert c.next_chunk_size() == 256

    def test_initial_size_inline_is_whole_corpus_clamped(self):
        c = AdaptiveChunkController(n_walks=500, n_workers=0)
        assert c.next_chunk_size() == 500
        c = AdaptiveChunkController(n_walks=10**9, n_workers=0)
        assert c.next_chunk_size() == MAX_CHUNK_SIZE

    def test_small_corpus_floors_at_min_size(self):
        c = AdaptiveChunkController(n_walks=40, n_workers=8)
        assert c.next_chunk_size() == MIN_CHUNK_SIZE

    def test_high_stall_grows_chunk(self):
        c = AdaptiveChunkController(n_walks=10_000, n_workers=2, initial=128)
        c.observe(stats(wait_s=0.5, elapsed_s=1.0))  # 50% stalled
        assert c.next_chunk_size() == 256

    def test_low_stall_shrinks_chunk(self):
        c = AdaptiveChunkController(n_walks=10_000, n_workers=2, initial=128)
        c.observe(stats(wait_s=0.0, elapsed_s=1.0))  # fully hidden
        assert c.next_chunk_size() == 64

    def test_band_is_hysteresis(self):
        c = AdaptiveChunkController(n_walks=10_000, n_workers=2, initial=128)
        c.observe(stats(wait_s=0.05, elapsed_s=1.0))  # inside [0.02, 0.10]
        assert c.next_chunk_size() == 128

    def test_growth_clamped_to_worker_share_and_max(self):
        # 300 walks / 2 workers → growth can never pass the 150-walk share
        # (a bigger chunk would serialize the pool with no way back)
        c = AdaptiveChunkController(n_walks=300, n_workers=2, initial=100)
        c.observe(stats(wait_s=0.9, elapsed_s=1.0))
        assert c.next_chunk_size() == 150
        c.observe(stats(wait_s=0.9, elapsed_s=1.0))
        assert c.next_chunk_size() == 150
        c = AdaptiveChunkController(n_walks=10**8, n_workers=2,
                                    initial=MAX_CHUNK_SIZE)
        c.observe(stats(wait_s=0.9, elapsed_s=1.0))
        assert c.next_chunk_size() == MAX_CHUNK_SIZE

    def test_shrink_clamped_to_min(self):
        c = AdaptiveChunkController(n_walks=10_000, n_workers=2,
                                    initial=MIN_CHUNK_SIZE)
        c.observe(stats(wait_s=0.0, elapsed_s=1.0))
        assert c.next_chunk_size() == MIN_CHUNK_SIZE

    def test_history_records_observations(self):
        c = AdaptiveChunkController(n_walks=10_000, n_workers=2)
        c.observe(stats(wait_s=0.2))
        c.observe(stats(wait_s=0.0))
        assert len(c.history) == 2

    def test_invalid_band_rejected(self):
        with pytest.raises(ValueError):
            AdaptiveChunkController(
                n_walks=100, n_workers=2, low_stall=0.5, high_stall=0.1
            )


@pytest.mark.usefixtures("pooled")  # the chunks here are tiny
class TestTelemetryInvariants:
    """The accounting contracts of PipelineTelemetry (ISSUE satellite)."""

    @pytest.fixture
    def result(self, graph, pooled):
        return train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=8, prefetch=2,
            negative_source="degree", seed=5, epochs=2,
        )

    def test_stage_times_sum_within_total(self, result):
        t = result.telemetry
        # wait and train are disjoint consumer-side intervals carved out of
        # the run; generation happens on workers and may exceed total
        assert 0.0 <= t.wait_s
        assert 0.0 < t.train_s
        assert 0.0 < t.generation_s
        assert t.wait_s + t.train_s <= t.total_s + 1e-6

    def test_chunk_accounting(self, result, graph):
        t = result.telemetry
        walks_per_epoch = HP.r * graph.n_nodes
        assert t.n_chunks == 2 * -(-walks_per_epoch // 8)
        assert t.chunk_sizes == [8, 8]
        assert t.epochs == 2

    def test_peak_buffered_bounded_by_window(self, result):
        assert 0 < result.telemetry.peak_buffered_walks <= 2 * 8

    def test_transport_recorded(self, result):
        assert result.telemetry.transport in ("shm", "pickle")

    def test_overlap_efficiency_in_unit_interval(self, result):
        assert 0.0 <= result.telemetry.overlap_efficiency <= 1.0

    @pytest.mark.parametrize("source", ["corpus", "two_pass"])
    def test_bootstrap_epoch_does_not_steer_controller(self, graph, source):
        """corpus buffering / two_pass counting stall by construction, so
        their epoch must not feed the controller — the second epoch keeps
        the initial size instead of reacting to structural stall."""
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size="auto",
            negative_source=source, seed=5, epochs=2,
        )
        sizes = res.telemetry.chunk_sizes
        assert sizes[1] == sizes[0]

    def test_auto_records_per_epoch_sizes(self, graph):
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size="auto",
            negative_source="degree", seed=5, epochs=3,
        )
        t = res.telemetry
        assert len(t.chunk_sizes) == 3
        assert all(MIN_CHUNK_SIZE <= c <= MAX_CHUNK_SIZE for c in t.chunk_sizes)
        # every epoch's chunks are accounted for
        expected = sum(
            -(-HP.r * graph.n_nodes // c) for c in t.chunk_sizes
        )
        assert t.n_chunks == expected
