"""Streaming-pipeline tests: bounded buffering, seed namespaces, telemetry,
negative_source strategies, epochs, task streams — the invariants of the
walk→train overlap rewrite and the strategy-object refactor."""

import hashlib

import numpy as np
import pytest

from repro.embedding import MODEL_REGISTRY
from repro.embedding.kernels import EXEC_BACKENDS, EXEC_REGISTRY
from repro.graph import degree_corrected_sbm, ring_of_cliques
from repro.parallel import (
    NEGATIVE_SOURCES,
    ParallelWalkGenerator,
    PipelineTelemetry,
    WalkTask,
    train_parallel,
)
from repro.parallel import pipeline as pipeline_mod
from repro.experiments.hyper import Node2VecParams
from repro.sampling.sources import DecayedSource
from repro.sampling.walks import WalkParams

HP = Node2VecParams(r=2, l=12, w=4, ns=3)


# the chunks here are tiny; keep the pool-mechanics tests on the pool
pytestmark = pytest.mark.usefixtures("pooled")


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(4, 8, seed=0)


class TestSeedNamespaces:
    def test_starts_stream_disjoint_from_every_walk(self, graph):
        gen = ParallelWalkGenerator(graph, WalkParams(length=8), seed=5)
        starts_state = gen.starts_seed().generate_state(4)
        # includes the index the old scheme collided at ([seed, 0xC0FFEE])
        for j in (0, 1, 49374, 0xC0FFEE):
            walk_state = gen.walk_seed(j).generate_state(4)
            assert not np.array_equal(starts_state, walk_state)

    def test_regression_old_scheme_collides(self):
        # documents the bug fixed in PR 1: the old flat namespace used
        # [seed, 0xC0FFEE] for the start list and [seed, i] for stream i,
        # so stream index i = 0xC0FFEE replayed the start-shuffle stream
        seed, i = 5, 0xC0FFEE
        old_starts = np.random.SeedSequence([seed, 0xC0FFEE])
        old_chunk = np.random.SeedSequence([seed, i])
        assert np.array_equal(
            old_starts.generate_state(4), old_chunk.generate_state(4)
        )

    def test_walk_streams_distinct(self, graph):
        gen = ParallelWalkGenerator(graph, WalkParams(length=8), seed=5)
        a = gen.walk_seed(0).generate_state(4)
        b = gen.walk_seed(1).generate_state(4)
        assert not np.array_equal(a, b)

    def test_walk_seed_is_chunking_invariant(self, graph):
        """Walk j's stream depends only on (seed, j) — the property that
        makes the embedding independent of chunk_size/transport."""
        small = ParallelWalkGenerator(
            graph, WalkParams(length=8), seed=5, chunk_size=4
        )
        large = ParallelWalkGenerator(
            graph, WalkParams(length=8), seed=5, chunk_size=64
        )
        for j in (0, 3, 17):
            assert np.array_equal(
                small.walk_seed(j).generate_state(4),
                large.walk_seed(j).generate_state(4),
            )


class TestBoundedBuffering:
    def test_peak_buffered_bounded_by_prefetch_not_corpus(self, graph):
        params = WalkParams(length=8, walks_per_node=8)  # 256-walk corpus
        gen = ParallelWalkGenerator(graph, params, n_workers=2, chunk_size=8, seed=1)
        n_walks = sum(len(c) for c in gen.generate())
        assert n_walks == 8 * graph.n_nodes
        peak = gen.last_stats.peak_in_flight
        assert 0 < peak <= gen.prefetch * 8  # window * chunk_size
        assert peak < n_walks

    @pytest.mark.parametrize(("n_workers", "window"), ((0, 2), (1, 2), (2, 4), (3, 6)))
    def test_window_is_derived_from_the_worker_count(self, graph, n_workers, window):
        gen = ParallelWalkGenerator(graph, n_workers=n_workers)
        assert gen.prefetch == window
        with pytest.raises(AttributeError):
            gen.prefetch = 1

    def test_inline_peak_is_one_chunk(self, graph):
        gen = ParallelWalkGenerator(
            graph, WalkParams(length=8, walks_per_node=4), chunk_size=8, seed=1
        )
        list(gen.generate())
        assert gen.last_stats.peak_in_flight == 8

    def test_streamed_training_memory_bounded(self, graph):
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=8,
            negative_source="degree", seed=3,
        )
        assert res.n_walks == HP.r * graph.n_nodes
        assert res.telemetry.peak_buffered_walks <= 4 * 8  # window * chunk_size
        assert res.telemetry.peak_buffered_walks < res.n_walks

    def test_corpus_source_buffers_everything(self, graph):
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=8,
            negative_source="corpus", seed=3,
        )
        assert res.telemetry.peak_buffered_walks == res.n_walks

    def test_abandoned_iterator_shuts_pool_down(self, graph):
        gen = ParallelWalkGenerator(
            graph, WalkParams(length=8, walks_per_node=8),
            n_workers=2, chunk_size=8, seed=1,
        )
        it = gen.generate()
        next(it)
        it.close()  # must not hang on the throttled task-handler thread

    def test_early_consumption_partial(self, graph):
        gen = ParallelWalkGenerator(
            graph, WalkParams(length=8, walks_per_node=4),
            n_workers=2, chunk_size=8, seed=1,
        )
        chunks = []
        for chunk in gen.generate():
            chunks.append(chunk)
            if len(chunks) == 3:
                break
        assert len(chunks) == 3


class TestNegativeSources:
    @pytest.mark.parametrize("source", NEGATIVE_SOURCES)
    def test_bit_identical_across_worker_counts(self, graph, source):
        """The acceptance invariant: identical embedding for n_workers
        ∈ {0, 2, 4} under every negative_source."""
        embs = [
            train_parallel(
                graph, dim=8, hyper=HP, n_workers=nw, chunk_size=16,
                negative_source=source, seed=5,
            ).embedding
            for nw in (0, 2, 4)
        ]
        assert np.array_equal(embs[0], embs[1])
        assert np.array_equal(embs[0], embs[2])

    def test_degree_source_differs_but_learns_same_corpus(self, graph):
        a = train_parallel(
            graph, dim=8, hyper=HP, negative_source="corpus", seed=5
        )
        b = train_parallel(
            graph, dim=8, hyper=HP, negative_source="degree", seed=5
        )
        assert a.n_walks == b.n_walks
        assert not np.array_equal(a.embedding, b.embedding)

    # "two_pass" was a source once; nothing stores a source name, so it
    # maps to nothing
    @pytest.mark.parametrize("bad", ("oracle", "two_pass"))
    def test_invalid_source(self, graph, bad):
        with pytest.raises(ValueError, match="negative_source"):
            train_parallel(graph, hyper=HP, negative_source=bad)


class TestGoldenRegression:
    """Neither the negative-source strategy objects nor the kernel layer
    may move a single bit: these hashes pin the reference pipeline on this
    exact (unweighted) workload, whose walks draw one uniform per step, and
    are pinned to ``exec_backend="reference"`` explicitly — the blocked
    backend draws a different (bulk) negative stream by contract."""

    GOLD = {
        "corpus": "a8beef21c823ad71109f6b3c993febb6b51400db55704eaf1b6f3d13f9e82218",
        "degree": "19382db2e3fd8fc669e7d1f33568a42d8676f9ac486f91c6eff2a4786913e086",
    }

    @staticmethod
    def digest_of(res) -> str:
        return hashlib.sha256(
            np.ascontiguousarray(res.embedding).tobytes()
        ).hexdigest()

    @pytest.mark.parametrize("source", sorted(GOLD))
    def test_embedding_unchanged_vs_pre_refactor_seed(self, graph, source):
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=0, chunk_size=16,
            negative_source=source, exec_backend="reference", seed=5,
        )
        assert self.digest_of(res) == self.GOLD[source]

    #: weighted graphs walk in lockstep (repro.sampling.lockstep) once a
    #: chunk reaches the crossover; these hashes were recorded with the
    #: per-walk loop, before the lockstep path existed.  The graph has 13
    #: isolated nodes, so some walks truncate at length 1.
    WEIGHTED_GOLD = {
        (0.5, 1.0): "ea2e32373efeeb7cc713b944ec782c25c082aa1ac07261e8fa49dc4a4936a8ff",
        (2.0, 0.5): "d794a0bbadbf2f626f77fb6138e1adf99209b88fb040335ba4dd751c250e4e71",
    }

    @pytest.mark.parametrize(
        "n_workers,transport", [(0, "shm"), (2, "shm"), (2, "pickle")]
    )
    @pytest.mark.parametrize("pq", sorted(WEIGHTED_GOLD))
    def test_weighted_embedding_unchanged(self, pq, n_workers, transport):
        p, q = pq
        res = train_parallel(
            degree_corrected_sbm(120, 4, avg_degree=3, seed=3),
            dim=8, hyper=Node2VecParams(p=p, q=q, r=2, l=12, w=4, ns=3),
            n_workers=n_workers, chunk_size=64, transport=transport,
            negative_source="degree", exec_backend="reference", seed=5,
        )
        assert self.digest_of(res) == self.WEIGHTED_GOLD[pq]

    def test_reference_is_the_default_backend(self, graph):
        """Leaving exec_backend unset must keep hitting the goldens — the
        kernel layer changes nothing unless explicitly asked to."""
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=0, chunk_size=16,
            negative_source="degree", seed=5,
        )
        assert res.telemetry.exec_backend == "reference"
        assert self.digest_of(res) == self.GOLD["degree"]


class TestBlockedBackendPipeline:
    """``exec_backend="blocked"`` relaxes bit-identity to fixed *physical*
    chunking (the bulk negative draw is per chunk): identical across worker
    counts and transports (``tests/parallel/test_bit_identity.py``);
    different from reference (a different, equally valid negative stream);
    pinned to chunk_size."""

    def run(self, graph, **kw):
        kw.setdefault("chunk_size", 16)
        kw.setdefault("exec_backend", "blocked")
        return train_parallel(
            graph, dim=8, hyper=HP, negative_source="degree", seed=5, **kw,
        )

    def test_chunk_size_is_the_contract(self, graph):
        a = self.run(graph, chunk_size=16)
        b = self.run(graph, chunk_size=8)
        assert not np.array_equal(a.embedding, b.embedding)

    def test_differs_from_reference_but_counts_agree(self, graph):
        blocked = self.run(graph)
        ref = self.run(graph, exec_backend="reference")
        assert not np.array_equal(blocked.embedding, ref.embedding)
        assert blocked.n_walks == ref.n_walks
        assert blocked.n_contexts == ref.n_contexts

    # "fused" and "compiled" were backends once: only checkpoints still
    # map them
    @pytest.mark.parametrize("bad", ("warp", "fused", "compiled"))
    def test_invalid_backend_rejected(self, graph, bad):
        with pytest.raises(ValueError, match="exec_backend"):
            train_parallel(graph, hyper=HP, exec_backend=bad, seed=5)

    def test_train_walk_honors_backend(self, graph):
        """Walk-by-walk driving must train with the backend the trainer
        records: per-walk train_walk calls == one train_corpus call per
        walk under blocked (same per-walk bulk draws)."""
        from repro.embedding import WalkTrainer, make_model
        from repro.sampling.negative import NegativeSampler

        rng = np.random.default_rng(0)
        walks = [rng.integers(0, graph.n_nodes, size=10) for _ in range(4)]
        embs = []
        for how in ("corpus", "walks"):
            mdl = make_model("original", graph.n_nodes, 8, seed=1)
            tr = WalkTrainer(mdl, window=4, ns=3, exec_backend="blocked")
            sampler = NegativeSampler(np.ones(graph.n_nodes), seed=2)
            if how == "corpus":
                for w in walks:  # chunk boundaries identical either way
                    tr.train_corpus([w], sampler)
            else:
                for w in walks:
                    tr.train_walk(w, sampler)
            embs.append(mdl.embedding)
        assert np.array_equal(embs[0], embs[1])

    def test_telemetry_records_backend_and_context_rate(self, graph):
        res = self.run(graph)
        t = res.telemetry
        assert t.exec_backend == "blocked"
        assert t.train_walks == res.n_walks
        assert t.train_contexts == res.n_contexts
        assert t.train_contexts_per_s > 0
        assert t.train_contexts_per_s == pytest.approx(
            t.train_walks_per_s * res.n_contexts / res.n_walks
        )

    def test_telemetry_records_backend_and_throughput(self, graph):
        res = self.run(graph, n_workers=2)
        t = res.telemetry
        assert t.exec_backend == "blocked"
        assert t.train_walks == res.n_walks
        assert t.train_walks_per_s > 0

    @pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
    def test_every_registry_model_trains_blocked(self, graph, model):
        res = self.run(graph, model=model)
        assert np.isfinite(res.embedding).all()
        assert res.n_walks == HP.r * graph.n_nodes

    def test_blocked_instance_flows_through(self, graph):
        """A BlockedKernel instance rides exec_backend into the pipeline
        (the path a traced run's backend subclass takes): telemetry records
        "blocked" and the embedding is bitwise the string spelling's."""
        from repro.embedding.kernels import BlockedKernel

        by_name = self.run(graph, model="proposed")
        by_instance = self.run(graph, model="proposed",
                               exec_backend=BlockedKernel())
        assert by_instance.telemetry.exec_backend == "blocked"
        assert np.array_equal(by_name.embedding, by_instance.embedding)


class TestEveryBackendPipeline:
    """What holds for every registered backend at a fixed chunk size:
    every registry model trains identically across worker counts and
    transports, and a registry name, an instance and an instance of a
    subclass (the path a traced run takes) train the same bits and report
    the registry name in telemetry."""

    def run(self, graph, backend, **kw):
        kw.setdefault("chunk_size", 16)
        return train_parallel(
            graph, dim=8, hyper=HP, negative_source="degree",
            exec_backend=backend, seed=5, **kw,
        )

    @pytest.mark.parametrize("model", sorted(MODEL_REGISTRY))
    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    def test_every_registry_model_identical_across_workers_and_transports(
        self, graph, backend, model
    ):
        base = self.run(graph, backend, model=model)
        for kw in ({"n_workers": 2}, {"n_workers": 2, "transport": "pickle"}):
            res = self.run(graph, backend, model=model, **kw)
            assert np.array_equal(base.embedding, res.embedding), kw
            assert (res.n_walks, res.n_contexts) == (
                base.n_walks, base.n_contexts
            )

    @pytest.mark.parametrize("backend", EXEC_BACKENDS)
    def test_string_instance_and_subclass_agree(self, graph, backend):
        cls = EXEC_REGISTRY[backend]
        traced = type(f"Traced{cls.__name__}", (cls,), {})
        by_name = self.run(graph, backend)
        for spec in (cls(), traced()):
            res = self.run(graph, spec)
            assert np.array_equal(by_name.embedding, res.embedding), spec
            assert res.telemetry.exec_backend == backend
        assert by_name.telemetry.exec_backend == backend


class TestDecayedSource:
    """'decayed' relaxes bit-identity to fixed *virtual* chunking: the
    embedding must be identical across worker counts, transports AND
    physical chunk sizes whenever virtual_chunk agrees, and may differ
    when it does not."""

    def run(self, graph, *, n_workers=0, transport="shm", chunk_size=16,
            virtual_chunk=16, **kw):
        return train_parallel(
            graph, dim=8, hyper=HP, n_workers=n_workers, chunk_size=chunk_size,
            transport=transport,
            negative_source=DecayedSource(
                decay=0.9, rebuild_every=2, virtual_chunk=virtual_chunk
            ),
            seed=5, **kw,
        )

    def test_identical_across_workers_transports_and_chunk_sizes(self, graph):
        base = self.run(graph)
        for kw in (
            {"n_workers": 2},
            {"n_workers": 4},
            {"n_workers": 2, "transport": "pickle"},
            {"chunk_size": 8},
            {"n_workers": 2, "chunk_size": 64},
        ):
            res = self.run(graph, **kw)
            assert np.array_equal(base.embedding, res.embedding), kw

    def test_virtual_chunk_is_the_contract(self, graph):
        a = self.run(graph, virtual_chunk=16)
        b = self.run(graph, virtual_chunk=32)
        assert not np.array_equal(a.embedding, b.embedding)

    def test_rebuilds_counted_and_differ_from_degree(self, graph):
        res = self.run(graph)
        t = res.telemetry
        # 64 walks / 16-walk virtual chunks = 4 folds, rebuild every 2
        assert t.sampler_rebuilds == 2
        assert t.negative_source == "decayed"
        deg = train_parallel(graph, dim=8, hyper=HP, negative_source="degree", seed=5)
        assert not np.array_equal(res.embedding, deg.embedding)

    def test_registry_name_uses_defaults(self, graph):
        res = train_parallel(
            graph, dim=8, hyper=HP, negative_source="decayed", seed=5
        )
        assert res.telemetry.negative_source == "decayed"
        # 64-walk corpus < the canonical 256-walk virtual chunk: the degree
        # bootstrap is never folded over, but training still completes
        assert res.telemetry.sampler_rebuilds == 0


class TestTaskStreams:
    def test_manual_task_stream_trains_with_snapshot_telemetry(self, graph):
        other = ring_of_cliques(4, 8, seed=3)

        def tasks():
            yield WalkTask(starts=np.arange(8), epoch=0)
            yield WalkTask(starts=np.arange(8), epoch=1, graph=other)

        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=4,
            negative_source="degree", tasks=tasks(), seed=5,
        )
        assert res.n_walks == 16
        assert res.telemetry.n_snapshots == 2
        assert res.telemetry.snapshot_stall_s >= 0.0

    def test_task_stream_identical_across_workers_and_transports(self, graph):
        def tasks():
            yield WalkTask(starts=np.arange(graph.n_nodes), epoch=0)
            yield WalkTask(starts=np.arange(graph.n_nodes), epoch=1)

        runs = [
            train_parallel(
                graph, dim=8, hyper=HP, n_workers=nw, transport=tr, chunk_size=8,
                negative_source="degree", tasks=tasks(), seed=5,
            ).embedding
            for nw, tr in ((0, "shm"), (2, "shm"), (2, "pickle"))
        ]
        assert np.array_equal(runs[0], runs[1])
        assert np.array_equal(runs[0], runs[2])

    def test_mismatched_snapshot_rejected_early(self, graph):
        smaller = ring_of_cliques(2, 4, seed=0)
        stream = [WalkTask(starts=np.arange(4), graph=smaller)]
        with pytest.raises(ValueError, match="node universe"):
            train_parallel(
                graph, hyper=HP, negative_source="degree", tasks=stream, seed=5
            )

    def test_task_stream_rejects_epochs(self, graph):
        stream = [WalkTask(starts=np.arange(8))]
        with pytest.raises(ValueError, match="epochs"):
            train_parallel(graph, hyper=HP, tasks=stream, epochs=2, seed=5)

    def test_walk_seeds_span_tasks_globally(self, graph):
        """One 16-start task and two 8-start tasks must generate the same
        walks: seeding is by global walk index, not per task."""
        starts = np.arange(16) % graph.n_nodes
        gen = ParallelWalkGenerator(graph, WalkParams(length=8), seed=5, chunk_size=4)
        one = [w for c, *_ in gen.stream_timed([WalkTask(starts=starts)]) for w in c]
        split = [
            w
            for c, *_ in gen.stream_timed(
                [WalkTask(starts=starts[:8]), WalkTask(starts=starts[8:], epoch=1)]
            )
            for w in c
        ]
        assert len(one) == len(split) == 16
        for a, b in zip(one, split, strict=True):
            assert np.array_equal(a, b)


class TestEpochs:
    def test_epochs_multiply_walks(self, graph):
        res = train_parallel(graph, dim=8, hyper=HP, epochs=3, seed=5)
        assert res.n_walks == 3 * HP.r * graph.n_nodes

    def test_epochs_use_fresh_walks(self, graph):
        one = train_parallel(graph, dim=8, hyper=HP, epochs=1, seed=5)
        two = train_parallel(graph, dim=8, hyper=HP, epochs=2, seed=5)
        assert not np.array_equal(one.embedding, two.embedding)

    @pytest.mark.parametrize("source", NEGATIVE_SOURCES)
    def test_epochs_deterministic_across_workers(self, graph, source):
        a = train_parallel(
            graph, dim=8, hyper=HP, epochs=2, n_workers=0,
            negative_source=source, seed=5,
        )
        b = train_parallel(
            graph, dim=8, hyper=HP, epochs=2, n_workers=2,
            negative_source=source, seed=5,
        )
        assert np.array_equal(a.embedding, b.embedding)

    def test_invalid_epochs(self, graph):
        with pytest.raises((ValueError, TypeError)):
            train_parallel(graph, hyper=HP, epochs=0)


class TestTelemetry:
    def test_telemetry_attached_and_consistent(self, graph):
        res = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=16,
            negative_source="degree", seed=5,
        )
        t = res.telemetry
        assert isinstance(t, PipelineTelemetry)
        assert t.negative_source == "degree"
        assert t.n_workers == 2
        assert t.epochs == 1
        expected_chunks = -(-HP.r * graph.n_nodes // 16)
        assert t.n_chunks == expected_chunks
        assert t.total_s > 0
        assert t.train_s > 0
        assert t.generation_s > 0
        assert 0.0 <= t.overlap_efficiency <= 1.0

    def test_sequential_result_has_no_telemetry(self, graph):
        from repro.embedding.trainer import train_on_graph

        res = train_on_graph(graph, dim=8, hyper=HP, seed=0)
        assert res.telemetry is None


class TestTelemetryInvariants:
    """The accounting contracts of PipelineTelemetry over a two-epoch run."""

    @pytest.fixture
    def result(self, graph, pooled):
        return train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, chunk_size=8,
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
        assert t.epochs == 2

    def test_peak_buffered_bounded_by_window(self, result):
        assert 0 < result.telemetry.peak_buffered_walks <= 4 * 8  # 2 workers' window

    def test_transport_recorded(self, result):
        assert result.telemetry.transport in ("shm", "pickle")

    def test_overlap_efficiency_in_unit_interval(self, result):
        assert 0.0 <= result.telemetry.overlap_efficiency <= 1.0


class TestInlineStateIsolation:
    def test_inline_generate_leaves_globals_alone(self, graph):
        """The inline path passes state explicitly; the worker globals stay
        untouched in the parent process."""
        gen = ParallelWalkGenerator(graph, WalkParams(length=8), seed=0)
        list(gen.generate())
        assert pipeline_mod._WORKER_GRAPH is None
        assert pipeline_mod._WORKER_PARAMS is None

    def test_two_generators_do_not_interfere(self, graph):
        p1 = WalkParams(length=6, walks_per_node=1)
        p2 = WalkParams(length=10, walks_per_node=1)
        g1 = ParallelWalkGenerator(graph, p1, seed=0)
        g2 = ParallelWalkGenerator(graph, p2, seed=0)
        it1, it2 = g1.generate(), g2.generate()
        c1, c2 = next(it1), next(it2)
        assert max(len(w) for w in c1) <= 6
        assert max(len(w) for w in c2) <= 10


class TestApiIntegration:
    def test_api_routes_to_pipeline(self, graph):
        from repro import train_embedding

        res = train_embedding(
            graph, dim=8, hyper=HP, n_workers=2, negative_source="degree", seed=5
        )
        assert res.telemetry is not None
        direct = train_parallel(
            graph, dim=8, hyper=HP, n_workers=2, negative_source="degree", seed=5
        )
        assert np.array_equal(res.embedding, direct.embedding)

    def test_api_negative_source_alone_implies_pipeline(self, graph):
        from repro import train_embedding

        res = train_embedding(graph, dim=8, hyper=HP, negative_source="degree", seed=5)
        assert res.telemetry is not None
        assert res.telemetry.n_workers == 0

    def test_api_default_stays_sequential(self, graph):
        from repro import train_embedding
        from repro.embedding.trainer import train_on_graph

        a = train_embedding(graph, dim=8, hyper=HP, seed=4)
        b = train_on_graph(graph, dim=8, hyper=HP, seed=4)
        assert a.telemetry is None
        assert np.array_equal(a.embedding, b.embedding)

    def test_api_exec_backend_valid_on_both_paths(self, graph):
        """exec_backend alone does NOT imply the pipeline (the sequential
        trainer supports it too), and it rides into the pipelined path."""
        from repro import train_embedding

        seq = train_embedding(graph, dim=8, hyper=HP, exec_backend="blocked", seed=4)
        assert seq.telemetry is None
        assert seq.model.exec_backend == "blocked"
        par = train_embedding(
            graph, dim=8, hyper=HP, n_workers=2, negative_source="degree",
            exec_backend="blocked", seed=4,
        )
        assert par.telemetry.exec_backend == "blocked"

    def test_api_forwards_model_kwargs(self, graph):
        from repro import train_embedding

        seq = train_embedding(graph, dim=8, hyper=HP, seed=0, mu=0.123)
        par = train_embedding(graph, dim=8, hyper=HP, n_workers=2, seed=0, mu=0.123)
        assert seq.model.mu == 0.123
        assert par.model.mu == 0.123
