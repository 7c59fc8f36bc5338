"""Tests for repro.parallel.pipeline."""

import numpy as np
import pytest

from repro.graph import ring_of_cliques
from repro.parallel import ParallelWalkGenerator, train_parallel
from repro.experiments.hyper import Node2VecParams
from repro.sampling.walks import WalkParams

HP = Node2VecParams(r=2, l=12, w=4, ns=3)


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
        with pytest.raises((ValueError, TypeError)):
            ParallelWalkGenerator(graph, prefetch=0)
        for bad in (
            {"n_workers": -1},
            {"n_workers": 1.5},
            {"n_workers": True},
            {"n_workers": "2"},
            {"prefetch": 0},
            {"snapshot_rebase_every": 0},
        ):
            with pytest.raises((ValueError, TypeError)):
                train_parallel(graph, dim=8, hyper=HP, seed=0, **bad)

    def test_generate_timed_reports_positive_times(self, graph):
        gen = ParallelWalkGenerator(
            graph, WalkParams(length=8, walks_per_node=1), chunk_size=10, seed=0
        )
        timed = list(gen.stream_timed())
        assert sum(len(c) for c, _, _ in timed) == graph.n_nodes
        assert all(dt > 0 for _, dt, _ in timed)


class TestTrainParallel:
    def test_runs_and_shapes(self, graph):
        res = train_parallel(graph, dim=8, model="proposed", hyper=HP, seed=0)
        assert res.embedding.shape == (graph.n_nodes, 8)
        assert res.n_walks == HP.r * graph.n_nodes

    def test_bit_identical_across_worker_counts(self, graph):
        a = train_parallel(graph, dim=8, hyper=HP, n_workers=0, seed=5)
        b = train_parallel(graph, dim=8, hyper=HP, n_workers=2, seed=5)
        assert np.array_equal(a.embedding, b.embedding)

    def test_deterministic_repeat(self, graph):
        a = train_parallel(graph, dim=8, hyper=HP, n_workers=2, seed=9)
        b = train_parallel(graph, dim=8, hyper=HP, n_workers=2, seed=9)
        assert np.array_equal(a.embedding, b.embedding)

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
