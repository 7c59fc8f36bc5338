"""Tests for repro.sampling.lockstep: lockstep walks are bitwise-equal to
one ``Node2VecWalker.walk`` per start, drawn from the same per-walk
streams, and the pipeline's chunk walker picks the right path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import degree_corrected_sbm, ring_of_cliques
from repro.parallel import pipeline as pipeline_mod
from repro.sampling.lockstep import LOCKSTEP_MIN_WALKS, WalkBatch, lockstep_walks
from repro.sampling.walks import Node2VecWalker, WalkParams
from repro.utils.rng import as_generator

SEED = 11


def streams(lo, n):
    """The pipeline's per-walk streams for global walks ``lo … lo + n - 1``."""
    return [as_generator(pipeline_mod._walk_seed(SEED, lo + k)) for k in range(n)]


def per_walk(graph, params, starts, lo):
    walker = Node2VecWalker(graph, params, seed=0)
    out = []
    for s, rng in zip(starts, streams(lo, len(starts)), strict=True):
        walker.rng = rng
        out.append(walker.walk(int(s)))
    return out


def assert_same_walks(expected, walks):
    """``walks`` is a :class:`WalkBatch` (lockstep) or the per-walk list."""
    got = walks.walks() if isinstance(walks, WalkBatch) else walks
    assert len(got) == len(expected)
    for e, g in zip(expected, got, strict=True):
        assert g.dtype == np.int64
        assert np.array_equal(e, g)


def random_graph(seed, n, n_isolated, arcs_per_node, directed, weighted=True):
    """Random graph whose last ``n_isolated`` nodes have no edges; directed
    graphs also have dangling nodes mid-walk.  An unweighted graph keeps
    each distinct edge once, at weight 1."""
    rng = as_generator(seed)
    live = n - n_isolated
    m = int(arcs_per_node * live)
    edges = rng.integers(0, max(live, 1), size=(m, 2))
    weights = rng.uniform(0.05, 5.0, size=m)
    g = CSRGraph.from_edges(n, edges, weights, directed=directed)
    if weighted:
        return g
    return CSRGraph.from_edges(n, g.edge_array(), directed=directed)


class TestBitIdentity:
    @given(
        graph_seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        n_isolated=st.integers(0, 3),
        arcs_per_node=st.sampled_from([0.6, 1.5, 4.0]),
        directed=st.booleans(),
        weighted=st.booleans(),
        p=st.sampled_from([0.25, 0.5, 1.0, 3.0]),
        q=st.sampled_from([0.5, 1.0, 2.0]),
        length=st.sampled_from([1, 2, 3, 9, 30]),
        n_walks=st.integers(1, 3 * LOCKSTEP_MIN_WALKS),
        lo=st.integers(0, 2**40),
    )
    @settings(max_examples=200, deadline=None)
    def test_lockstep_equals_per_walk_loop(
        self, graph_seed, n, n_isolated, arcs_per_node, directed, weighted, p, q,
        length, n_walks, lo,
    ):
        g = random_graph(
            graph_seed, n, min(n_isolated, n - 1), arcs_per_node, directed, weighted
        )
        assert weighted or (g.weights == 1.0).all()
        params = WalkParams(p=p, q=q, length=length)
        starts = as_generator(graph_seed).integers(0, n, size=n_walks)
        expected = per_walk(g, params, starts, lo)
        # the kernel itself, at any chunk size
        assert_same_walks(expected, lockstep_walks(g, params, starts, streams(lo, n_walks)))
        # and the pipeline's chunk walker, on both sides of the crossover
        walks, _ = pipeline_mod._run_chunk(g, params, starts, SEED, lo)
        assert_same_walks(expected, walks)

    @pytest.mark.parametrize("q", [1.0, 0.5])
    def test_heavy_tailed_sbm(self, q):
        """Many degree buckets per step: the shape of the benchmark graph."""
        g = degree_corrected_sbm(400, 4, avg_degree=10, seed=2)
        params = WalkParams(p=0.5, q=q, length=40)
        starts = np.arange(0, 400, 3)
        assert_same_walks(
            per_walk(g, params, starts, 77),
            lockstep_walks(g, params, starts, streams(77, starts.shape[0])),
        )

    @pytest.mark.parametrize("q", [0.5, 2.0])
    def test_directed_return_test_follows_arc_direction(self, q):
        """On a directed graph α uses the arc prev → next, not next → prev."""
        g = random_graph(5, 30, 0, 4.0, directed=True)
        params = WalkParams(p=1.0, q=q, length=30)
        starts = np.arange(0, 30, 2)
        assert_same_walks(
            per_walk(g, params, starts, 3),
            lockstep_walks(g, params, starts, streams(3, starts.shape[0])),
        )

    def test_sinks_truncate_walks(self):
        # directed path 0 → 1 → 2 with 2 dangling, plus an isolated node 3
        g = CSRGraph.from_edges(4, [(0, 1), (1, 2)], [2.0, 0.5], directed=True)
        params = WalkParams(length=5)
        batch = lockstep_walks(g, params, np.array([0, 1, 2, 3]), streams(0, 4))
        assert batch.lengths.tolist() == [3, 2, 1, 1]
        assert batch.walks()[0].tolist() == [0, 1, 2]
        assert (batch.data[0, 3:] == -1).all()

    def test_zero_weight_row_raises_like_per_walk(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)], [0.0, 0.0], directed=True)
        params = WalkParams(length=3)
        starts = np.zeros(4, dtype=np.int64)
        message = "walk stepped from a node whose out-edge weights sum to 0"
        with pytest.raises(IndexError, match=message):
            per_walk(g, params, starts, 0)
        with pytest.raises(IndexError, match=message):
            lockstep_walks(g, params, starts, streams(0, 4))

    @pytest.mark.parametrize("weighted", [True, False])
    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "n_walks", [LOCKSTEP_MIN_WALKS - 1, LOCKSTEP_MIN_WALKS, 2 * LOCKSTEP_MIN_WALKS]
    )
    def test_hub_row(self, weighted, q, n_walks):
        """A row of degree 600, far wider than the property's graphs: the
        scalar step's prefix sum and bisect meet lockstep's padded blocks
        on both sides of the crossover."""
        rng = as_generator(4)
        n, hub_degree = 700, 600
        spokes = np.stack([np.zeros(hub_degree, dtype=np.int64),
                           np.arange(1, hub_degree + 1)], axis=1)
        rim = rng.integers(1, n, size=(3 * n, 2))
        edges = np.concatenate([spokes, rim])
        weights = rng.uniform(0.05, 5.0, size=edges.shape[0]) if weighted else None
        g = CSRGraph.from_edges(n, edges, weights)
        assert g.degree(0) >= 500
        params = WalkParams(p=0.5, q=q, length=30)
        starts = np.resize([0, 5, 0, 650], n_walks)
        expected = per_walk(g, params, starts, 9)
        assert sum(int((w == 0).sum()) for w in expected) > n_walks  # hub revisited
        assert_same_walks(expected, lockstep_walks(g, params, starts, streams(9, n_walks)))
        walks, _ = pipeline_mod._run_chunk(g, params, starts, SEED, 9)
        assert_same_walks(expected, walks)


class TestChunkPath:
    def spy(self, monkeypatch):
        calls = []
        real = pipeline_mod.lockstep_walks

        def spying(graph, params, starts, streams):
            calls.append(len(starts))
            return real(graph, params, starts, streams)

        monkeypatch.setattr(pipeline_mod, "lockstep_walks", spying)
        return calls

    def test_weighted_chunks_at_the_crossover_go_lockstep(self, monkeypatch):
        calls = self.spy(monkeypatch)
        g = degree_corrected_sbm(60, 2, avg_degree=6, seed=0)
        params = WalkParams(length=6)
        for n in (LOCKSTEP_MIN_WALKS - 1, LOCKSTEP_MIN_WALKS, 64):
            pipeline_mod._run_chunk(g, params, np.arange(n) % g.n_nodes, SEED, 0)
        assert calls == [LOCKSTEP_MIN_WALKS, 64]

    def test_unit_weight_chunks_go_lockstep(self, monkeypatch):
        calls = self.spy(monkeypatch)
        g = ring_of_cliques(4, 8, seed=0)
        params = WalkParams(length=6)
        starts = np.arange(LOCKSTEP_MIN_WALKS)
        batch, _ = pipeline_mod._run_chunk(g, params, starts, SEED, 0)
        assert calls == [LOCKSTEP_MIN_WALKS]
        assert_same_walks(per_walk(g, params, starts, 0), batch)


class TestWalkBatch:
    def test_from_walks_roundtrip(self):
        walks = [np.array([4, 5, 6]), np.array([7]), np.array([1, 2])]
        batch = WalkBatch.from_walks(walks, 4)
        assert batch.data.shape == (3, 4)
        assert batch.lengths.tolist() == [3, 1, 2]
        assert batch.nbytes == batch.data.nbytes + batch.lengths.nbytes
        for w, b in zip(walks, batch.walks(), strict=True):
            assert np.array_equal(w, b)
