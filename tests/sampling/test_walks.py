"""Tests for repro.sampling.walks (node2vec second-order walks, Eq. (1))."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph
from repro.graph.generators import erdos_renyi, ring_of_cliques, random_tree
from repro.sampling import walks as walks_mod
from repro.sampling.walks import Node2VecWalker, WalkParams


def path_graph(n):
    return CSRGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


class TestWalkParams:
    def test_paper_defaults(self):
        p = WalkParams()
        assert (p.p, p.q, p.length, p.walks_per_node) == (0.5, 1.0, 80, 10)

    @pytest.mark.parametrize("kw", [{"p": 0}, {"q": -1}, {"length": 0}, {"walks_per_node": 0}])
    def test_invalid(self, kw):
        with pytest.raises((ValueError, TypeError)):
            WalkParams(**kw)


class TestWalkBasics:
    def test_walk_starts_at_start(self):
        g = ring_of_cliques(3, 4, seed=0)
        w = Node2VecWalker(g, WalkParams(length=10), seed=0).walk(5)
        assert w[0] == 5

    def test_walk_length(self):
        g = ring_of_cliques(3, 4, seed=0)
        w = Node2VecWalker(g, WalkParams(length=20), seed=0).walk(0)
        assert w.shape == (20,)

    def test_walk_respects_edges(self):
        g = erdos_renyi(60, 0.1, seed=1)
        walker = Node2VecWalker(g, WalkParams(length=30), seed=0)
        w = walker.walk(0)
        for a, b in zip(w[:-1], w[1:], strict=True):
            assert g.has_edge(int(a), int(b))

    def test_isolated_node_truncates(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        w = Node2VecWalker(g, WalkParams(length=10), seed=0).walk(2)
        assert np.array_equal(w, [2])

    def test_length_one(self):
        g = path_graph(4)
        w = Node2VecWalker(g, WalkParams(length=1), seed=0).walk(2)
        assert np.array_equal(w, [2])

    def test_pendant_pair_bounces(self):
        g = CSRGraph.from_edges(2, [(0, 1)])
        w = Node2VecWalker(g, WalkParams(length=6), seed=0).walk(0)
        assert np.array_equal(w, [0, 1, 0, 1, 0, 1])

    def test_deterministic_with_seed(self):
        g = erdos_renyi(50, 0.1, seed=0)
        a = Node2VecWalker(g, WalkParams(length=40), seed=9).walk(0)
        b = Node2VecWalker(g, WalkParams(length=40), seed=9).walk(0)
        assert np.array_equal(a, b)

    def test_walks_from_list(self):
        g = ring_of_cliques(3, 4, seed=0)
        walker = Node2VecWalker(g, WalkParams(length=5), seed=0)
        ws = walker.walks_from([0, 3, 7])
        assert [w[0] for w in ws] == [0, 3, 7]

    def test_invalid_strategy(self):
        g = path_graph(3)
        with pytest.raises(ValueError):
            Node2VecWalker(g, strategy="magic")


class TestSimulate:
    def test_corpus_size(self):
        g = ring_of_cliques(3, 4, seed=0)
        walker = Node2VecWalker(g, WalkParams(length=5, walks_per_node=3), seed=0)
        walks = walker.simulate()
        assert len(walks) == 3 * g.n_nodes

    def test_every_node_is_a_start(self):
        g = ring_of_cliques(2, 5, seed=0)
        walker = Node2VecWalker(g, WalkParams(length=4, walks_per_node=1), seed=0)
        starts = sorted(int(w[0]) for w in walker.simulate())
        assert starts == list(range(g.n_nodes))

    def test_shuffle_changes_order(self):
        g = ring_of_cliques(2, 5, seed=0)
        walker = Node2VecWalker(g, WalkParams(length=4, walks_per_node=1), seed=0)
        ordered = [int(w[0]) for w in walker.simulate(shuffle=False)]
        assert ordered == list(range(g.n_nodes))


class TestBiasSemantics:
    """Verify Eq. (1): p controls backtracking, q controls exploration."""

    def test_small_p_increases_backtracking(self):
        g = erdos_renyi(60, 0.15, seed=2)

        def backtrack_rate(p):
            walker = Node2VecWalker(g, WalkParams(p=p, q=1.0, length=50), seed=3)
            back = total = 0
            for s in range(30):
                w = walker.walk(s)
                for i in range(2, len(w)):
                    total += 1
                    back += w[i] == w[i - 2]
            return back / max(total, 1)

        assert backtrack_rate(0.05) > backtrack_rate(20.0) + 0.1

    def test_large_q_keeps_walk_local(self):
        # On a path graph with q >> 1 the walk oscillates near the start,
        # with q << 1 it drifts outward: compare end-point displacement.
        g = path_graph(200)

        def displacement(q):
            walker = Node2VecWalker(g, WalkParams(p=1.0, q=q, length=60), seed=4)
            return np.mean([abs(int(walker.walk(100)[-1]) - 100) for _ in range(40)])

        assert displacement(0.1) > displacement(10.0)

    def test_transition_weights_alpha(self):
        # hand-checkable: star t--u, u--{t, a, b}, a adjacent to t, b not
        #    t -- u, t -- a, u -- a, u -- b
        g = CSRGraph.from_edges(4, [(0, 1), (0, 2), (1, 2), (1, 3)])
        walker = Node2VecWalker(g, WalkParams(p=0.5, q=4.0), seed=0)
        w = walker._transition_weights(t=0, u=1)
        nbrs = g.neighbors(1)  # [0, 2, 3]
        assert np.array_equal(nbrs, [0, 2, 3])
        assert np.allclose(w, [1 / 0.5, 1.0, 1 / 4.0])

    def test_weighted_graph_biases_first_step(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 2)], weights=[100.0, 1.0])
        walker = Node2VecWalker(g, WalkParams(length=2), seed=0)
        firsts = [int(walker.walk(0)[1]) for _ in range(300)]
        assert np.mean(np.asarray(firsts) == 1) > 0.95


class TestWideRows:
    """Rows of at least ``WIDE_ROW`` cells step on numpy arrays, narrower
    ones on Python floats: the same products and left fold, so the same
    bits."""

    @pytest.fixture()
    def graph(self):
        # two hubs (degrees ~300 and ~150) over a sparse weighted rim
        rng = np.random.default_rng(6)
        n = 400
        hubs = [np.stack([np.full(k, h), rng.choice(np.arange(2, n), k, replace=False)], 1)
                for h, k in ((0, 300), (1, 150))]
        edges = np.concatenate(hubs + [rng.integers(2, n, size=(3 * n, 2)), [[0, 1]]])
        return CSRGraph.from_edges(n, edges, rng.uniform(0.05, 5.0, size=edges.shape[0]))

    @pytest.mark.parametrize("q", [0.5, 1.0, 2.0])
    def test_split_does_not_change_walks(self, graph, q, monkeypatch):
        params = WalkParams(p=0.5, q=q, length=30, walks_per_node=1)
        runs = []
        for wide_row in (1, walks_mod.WIDE_ROW, graph.n_nodes):
            monkeypatch.setattr(walks_mod, "WIDE_ROW", wide_row)
            runs.append(Node2VecWalker(graph, params, seed=3).simulate())
        assert sum(int(np.isin(w, [0, 1]).sum()) for w in runs[0]) > 100  # hubs visited
        for walks in runs[1:]:
            assert all(np.array_equal(a, b) for a, b in zip(runs[0], walks, strict=True))

    def test_zero_total_wide_row_raises(self):
        edges = [(0, v) for v in range(1, 2 * walks_mod.WIDE_ROW)]
        g = CSRGraph.from_edges(2 * walks_mod.WIDE_ROW, edges, [0.0] * len(edges),
                                directed=True)
        with pytest.raises(IndexError, match=walks_mod.ZERO_TOTAL_ERROR):
            Node2VecWalker(g, WalkParams(length=3), seed=0).walk(0)


class TestStrategyEquivalence:
    """All three strategies must realize the same transition distribution."""

    @pytest.fixture()
    def graph(self):
        return erdos_renyi(30, 0.25, seed=5)

    def empirical(self, graph, strategy, t, u, n=20_000):
        walker = Node2VecWalker(
            graph, WalkParams(p=0.3, q=2.5), strategy=strategy, seed=11
        )
        draws = np.array([walker.step(t, u) for _ in range(n)])
        return np.bincount(draws, minlength=graph.n_nodes) / n

    def test_alias_matches_exact(self, graph):
        t = int(graph.neighbors(0)[0])
        a = self.empirical(graph, "exact", t, 0)
        b = self.empirical(graph, "alias", t, 0)
        assert np.allclose(a, b, atol=0.02)

    def test_rejection_matches_exact(self, graph):
        t = int(graph.neighbors(0)[0])
        a = self.empirical(graph, "exact", t, 0)
        b = self.empirical(graph, "rejection", t, 0)
        assert np.allclose(a, b, atol=0.02)


class TestPropertyBased:
    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=25, deadline=None)
    def test_walks_stay_on_edges(self, seed):
        g = erdos_renyi(25, 0.2, seed=seed % 7)
        walker = Node2VecWalker(g, WalkParams(p=0.5, q=2.0, length=15), seed=seed)
        w = walker.walk(seed % 25)
        for a, b in zip(w[:-1], w[1:], strict=True):
            assert g.has_edge(int(a), int(b))

    @given(st.integers(min_value=0, max_value=200))
    @settings(max_examples=25, deadline=None)
    def test_tree_walks_never_exceed_length(self, seed):
        g = random_tree(20, seed=seed % 5)
        walker = Node2VecWalker(g, WalkParams(length=12), seed=seed)
        w = walker.walk(seed % 20)
        assert 1 <= len(w) <= 12
