"""Tests for repro.sampling.batched (lockstep vectorized walker)."""

import numpy as np
import pytest

from repro.embedding import compiled as compiled_mod
from repro.graph import CSRGraph, erdos_renyi, ring_of_cliques
from repro.sampling.batched import BatchedWalker
from repro.sampling.walks import Node2VecWalker, WalkParams


def weighted_graph(seed=7):
    """An erdos_renyi topology with random positive edge weights."""
    g = erdos_renyi(40, 0.15, seed=3)
    rng = np.random.default_rng(seed)
    return CSRGraph(
        g.indptr,
        g.indices,
        rng.uniform(0.2, 3.0, size=g.indices.shape[0]),
        validate=False,
    )


class TestGuards:
    def test_rejects_q_not_one(self):
        g = ring_of_cliques(3, 4, seed=0)
        with pytest.raises(ValueError, match="q == 1"):
            BatchedWalker(g, WalkParams(q=2.0))

    def test_rejects_invalid_mode(self):
        g = ring_of_cliques(3, 4, seed=0)
        with pytest.raises(ValueError, match="mode"):
            BatchedWalker(g, WalkParams(), mode="turbo")

    @pytest.mark.skipif(
        compiled_mod.NUMBA_AVAILABLE, reason="only raises without numba"
    )
    def test_compiled_mode_requires_numba(self):
        g = ring_of_cliques(3, 4, seed=0)
        with pytest.raises(RuntimeError, match="numba"):
            BatchedWalker(g, WalkParams(), mode="compiled")

    def test_auto_resolves_by_numba_availability(self):
        g = ring_of_cliques(3, 4, seed=0)
        w = BatchedWalker(g, WalkParams())
        expect = "compiled" if compiled_mod.NUMBA_AVAILABLE else "numpy"
        assert w._impl == expect


class TestCallerProvidedBuffer:
    """walk_batch(out=...) writes into a caller-owned array — allocation-free
    batch production for preallocated/shared destination buffers."""

    @pytest.fixture()
    def graph(self):
        return erdos_renyi(40, 0.15, seed=3)

    def test_out_matches_fresh_allocation(self, graph):
        starts = np.arange(10)
        a = BatchedWalker(graph, WalkParams(length=12), seed=9).walk_batch(starts)
        buf = np.empty((10, 12), dtype=np.int64)
        b = BatchedWalker(graph, WalkParams(length=12), seed=9).walk_batch(
            starts, out=buf
        )
        assert b is buf
        assert np.array_equal(a, b)

    def test_out_overwrites_stale_contents(self, graph):
        starts = np.array([1, 2])
        buf = np.full((2, 8), 777, dtype=np.int64)
        batch = BatchedWalker(graph, WalkParams(length=8), seed=0).walk_batch(
            starts, out=buf
        )
        assert not np.any(batch == 777)

    def test_out_shape_and_dtype_validated(self, graph):
        w = BatchedWalker(graph, WalkParams(length=8), seed=0)
        with pytest.raises(ValueError, match="shape"):
            w.walk_batch(np.array([0, 1]), out=np.empty((3, 8), dtype=np.int64))
        with pytest.raises(ValueError, match="int64"):
            w.walk_batch(np.array([0, 1]), out=np.empty((2, 8), dtype=np.int32))


class TestWalkBatch:
    @pytest.fixture()
    def graph(self):
        return erdos_renyi(50, 0.12, seed=1)

    def test_shape_and_starts(self, graph):
        w = BatchedWalker(graph, WalkParams(length=15), seed=0)
        starts = np.array([0, 3, 7, 7])
        batch = w.walk_batch(starts)
        assert batch.shape == (4, 15)
        assert np.array_equal(batch[:, 0], starts)

    def test_walks_respect_edges(self, graph):
        w = BatchedWalker(graph, WalkParams(length=20), seed=0)
        batch = w.walk_batch(np.arange(20))
        for row in batch:
            for a, b in zip(row[:-1], row[1:], strict=True):
                if a < 0 or b < 0:
                    break
                assert graph.has_edge(int(a), int(b))

    def test_isolated_node_truncates_with_padding(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        w = BatchedWalker(g, WalkParams(length=5), seed=0)
        batch = w.walk_batch(np.array([2]))
        assert batch[0, 0] == 2
        assert np.all(batch[0, 1:] == -1)

    def test_as_walk_list_strips_padding(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        w = BatchedWalker(g, WalkParams(length=5), seed=0)
        walks = w.as_walk_list(w.walk_batch(np.array([2, 0])))
        assert np.array_equal(walks[0], [2])
        assert len(walks[1]) == 5  # 0-1-0-1-0 bouncing

    def test_length_one(self):
        g = ring_of_cliques(3, 4, seed=0)
        w = BatchedWalker(g, WalkParams(length=1), seed=0)
        batch = w.walk_batch(np.array([3]))
        assert np.array_equal(batch, [[3]])

    def test_simulate_corpus_size(self):
        g = ring_of_cliques(3, 4, seed=0)
        w = BatchedWalker(g, WalkParams(length=6, walks_per_node=2), seed=0)
        walks = w.simulate()
        assert len(walks) == 2 * g.n_nodes


class TestDistributionalEquivalence:
    """Batched and reference walkers must realize the same step law."""

    def test_step_distribution_matches_reference(self):
        g = erdos_renyi(30, 0.25, seed=5)
        t = int(g.neighbors(0)[0])
        n = 20_000
        ref = Node2VecWalker(g, WalkParams(p=0.3, q=1.0), seed=11)
        ref_draws = np.bincount(
            [ref.step(t, 0) for _ in range(n)], minlength=g.n_nodes
        ) / n
        bat = BatchedWalker(g, WalkParams(p=0.3, q=1.0), seed=12)
        prev = np.full(n, t)
        cur = np.zeros(n, dtype=np.int64)
        bat_draws = np.bincount(bat.step_batch(prev, cur), minlength=g.n_nodes) / n
        assert np.allclose(ref_draws, bat_draws, atol=0.02)

    def test_return_bias_realized(self):
        # p << 1 → strong backtracking, measurable in the batch
        g = erdos_renyi(30, 0.25, seed=5)
        t = int(g.neighbors(0)[0])
        bat = BatchedWalker(g, WalkParams(p=0.05, q=1.0), seed=0)
        n = 10_000
        draws = bat.step_batch(np.full(n, t), np.zeros(n, dtype=np.int64))
        assert np.mean(draws == t) > 0.5

    def test_first_step_uniform(self):
        g = ring_of_cliques(1, 5, seed=0)  # K5: node 0 has 4 neighbors
        bat = BatchedWalker(g, WalkParams(length=2), seed=0)
        batch = bat.walk_batch(np.zeros(20_000, dtype=np.int64))
        freqs = np.bincount(batch[:, 1], minlength=5)[1:] / 20_000
        assert np.allclose(freqs, 0.25, atol=0.02)


class TestWeightedGraphs:
    """Weighted graphs walk through the cumulative-weight binary search:
    neighbor choice ∝ edge weight, same rejection bias on top."""

    def test_weighted_walks_respect_edges(self):
        g = weighted_graph()
        batch = BatchedWalker(g, WalkParams(length=20), seed=0).walk_batch(
            np.arange(20)
        )
        for row in batch:
            for a, b in zip(row[:-1], row[1:], strict=True):
                if a < 0 or b < 0:
                    break
                assert g.has_edge(int(a), int(b))

    def test_first_step_proportional_to_weights(self):
        # a 4-star with heavily skewed weights from the hub
        g = CSRGraph.from_edges(
            5, [(0, 1), (0, 2), (0, 3), (0, 4)], weights=[1.0, 1.0, 2.0, 4.0]
        )
        w = BatchedWalker(g, WalkParams(length=2), seed=0)
        batch = w.walk_batch(np.zeros(40_000, dtype=np.int64))
        freqs = np.bincount(batch[:, 1], minlength=5)[1:] / 40_000
        assert np.allclose(freqs, np.array([1, 1, 2, 4]) / 8.0, atol=0.02)

    def test_step_distribution_matches_reference_walker(self):
        g = weighted_graph()
        t = int(g.neighbors(0)[0])
        n = 20_000
        ref = Node2VecWalker(g, WalkParams(p=0.3, q=1.0), seed=11)
        ref_draws = np.bincount(
            [ref.step(t, 0) for _ in range(n)], minlength=g.n_nodes
        ) / n
        bat = BatchedWalker(g, WalkParams(p=0.3, q=1.0), seed=12, mode="numpy")
        prev = np.full(n, t)
        cur = np.zeros(n, dtype=np.int64)
        bat_draws = np.bincount(bat.step_batch(prev, cur), minlength=g.n_nodes) / n
        assert np.allclose(ref_draws, bat_draws, atol=0.02)


def kernel_mode():
    """The mode that genuinely exercises the compiled transition kernel on
    this host: the JIT when numba is importable, its pure-Python form (same
    source, same bits) otherwise."""
    return "compiled" if compiled_mod.NUMBA_AVAILABLE else "python"


class TestCompiledKernelBitEquality:
    """The compiled transition kernel consumes the walker's uniform stream
    in the NumPy path's exact per-lane order: batches are **bitwise
    identical** across modes, on weighted and unweighted graphs, ``out=``
    reuse included.  (Only the RNG's final position may differ — the
    compiled path pre-draws in blocks and discards the unused tail — so
    comparisons always start from fresh walkers.)"""

    @pytest.mark.parametrize("weighted", (False, True), ids=("unweighted", "weighted"))
    @pytest.mark.parametrize("p", (1.0, 0.25, 4.0))
    def test_walk_batch_bitwise_equal(self, weighted, p):
        g = weighted_graph() if weighted else erdos_renyi(40, 0.15, seed=3)
        params = WalkParams(length=15, p=p)
        starts = np.arange(g.n_nodes, dtype=np.int64)
        a = BatchedWalker(g, params, seed=9, mode="numpy").walk_batch(starts)
        b = BatchedWalker(g, params, seed=9, mode=kernel_mode()).walk_batch(starts)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("weighted", (False, True), ids=("unweighted", "weighted"))
    def test_out_buffer_bitwise_equal(self, weighted):
        g = weighted_graph() if weighted else erdos_renyi(40, 0.15, seed=3)
        params = WalkParams(length=12)
        starts = np.arange(10, dtype=np.int64)
        a = BatchedWalker(g, params, seed=4, mode="numpy").walk_batch(starts)
        buf = np.full((10, 12), 777, dtype=np.int64)
        b = BatchedWalker(g, params, seed=4, mode=kernel_mode()).walk_batch(
            starts, out=buf
        )
        assert b is buf
        assert np.array_equal(a, b)
        # reuse the same buffer again (stale contents must be overwritten)
        c = BatchedWalker(g, params, seed=4, mode=kernel_mode()).walk_batch(
            starts, out=buf
        )
        assert np.array_equal(a, c)

    def test_truncation_and_padding_match(self):
        # isolated node + a dangling chain: pending-lane bookkeeping must
        # reproduce the NumPy path's -1 padding exactly
        g = CSRGraph.from_edges(5, [(0, 1), (1, 2)], directed=True)
        params = WalkParams(length=6)
        starts = np.array([0, 2, 4], dtype=np.int64)
        a = BatchedWalker(g, params, seed=1, mode="numpy").walk_batch(starts)
        b = BatchedWalker(g, params, seed=1, mode=kernel_mode()).walk_batch(starts)
        assert np.array_equal(a, b)
        assert (a[1, 1:] == -1).all()  # node 2 has no out-edge
        assert (a[2, 1:] == -1).all()  # node 4 is isolated

    def test_same_mode_walkers_deterministic(self):
        g = erdos_renyi(30, 0.2, seed=0)
        params = WalkParams(length=10)
        s = np.arange(g.n_nodes, dtype=np.int64)
        w1 = BatchedWalker(g, params, seed=5, mode=kernel_mode())
        w2 = BatchedWalker(g, params, seed=5, mode=kernel_mode())
        assert np.array_equal(w1.walk_batch(s), w2.walk_batch(s))
        assert np.array_equal(w1.walk_batch(s), w2.walk_batch(s))

    def test_simulate_equivalent_across_modes(self):
        g = weighted_graph()
        params = WalkParams(length=8, walks_per_node=2)
        wa = BatchedWalker(g, params, seed=6, mode="numpy").simulate()
        wb = BatchedWalker(g, params, seed=6, mode=kernel_mode()).simulate()
        assert len(wa) == len(wb)
        for x, y in zip(wa, wb, strict=True):
            assert np.array_equal(x, y)


class TestPerformance:
    def test_faster_than_reference_walker(self):
        """The point of the batch: a real speedup on corpus generation."""
        import time

        g = erdos_renyi(400, 0.05, seed=0)
        params = WalkParams(length=40, walks_per_node=2)
        t0 = time.perf_counter()
        Node2VecWalker(g, params, seed=0).simulate()
        t_ref = time.perf_counter() - t0
        t0 = time.perf_counter()
        BatchedWalker(g, params, seed=0).simulate()
        t_bat = time.perf_counter() - t0
        assert t_bat < t_ref  # typically 5-15x; assert direction only
