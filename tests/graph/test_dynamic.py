"""Tests for repro.graph.dynamic (edge-insertion streams)."""

import numpy as np
import pytest

from repro.graph.components import forest_split
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph, EdgeEvent, edge_stream
from repro.graph.generators import ring_of_cliques


class TestDynamicGraph:
    def test_empty_start(self):
        dg = DynamicGraph(5)
        assert dg.n_edges == 0
        assert dg.snapshot().n_nodes == 5

    def test_add_edge(self):
        dg = DynamicGraph(4)
        assert dg.add_edge(0, 1)
        assert dg.has_edge(1, 0)  # undirected
        assert dg.n_edges == 1

    def test_duplicate_edge_rejected(self):
        dg = DynamicGraph(4)
        dg.add_edge(0, 1)
        assert not dg.add_edge(1, 0)
        assert dg.n_edges == 1

    def test_out_of_range_raises(self):
        dg = DynamicGraph(3)
        with pytest.raises(ValueError):
            dg.add_edge(0, 3)

    def test_add_edges_batch(self):
        dg = DynamicGraph(5)
        added = dg.add_edges([(0, 1), (1, 2), (0, 1)])
        assert added == 2

    def test_snapshot_reflects_edges(self):
        dg = DynamicGraph(4)
        dg.add_edges([(0, 1), (2, 3)])
        snap = dg.snapshot()
        assert snap.has_edge(0, 1) and snap.has_edge(2, 3)

    def test_snapshot_cached_until_dirty(self):
        dg = DynamicGraph(4)
        dg.add_edge(0, 1)
        s1 = dg.snapshot()
        s2 = dg.snapshot()
        assert s1 is s2
        dg.add_edge(1, 2)
        assert dg.snapshot() is not s1

    def test_snapshot_immutable_from_later_adds(self):
        dg = DynamicGraph(4)
        dg.add_edge(0, 1)
        snap = dg.snapshot()
        dg.add_edge(2, 3)
        assert not snap.has_edge(2, 3)

    def test_initial_graph(self):
        init = CSRGraph.from_edges(4, [(0, 1), (1, 2)])
        dg = DynamicGraph(4, initial=init)
        assert dg.n_edges == 2
        assert dg.has_edge(0, 1)

    def test_initial_node_count_mismatch(self):
        init = CSRGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError):
            DynamicGraph(4, initial=init)

    def test_labels_carried_to_snapshots(self):
        labels = np.array([0, 1, 0, 1])
        init = CSRGraph.from_edges(4, [(0, 1)], node_labels=labels)
        dg = DynamicGraph(4, initial=init)
        dg.add_edge(2, 3)
        assert np.array_equal(dg.snapshot().node_labels, labels)

    def test_full_replay_reconstructs_graph(self):
        g = ring_of_cliques(4, 5, seed=0)
        fs = forest_split(g, seed=0)
        dg = DynamicGraph(g.n_nodes, initial=fs.initial)
        for u, v in fs.removed_edges:
            dg.add_edge(int(u), int(v))
        assert dg.snapshot() == g


class TestIncrementalState:
    """The post-PR-10 engine: CSR state maintained incrementally, vectorized
    batch insertion, one applied snapshot per event."""

    def test_vectorized_add_edges_dedups_and_canonicalizes(self):
        dg = DynamicGraph(6)
        arr = np.array([[1, 0], [0, 1], [2, 3], [3, 2], [4, 5]])
        assert dg.add_edges(arr) == 3  # both orientations collapse
        assert dg.add_edges(arr) == 0  # second pass: all known
        assert dg.has_edge(5, 4)

    def test_add_edges_checks_range_vectorized(self):
        dg = DynamicGraph(3)
        with pytest.raises(ValueError, match="out of range"):
            dg.add_edges(np.array([[0, 1], [1, 7]]))
        assert dg.n_edges == 0  # batch rejected atomically

    def test_pending_edges_visible_before_snapshot(self):
        dg = DynamicGraph(4)
        dg.add_edge(0, 1)
        assert dg.has_edge(0, 1)  # no snapshot() call in between
        assert not dg.has_edge(1, 2)
        assert dg.n_edges == 1

    def test_snapshot_is_incremental_merge(self):
        """Each snapshot must equal a from-scratch rebuild, bit for bit."""
        g = ring_of_cliques(3, 5, seed=1)
        fs = forest_split(g, seed=1)
        dg = DynamicGraph(g.n_nodes, initial=fs.initial)
        edges_so_far = [tuple(e) for e in fs.initial.edge_array()]
        for u, v in fs.removed_edges[:6]:
            dg.add_edge(int(u), int(v))
            edges_so_far.append((int(u), int(v)))
            want = CSRGraph.from_edges(g.n_nodes, edges_so_far)
            snap = dg.snapshot()
            assert np.array_equal(snap.indptr, want.indptr)
            assert np.array_equal(snap.indices, want.indices)
            assert np.array_equal(snap.weights, want.weights)

    def test_apply_equals_insert_edges_on_previous(self):
        """Each applied snapshot is the previous one with the event's edges
        inserted, bitwise — the incremental merge the replay relies on."""
        g = ring_of_cliques(3, 5, seed=0)
        fs = forest_split(g, seed=0)
        dg = DynamicGraph(g.n_nodes, initial=fs.initial)
        prev = dg.snapshot()
        for k, edge in enumerate(fs.removed_edges[:5]):
            snap = dg.apply(EdgeEvent(k, edge.reshape(1, 2)))
            patched = prev.insert_edges(edge.reshape(1, 2))
            assert np.array_equal(patched.indptr, snap.indptr)
            assert np.array_equal(patched.indices, snap.indices)
            assert np.array_equal(patched.weights, snap.weights)
            prev = snap

    def test_apply_matches_add_edges_then_snapshot(self):
        g = ring_of_cliques(3, 4, seed=2)
        fs = forest_split(g, seed=2)
        dg = DynamicGraph(g.n_nodes, initial=fs.initial)
        twin = DynamicGraph(g.n_nodes, initial=fs.initial)
        for event in edge_stream(fs.removed_edges, edges_per_event=3, max_events=3):
            snap = dg.apply(event)
            twin.add_edges(event.edges)
            assert snap == twin.snapshot()
            assert snap is dg.snapshot()  # apply leaves nothing pending

    def test_apply_covers_interleaved_adds(self):
        dg = DynamicGraph(6)
        dg.add_edge(4, 5)  # out-of-band insertion between events
        snap = dg.apply(EdgeEvent(0, np.array([[0, 1]])))
        assert snap == CSRGraph.from_edges(6, [(0, 1), (4, 5)])

    def test_apply_no_new_edges(self):
        dg = DynamicGraph(4)
        dg.add_edge(0, 1)
        snap = dg.snapshot()
        # duplicate event: same cached snapshot object
        assert dg.apply(EdgeEvent(0, np.array([[1, 0]]))) is snap

    def test_walk_tasks_carry_applied_snapshots(self):
        g = ring_of_cliques(3, 4, seed=0)
        fs = forest_split(g, seed=0)
        dg = DynamicGraph(g.n_nodes, initial=fs.initial)
        twin = DynamicGraph(g.n_nodes, initial=fs.initial)
        events = list(edge_stream(fs.removed_edges, edges_per_event=2, max_events=3))
        for task, event in zip(dg.walk_tasks(events), events, strict=True):
            assert task.epoch == event.step
            assert task.graph == twin.apply(event)

    def test_directed_initial_symmetrized_once(self):
        init = CSRGraph.from_edges(3, [(0, 1)], directed=True)
        dg = DynamicGraph(3, initial=init)
        assert dg.has_edge(1, 0)
        assert not dg.snapshot().directed


class TestEdgeEvent:
    def test_touched_nodes(self):
        ev = EdgeEvent(0, np.array([[0, 1], [1, 2]]))
        assert np.array_equal(ev.touched_nodes, [0, 1, 2])

    def test_repr(self):
        ev = EdgeEvent(3, np.array([[0, 1]]))
        assert "step=3" in repr(ev)


class TestEdgeStream:
    def test_one_edge_per_event(self):
        edges = np.array([[0, 1], [1, 2], [2, 3]])
        events = list(edge_stream(edges))
        assert len(events) == 3
        assert all(ev.edges.shape[0] == 1 for ev in events)

    def test_batched(self):
        edges = np.arange(10).reshape(5, 2)
        events = list(edge_stream(edges, edges_per_event=2))
        assert len(events) == 3
        assert events[-1].edges.shape[0] == 1

    def test_max_events(self):
        edges = np.arange(10).reshape(5, 2)
        events = list(edge_stream(edges, max_events=2))
        assert len(events) == 2

    def test_steps_sequential(self):
        edges = np.arange(8).reshape(4, 2)
        steps = [ev.step for ev in edge_stream(edges)]
        assert steps == [0, 1, 2, 3]

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            list(edge_stream(np.array([[0, 1]]), edges_per_event=0))

    def test_empty_stream(self):
        assert list(edge_stream(np.empty((0, 2)))) == []
