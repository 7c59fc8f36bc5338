"""Tests for repro.graph.csr (CSRGraph core)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.csr import CSRGraph


def triangle() -> CSRGraph:
    return CSRGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])


class TestConstruction:
    def test_from_edges_basic(self):
        g = triangle()
        assert g.n_nodes == 3
        assert g.n_edges == 3
        assert g.n_arcs == 6

    def test_empty_graph(self):
        g = CSRGraph.from_edges(4, [])
        assert g.n_nodes == 4
        assert g.n_edges == 0
        assert g.degree(2) == 0

    def test_single_node(self):
        g = CSRGraph.from_edges(1, [])
        assert g.n_nodes == 1

    def test_duplicate_edges_merged(self):
        g = CSRGraph.from_edges(2, [(0, 1), (0, 1), (1, 0)])
        assert g.n_edges == 1
        # merged duplicates sum weights
        assert g.neighbor_weights(0)[0] == 3.0

    def test_self_loop_kept_once(self):
        g = CSRGraph.from_edges(2, [(0, 0), (0, 1)])
        assert g.has_edge(0, 0)
        assert g.n_edges == 2

    def test_weights_preserved(self):
        g = CSRGraph.from_edges(2, [(0, 1)], weights=[2.5])
        assert g.neighbor_weights(0)[0] == 2.5
        assert g.neighbor_weights(1)[0] == 2.5

    def test_out_of_range_edge_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(0, 2)])

    def test_negative_node_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(-1, 0)])

    def test_bad_edge_shape_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(3, np.zeros((2, 3), dtype=np.int64))

    def test_weight_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(0, 1)], weights=[1.0, 2.0])

    def test_zero_nodes_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(0, [])

    def test_node_labels_attached(self):
        g = CSRGraph.from_edges(3, [(0, 1)], node_labels=np.array([0, 1, 1]))
        assert np.array_equal(g.node_labels, [0, 1, 1])

    def test_node_labels_wrong_length(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(3, [(0, 1)], node_labels=np.array([0, 1]))

    def test_directed_graph_asymmetric(self):
        g = CSRGraph.from_edges(2, [(0, 1)], directed=True)
        assert g.has_edge(0, 1)
        assert not g.has_edge(1, 0)
        assert g.n_edges == 1


class TestRawValidation:
    def test_unsorted_row_rejected(self):
        indptr = np.array([0, 2, 3, 3])
        indices = np.array([2, 1, 0])
        with pytest.raises(ValueError, match="sorted"):
            CSRGraph(indptr, indices, directed=True)

    def test_duplicate_in_row_rejected(self):
        indptr = np.array([0, 2, 2])
        indices = np.array([1, 1])
        with pytest.raises(ValueError, match="duplicates"):
            CSRGraph(indptr, indices, directed=True)

    def test_asymmetric_undirected_rejected(self):
        indptr = np.array([0, 1, 1])
        indices = np.array([1])
        with pytest.raises(ValueError, match="symmetric"):
            CSRGraph(indptr, indices, directed=False)

    def test_indptr_not_starting_at_zero(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([1, 2]), np.array([0, 0]))

    def test_indices_length_mismatch(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2]), np.array([0]))

    def test_decreasing_indptr(self):
        with pytest.raises(ValueError):
            CSRGraph(np.array([0, 2, 1]), np.array([1, 0]), directed=True)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            CSRGraph.from_edges(2, [(0, 1)], weights=[-1.0])

    def test_row_boundary_not_flagged_as_unsorted(self):
        # descending across a row boundary is legal: row0=[2], row1=[0]
        indptr = np.array([0, 1, 2, 2])
        indices = np.array([2, 0])
        g = CSRGraph(indptr, indices, directed=True)
        assert g.n_arcs == 2


class TestQueries:
    def test_neighbors_sorted_view(self):
        g = triangle()
        assert np.array_equal(g.neighbors(0), [1, 2])
        assert g.neighbors(0).base is not None  # zero-copy view

    def test_degree_vector(self):
        g = triangle()
        assert np.array_equal(g.degree(), [2, 2, 2])

    def test_degree_scalar(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        assert g.degree(0) == 1
        assert g.degree(2) == 0

    def test_has_edge(self):
        g = triangle()
        assert g.has_edge(0, 1) and g.has_edge(1, 0)
        assert not g.has_edge(0, 0)

    def test_has_edges_vectorized(self):
        g = triangle()
        out = g.has_edges(0, np.array([0, 1, 2]))
        assert np.array_equal(out, [False, True, True])

    def test_has_edges_empty_targets(self):
        g = triangle()
        assert g.has_edges(0, np.array([], dtype=np.int64)).shape == (0,)

    def test_edge_array_undirected_once(self):
        g = triangle()
        ea = g.edge_array()
        assert ea.shape == (3, 2)
        assert np.all(ea[:, 0] <= ea[:, 1])

    def test_edge_array_roundtrip(self):
        g = triangle()
        g2 = CSRGraph.from_edges(3, g.edge_array())
        assert g == g2

    def test_edge_array_with_weights(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)], weights=[2.0, 3.0])
        edges, w = g.edge_array(return_weights=True)
        lookup = {tuple(e): wt for e, wt in zip(edges, w, strict=True)}
        assert lookup[(0, 1)] == 2.0 and lookup[(1, 2)] == 3.0

    def test_iter_edges(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        assert list(g.iter_edges()) == [(0, 1)]

    def test_n_edges_with_self_loop(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1), (1, 2)])
        assert g.n_edges == 3

    def test_subgraph_edges(self):
        g = triangle()
        keep = np.array([True, False, True])
        sub = g.subgraph_edges(keep)
        assert sub.n_edges == 2
        assert sub.n_nodes == 3

    def test_subgraph_edges_bad_mask(self):
        with pytest.raises(ValueError):
            triangle().subgraph_edges(np.array([True]))

    def test_repr(self):
        assert "n_nodes=3" in repr(triangle())

    def test_not_hashable(self):
        with pytest.raises(TypeError):
            hash(triangle())

    def test_eq_other_type(self):
        assert triangle() != 42


class TestImmutability:
    def test_indices_frozen(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.indices[0] = 5

    def test_weights_frozen(self):
        g = triangle()
        with pytest.raises(ValueError):
            g.weights[0] = 2.0

    def test_labels_frozen(self):
        g = CSRGraph.from_edges(2, [(0, 1)], node_labels=np.array([0, 1]))
        with pytest.raises(ValueError):
            g.node_labels[0] = 9


@st.composite
def edge_lists(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    m = draw(st.integers(min_value=0, max_value=30))
    edges = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n - 1),
                st.integers(min_value=0, max_value=n - 1),
            ),
            min_size=m,
            max_size=m,
        )
    )
    return n, edges


class TestPropertyBased:
    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_symmetry_invariant(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(n, np.asarray(edges).reshape(-1, 2))
        for u, v in edges:
            assert g.has_edge(u, v)
            assert g.has_edge(v, u)

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_handshake_lemma(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(n, np.asarray(edges).reshape(-1, 2))
        loops = sum(1 for u, v in set((min(a, b), max(a, b)) for a, b in edges) if u == v)
        assert g.degree().sum() == g.n_arcs
        assert g.n_arcs == 2 * g.n_edges - loops

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_edge_array_roundtrip_property(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(n, np.asarray(edges).reshape(-1, 2))
        pairs, w = g.edge_array(return_weights=True)
        g2 = CSRGraph.from_edges(n, pairs, weights=w)
        assert g == g2

    @given(edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_rows_sorted_unique(self, ne):
        n, edges = ne
        g = CSRGraph.from_edges(n, np.asarray(edges).reshape(-1, 2))
        for v in range(n):
            row = g.neighbors(v)
            assert np.all(np.diff(row) > 0) or row.size <= 1


class TestInsertEdges:
    def test_insert_matches_from_edges(self):
        g = CSRGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
        merged = g.insert_edges(np.array([[0, 2], [2, 3]]))
        want = CSRGraph.from_edges(5, [(0, 1), (1, 2), (3, 4), (0, 2), (2, 3)])
        assert merged == want
        assert np.array_equal(merged.indptr, want.indptr)
        assert np.array_equal(merged.indices, want.indices)
        assert np.array_equal(merged.weights, want.weights)

    def test_original_untouched(self):
        g = CSRGraph.from_edges(4, [(0, 1)])
        g2 = g.insert_edges(np.array([[2, 3]]))
        assert g.n_edges == 1 and not g.has_edge(2, 3)
        assert g2.has_edge(2, 3) and g2.has_edge(3, 2)

    def test_empty_batch_returns_self(self):
        g = CSRGraph.from_edges(4, [(0, 1)])
        assert g.insert_edges(np.empty((0, 2), dtype=np.int64)) is g

    def test_insert_into_empty_graph(self):
        g = CSRGraph.from_edges(4, np.empty((0, 2), dtype=np.int64))
        g2 = g.insert_edges(np.array([[1, 2], [0, 3]]))
        assert g2 == CSRGraph.from_edges(4, [(0, 3), (1, 2)])

    def test_duplicate_edge_adds_weight(self):
        g = CSRGraph.from_edges(3, [(0, 1)], weights=[2.0])
        g2 = g.insert_edges(np.array([[0, 1]]), weights=[3.0])
        assert g2.neighbor_weights(0)[0] == pytest.approx(5.0)
        assert g2.n_arcs == g.n_arcs  # no new arc, weights merged

    def test_in_batch_duplicates_merge(self):
        g = CSRGraph.from_edges(3, [(0, 2)])
        g2 = g.insert_edges(np.array([[0, 1], [1, 0], [0, 1]]))
        assert g2.n_edges == 2
        # from_edges dedup rule: duplicate weights sum (3 copies of {0,1})
        assert g2.neighbor_weights(1)[0] == pytest.approx(3.0)

    def test_self_loop_single_arc(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        g2 = g.insert_edges(np.array([[2, 2]]))
        assert g2.has_edge(2, 2)
        assert g2.degree(2) == 1  # one stored arc, like from_edges

    def test_end_of_row_not_mistaken_for_duplicate(self):
        """Insertion at the end of node u's row lands where the next row
        begins; a column match against that *next-row* arc must not be
        treated as a duplicate of u's."""
        # node 1's row ends before node 2's row, which starts with column 0
        g = CSRGraph.from_edges(4, [(0, 2), (0, 1)])
        g2 = g.insert_edges(np.array([[1, 2]]))  # insert at end of row 1
        want = CSRGraph.from_edges(4, [(0, 2), (0, 1), (1, 2)])
        assert g2 == want

    def test_out_of_range_rejected(self):
        g = CSRGraph.from_edges(3, [(0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            g.insert_edges(np.array([[0, 3]]))
        with pytest.raises(ValueError, match="out of range"):
            g.insert_edges(np.array([[-1, 1]]))

    def test_directed_insert(self):
        g = CSRGraph.from_edges(3, [(0, 1)], directed=True)
        g2 = g.insert_edges(np.array([[2, 0]]))
        assert g2.has_edge(2, 0) and not g2.has_edge(0, 2)
        assert g2 == CSRGraph.from_edges(3, [(0, 1), (2, 0)], directed=True)

    def test_labels_carried(self):
        labels = np.array([0, 1, 1])
        g = CSRGraph.from_edges(3, [(0, 1)], node_labels=labels)
        g2 = g.insert_edges(np.array([[1, 2]]))
        assert np.array_equal(g2.node_labels, labels)

    def test_result_validates_clean(self):
        g = CSRGraph.from_edges(6, [(0, 1), (2, 3), (1, 4)])
        merged = g.insert_edges(np.array([[0, 5], [3, 4], [0, 2]]), validate=True)
        assert merged.n_edges == 6

    @given(edge_lists(), edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_incremental_equals_batch_rebuild(self, ne_a, ne_b):
        """insert_edges == from_edges on the concatenated edge list, arc for
        arc — the invariant every incremental snapshot rests on."""
        n, base_edges = ne_a
        _, extra = ne_b
        extra = [(u % n, v % n) for u, v in extra]
        base = CSRGraph.from_edges(n, np.asarray(base_edges).reshape(-1, 2))
        merged = base.insert_edges(np.asarray(extra).reshape(-1, 2))
        want = CSRGraph.from_edges(
            n, np.asarray(list(base_edges) + extra).reshape(-1, 2)
        )
        # weights differ where duplicates merge (base dedup already summed),
        # so compare structure bitwise and membership semantically
        assert np.array_equal(merged.indptr, want.indptr)
        assert np.array_equal(merged.indices, want.indices)

    @given(edge_lists(), edge_lists())
    @settings(max_examples=60, deadline=None)
    def test_disjoint_incremental_is_bit_identical(self, ne_a, ne_b):
        """For *new* (disjoint) unweighted batches — the dynamic engine's
        case — the merge is bitwise identical to a full rebuild, weights
        included."""
        n, base_edges = ne_a
        _, extra = ne_b
        base = CSRGraph.from_edges(n, np.asarray(base_edges).reshape(-1, 2))
        seen = {(min(u, v), max(u, v)) for u, v in base_edges}
        fresh = sorted(
            {tuple(sorted((u % n, v % n))) for u, v in extra} - seen
        )
        merged = base.insert_edges(np.asarray(fresh).reshape(-1, 2))
        want = CSRGraph.from_edges(
            n, np.asarray(list(base_edges) + fresh).reshape(-1, 2)
        )
        assert np.array_equal(merged.indptr, want.indptr)
        assert np.array_equal(merged.indices, want.indices)
        assert np.array_equal(merged.weights, want.weights)
