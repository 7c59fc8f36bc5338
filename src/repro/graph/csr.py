"""Immutable CSR (compressed sparse row) graph — the substrate every other
package walks on.

Design notes
------------
* The paper's random-walk engine needs O(1) access to a node's neighbor
  slice; CSR gives that as a contiguous view (``indices[indptr[v]:indptr[v+1]]``),
  which also keeps the hot loop cache-friendly (guides: prefer views over
  copies, contiguous access over random access).
* Graphs are *undirected* by default (all three paper datasets are); an
  undirected edge {u, v} is stored twice, once per direction, so degree and
  neighbor queries need no branching.
* Instances are immutable: the dynamic-graph scenario (`repro.graph.dynamic`)
  produces a fresh snapshot per edge batch rather than mutating in place,
  which keeps walk samplers free of invalidation bugs.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Iterator

import numpy as np

from repro.utils.validation import check_positive

__all__ = ["CSRGraph"]


class CSRGraph:
    """An undirected (or directed) graph in CSR form.

    Parameters
    ----------
    indptr:
        ``int64`` array of length ``n_nodes + 1``; row pointer.
    indices:
        ``int64`` array of length ``indptr[-1]``; column indices (neighbor
        ids), sorted within each row.
    weights:
        optional ``float64`` array aligned with ``indices``; defaults to 1.0
        for every edge (the paper's datasets are unweighted, but Eq. (1)
        includes edge weights ``w_ux`` so the substrate carries them).
    directed:
        if ``False`` (default) the arrays are expected to contain both
        directions of every edge; validated unless ``validate=False``.
    node_labels:
        optional ``int64`` class label per node (for the downstream
        logistic-regression evaluation).
    """

    __slots__ = ("indptr", "indices", "weights", "directed", "node_labels", "_degree")

    def __init__(
        self,
        indptr: np.ndarray,
        indices: np.ndarray,
        weights: np.ndarray | None = None,
        *,
        directed: bool = False,
        node_labels: np.ndarray | None = None,
        validate: bool = True,
    ):
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        indices = np.ascontiguousarray(indices, dtype=np.int64)
        if weights is None:
            weights = np.ones(indices.shape[0], dtype=np.float64)
        else:
            weights = np.ascontiguousarray(weights, dtype=np.float64)

        if indptr.ndim != 1 or indptr.shape[0] < 1:
            raise ValueError("indptr must be a 1-D array of length n_nodes + 1")
        if indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        if indices.shape[0] != indptr[-1]:
            raise ValueError(
                f"indices length {indices.shape[0]} != indptr[-1] {indptr[-1]}"
            )
        if weights.shape[0] != indices.shape[0]:
            raise ValueError("weights must align with indices")

        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.directed = bool(directed)
        self._degree = indptr[1:] - indptr[:-1]

        if node_labels is not None:
            node_labels = np.ascontiguousarray(node_labels, dtype=np.int64)
            if node_labels.shape[0] != self.n_nodes:
                raise ValueError("node_labels must have one entry per node")
        self.node_labels = node_labels

        if validate:
            self._validate()

        # Freeze the backing arrays: CSRGraph is an immutable snapshot.
        for arr in (self.indptr, self.indices, self.weights, self._degree):
            arr.setflags(write=False)
        if self.node_labels is not None:
            self.node_labels.setflags(write=False)

    # ------------------------------------------------------------------ #
    # Construction / validation
    # ------------------------------------------------------------------ #

    def _validate(self) -> None:
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.n_nodes
        ):
            raise ValueError("indices contain out-of-range node ids")
        if np.any(self.weights < 0):
            raise ValueError("edge weights must be non-negative")
        # Rows must be sorted and duplicate-free for binary-search membership
        # queries.  Checked vectorized: a violation is a non-increasing step in
        # `indices` that does not cross a row boundary.
        if self.indices.size > 1:
            steps = np.diff(self.indices)
            boundaries = np.zeros(self.indices.size - 1, dtype=bool)
            inner = self.indptr[1:-1]
            inner = inner[(inner > 0) & (inner < self.indices.size)]
            boundaries[inner - 1] = True
            bad = ~boundaries & (steps <= 0)
            if np.any(bad):
                first = int(np.flatnonzero(bad)[0])
                v = int(np.searchsorted(self.indptr, first, side="right")) - 1
                if steps[first] == 0:
                    raise ValueError(f"neighbor list of node {v} has duplicates")
                raise ValueError(f"neighbor list of node {v} is not sorted")
        if not self.directed:
            # Symmetry: total out-degree must equal total in-degree per node.
            counts = np.bincount(self.indices, minlength=self.n_nodes)
            if not np.array_equal(counts, self._degree):
                raise ValueError("undirected graph is not symmetric")

    @classmethod
    def from_edges(
        cls,
        n_nodes: int,
        edges: Iterable[tuple[int, int]] | np.ndarray,
        weights: Iterable[float] | np.ndarray | None = None,
        *,
        directed: bool = False,
        node_labels: np.ndarray | None = None,
        dedup: bool = True,
    ) -> "CSRGraph":
        """Build a graph from an edge list.

        For undirected graphs each input edge {u, v} is symmetrized; self
        loops are kept as a single arc per direction. Duplicate edges are
        merged (weights summed) when ``dedup`` is True.
        """
        check_positive("n_nodes", n_nodes, integer=True)
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges)
        if edges.size == 0:
            edges = edges.reshape(0, 2)
        if edges.ndim != 2 or edges.shape[1] != 2:
            raise ValueError("edges must be an (m, 2) array of node pairs")
        edges = edges.astype(np.int64, copy=False)
        if edges.size and (edges.min() < 0 or edges.max() >= n_nodes):
            raise ValueError("edge endpoints out of range")

        if weights is None:
            w = np.ones(edges.shape[0], dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape[0] != edges.shape[0]:
                raise ValueError("weights must align with edges")

        if not directed:
            loops = edges[:, 0] == edges[:, 1]
            sym = edges[~loops][:, ::-1]
            edges = np.concatenate([edges, sym], axis=0)
            w = np.concatenate([w, w[~loops]], axis=0)

        order = np.lexsort((edges[:, 1], edges[:, 0]))
        edges = edges[order]
        w = w[order]

        if dedup and edges.shape[0]:
            keep = np.ones(edges.shape[0], dtype=bool)
            same = np.all(edges[1:] == edges[:-1], axis=1)
            keep[1:] = ~same
            # merge weights of collapsed duplicates
            group = np.cumsum(keep) - 1
            merged_w = np.zeros(int(group[-1]) + 1, dtype=np.float64)
            np.add.at(merged_w, group, w)
            edges = edges[keep]
            w = merged_w

        indptr = np.zeros(n_nodes + 1, dtype=np.int64)
        if edges.shape[0]:
            counts = np.bincount(edges[:, 0], minlength=n_nodes)
            indptr[1:] = np.cumsum(counts)
        return cls(
            indptr,
            edges[:, 1].copy(),
            w,
            directed=directed,
            node_labels=node_labels,
            validate=True,
        )

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    @property
    def n_nodes(self) -> int:
        return self.indptr.shape[0] - 1

    @property
    def n_arcs(self) -> int:
        """Number of stored arcs (2x the edge count for undirected graphs)."""
        return int(self.indptr[-1])

    @property
    def n_edges(self) -> int:
        """Number of logical edges (undirected edges counted once)."""
        if self.directed:
            return self.n_arcs
        loops = int(np.sum(self.indices == np.repeat(np.arange(self.n_nodes), self._degree)))
        return (self.n_arcs - loops) // 2 + loops

    def degree(self, v: int | None = None):
        """Degree of node ``v`` or the full degree vector."""
        if v is None:
            return self._degree
        return int(self._degree[v])

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbor ids of ``v`` — a zero-copy view."""
        return self.indices[self.indptr[v] : self.indptr[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        """Edge weights aligned with :meth:`neighbors` — a zero-copy view."""
        return self.weights[self.indptr[v] : self.indptr[v + 1]]

    def has_edge(self, u: int, v: int) -> bool:
        """O(log deg(u)) membership query via binary search on the row."""
        indices = self.indices
        hi = int(self.indptr[u + 1])
        k = bisect_left(indices, v, int(self.indptr[u]), hi)
        return bool(k < hi and indices[k] == v)

    def has_edges(self, u: int, targets: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`has_edge` for many targets at once."""
        row = self.neighbors(u)
        targets = np.asarray(targets, dtype=np.int64)
        pos = np.searchsorted(row, targets)
        ok = pos < row.shape[0]
        out = np.zeros(targets.shape, dtype=bool)
        out[ok] = row[pos[ok]] == targets[ok]
        return out

    def edge_array(self, *, return_weights: bool = False):
        """Return an (m, 2) array of edges (optionally with their weights).

        For undirected graphs each edge appears once with ``u <= v``.
        """
        src = np.repeat(np.arange(self.n_nodes, dtype=np.int64), self._degree)
        pairs = np.stack([src, self.indices], axis=1)
        if self.directed:
            keep = slice(None)
        else:
            keep = pairs[:, 0] <= pairs[:, 1]
        if return_weights:
            return pairs[keep], self.weights[keep]
        return pairs[keep]

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        for u, v in self.edge_array():
            yield int(u), int(v)

    # ------------------------------------------------------------------ #
    # Incremental maintenance
    # ------------------------------------------------------------------ #

    def insert_edges(
        self,
        edges: np.ndarray,
        weights: Iterable[float] | np.ndarray | None = None,
        *,
        validate: bool = False,
    ) -> "CSRGraph":
        """A new graph with ``edges`` merged in — no re-sort of the existing
        arrays.

        The incremental counterpart of :meth:`from_edges`: the new batch is
        canonicalized (symmetrized for undirected graphs, sorted, in-batch
        duplicates merged) in O(delta log delta), each arc's insertion point
        is found by a bisect of its row, and the merged indices/weights are
        spliced together from the old arrays (:func:`_spliced`).  No
        O(arcs log arcs) sort ever runs, so the cost is O(delta log deg)
        work on top of one flat copy of the backing arrays, in a fixed
        number of numpy calls.

        An inserted edge that already exists has its weight *added* to the
        existing arc (the :meth:`from_edges` ``dedup`` merge rule), so
        ``g.insert_edges(batch)`` equals
        ``CSRGraph.from_edges(n, concat(g_edges, batch))`` arc for arc —
        bit-identical indptr/indices, and bit-identical weights on the
        unweighted (all-1.0) graphs the dynamic engine grows.

        ``validate=False`` (default) skips the O(arcs) full re-validation:
        the merge preserves sortedness and symmetry by construction.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.shape[0] == 0:
            return self
        if edges.min() < 0 or edges.max() >= self.n_nodes:
            raise ValueError("edge endpoints out of range")
        if weights is None:
            w = np.ones(edges.shape[0], dtype=np.float64)
        else:
            w = np.asarray(weights, dtype=np.float64)
            if w.shape[0] != edges.shape[0]:
                raise ValueError("weights must align with edges")

        n = self.n_nodes
        key = edges[:, 0] * n + edges[:, 1]  # u * n + v orders arcs like CSR
        if not self.directed:  # the reverse of every arc but a self loop
            rev = edges[:, 1] * n + edges[:, 0]
            back = rev != key
            key, w = np.concatenate((key, rev[back])), np.concatenate((w, w[back]))
        order = np.argsort(key, kind="stable")  # stable, like from_edges' lexsort
        key, w = key[order], w[order]
        head = np.empty(key.shape[0], dtype=bool)
        head[0] = True
        np.not_equal(key[1:], key[:-1], out=head[1:])
        if not head.all():  # merge in-batch duplicates (from_edges' dedup rule)
            merged = np.zeros(int(np.count_nonzero(head)), dtype=np.float64)
            np.add.at(merged, np.cumsum(head) - 1, w)
            key, w = key[head], merged
        src, col = np.divmod(key, n)

        # each arc's place in its row, by a bisect over Python-int views
        ptr, ind = memoryview(self.indptr), memoryview(self.indices)
        at, stored = [], []
        for u, v in zip(src.tolist(), col.tolist()):
            hi = ptr[u + 1]
            k = bisect_left(ind, v, ptr[u], hi)
            at.append(k)
            stored.append(k < hi and ind[k] == v)
        at = np.array(at, dtype=np.int64)
        stored_w = self.weights
        if any(stored):  # an arc already stored adds its weight
            stored = np.array(stored)
            stored_w = stored_w.copy()
            np.add.at(stored_w, at[stored], w[stored])
            new = ~stored
            at, src, col, w = at[new], src[new], col[new], w[new]
        indptr = self.indptr + np.cumsum(np.bincount(src + 1, minlength=n + 1))
        return CSRGraph(
            indptr,
            _spliced(self.indices, at, col),
            _spliced(stored_w, at, w),
            directed=self.directed,
            node_labels=self.node_labels,
            validate=validate,
        )

    def subgraph_edges(self, keep: np.ndarray) -> "CSRGraph":
        """Graph on the same node set containing only edges flagged ``keep``.

        ``keep`` is a boolean mask aligned with :meth:`edge_array` (undirected
        edges once). Used by the dynamic "seq" scenario to carve the initial
        forest out of the full graph.
        """
        edges = self.edge_array()
        keep = np.asarray(keep, dtype=bool)
        if keep.shape[0] != edges.shape[0]:
            raise ValueError("keep mask must align with edge_array()")
        return CSRGraph.from_edges(
            self.n_nodes,
            edges[keep],
            directed=self.directed,
            node_labels=self.node_labels,
        )

    # ------------------------------------------------------------------ #
    # Dunder / description
    # ------------------------------------------------------------------ #

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CSRGraph):
            return NotImplemented
        return (
            self.directed == other.directed
            and np.array_equal(self.indptr, other.indptr)
            and np.array_equal(self.indices, other.indices)
            and np.allclose(self.weights, other.weights)
        )

    def __hash__(self):  # pragma: no cover - graphs are not hashable
        raise TypeError("CSRGraph is not hashable")

    def __repr__(self) -> str:
        kind = "directed" if self.directed else "undirected"
        return f"CSRGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges}, {kind})"


def _spliced(a: np.ndarray, at: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``np.insert(a, at, values)`` for non-decreasing ``at``.

    ``np.insert`` moves ``a`` through a boolean mask over the whole result;
    a few values go in faster as one slice copy per run of ``a`` (one-edge
    event, 2 arcs into 4k / 200k stored: 13 / 340 µs for both arrays
    against 26 / 2550 µs, 2-vCPU x86 VM), so those do."""
    if at.shape[0] > 8 + a.shape[0] // 256:
        return np.insert(a, at, values)
    out = np.empty(a.shape[0] + at.shape[0], dtype=a.dtype)
    prev = 0
    for i, (k, x) in enumerate(zip(at.tolist(), values.tolist(), strict=True)):
        out[prev + i : k + i] = a[prev:k]
        out[k + i] = x
        prev = k
    out[prev + at.shape[0] :] = a[prev:]
    return out
