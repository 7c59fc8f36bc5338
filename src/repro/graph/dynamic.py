"""Dynamic graphs: edge-insertion streams over immutable CSR snapshots.

The paper's target deployment is an IoT edge device observing a *growing*
graph (new social links, new co-purchases).  ``DynamicGraph`` models this as
incrementally-maintained CSR state plus a pending-insertion buffer, so the
walk engine always works on a consistent immutable view.

:meth:`DynamicGraph.walk_tasks` bridges into the streaming engine: it turns
an :class:`EdgeEvent` stream into the lazy
:class:`~repro.parallel.tasks.WalkTask` stream that
:func:`repro.parallel.train_parallel` consumes, so scenario replay shares
the bounded-prefetch walk→train pipeline with static training.

Snapshots are maintained incrementally: :meth:`snapshot` merges the pending
batch into the previous CSR via :meth:`~repro.graph.csr.CSRGraph.insert_edges`
(per-node insertion counts + one concatenate/scatter pass), so per-event
cost is O(delta + touched adjacency) on top of a flat vectorized copy —
no O(edges log edges) re-sort, no Python-level edge-set iteration.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["DynamicGraph", "EdgeEvent", "edge_stream"]


class EdgeEvent:
    """One insertion event: a batch of edges added at the same step."""

    __slots__ = ("step", "edges")

    def __init__(self, step: int, edges: np.ndarray):
        self.step = int(step)
        self.edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)

    @property
    def touched_nodes(self) -> np.ndarray:
        """Unique endpoints of this batch — walk starts for the 'seq' scenario
        (the paper starts a random walk "from both the ends of an added
        edge")."""
        return np.unique(self.edges)

    def __repr__(self) -> str:
        return f"EdgeEvent(step={self.step}, n_edges={self.edges.shape[0]})"


class DynamicGraph:
    """A growing undirected graph with O(delta) insertion and snapshots.

    Parameters
    ----------
    n_nodes:
        fixed node universe (the paper's scenarios add edges, not nodes).
    initial:
        optional starting graph (e.g. the spanning forest from
        :func:`repro.graph.components.forest_split`).
    node_labels:
        class labels carried onto every snapshot.

    State is the current immutable CSR snapshot plus a buffer of pending
    canonical insertions; :meth:`snapshot` merges the buffer with one
    vectorized :meth:`~repro.graph.csr.CSRGraph.insert_edges` pass.
    Membership queries cover both the merged CSR (binary search) and the
    pending buffer (sorted compound keys), so the pre-CSR edge-set
    semantics are preserved exactly.
    """

    def __init__(
        self,
        n_nodes: int,
        *,
        initial: CSRGraph | None = None,
        node_labels: np.ndarray | None = None,
    ):
        if initial is not None and initial.n_nodes != n_nodes:
            raise ValueError("initial graph node count mismatch")
        self.n_nodes = int(n_nodes)
        self.node_labels = node_labels
        if initial is not None and node_labels is None:
            self.node_labels = initial.node_labels

        if initial is None:
            self._csr = CSRGraph(
                np.zeros(self.n_nodes + 1, dtype=np.int64),
                np.empty(0, dtype=np.int64),
                node_labels=self.node_labels,
                validate=False,
            )
        elif initial.directed or initial.node_labels is not self.node_labels:
            # re-home onto this graph's labels (zero-copy for the arrays);
            # a directed initial is symmetrized once, here
            self._csr = (
                CSRGraph.from_edges(
                    self.n_nodes, initial.edge_array(), node_labels=self.node_labels
                )
                if initial.directed
                else CSRGraph(
                    initial.indptr,
                    initial.indices,
                    initial.weights,
                    node_labels=self.node_labels,
                    validate=False,
                )
            )
        else:
            self._csr = initial
        self._n_edges = self._csr.n_edges
        #: canonical (u <= v, lexsorted, deduped) new-edge batches not yet
        #: merged into the CSR, and their sorted compound keys for O(log)
        #: membership.  Keys are u * n_nodes + v — int64-safe for any node
        #: universe below ~3e9 (far beyond this engine's target scale).
        self._pending: list[np.ndarray] = []
        self._pending_keys = np.empty(0, dtype=np.int64)

    def _keys(self, edges: np.ndarray) -> np.ndarray:
        return edges[:, 0] * np.int64(self.n_nodes) + edges[:, 1]

    # ------------------------------------------------------------------ #

    @property
    def n_edges(self) -> int:
        return int(self._n_edges)

    def has_edge(self, u: int, v: int) -> bool:
        u, v = (int(u), int(v)) if u <= v else (int(v), int(u))
        if self._csr.has_edge(u, v):
            return True
        key = np.int64(u) * np.int64(self.n_nodes) + np.int64(v)
        i = np.searchsorted(self._pending_keys, key)
        return bool(i < self._pending_keys.shape[0] and self._pending_keys[i] == key)

    def add_edge(self, u: int, v: int) -> bool:
        """Insert one edge; returns False if it already existed."""
        return self.add_edges(np.array([[u, v]], dtype=np.int64)) == 1

    def add_edges(self, edges: Iterable[tuple[int, int]] | np.ndarray) -> int:
        """Insert a batch; returns the number of genuinely new edges.

        One vectorized pass: range check, canonicalize to ``u <= v``,
        in-batch dedup via sorted compound keys, then drop edges already in
        the merged CSR (per-touched-row binary search) or in the pending
        buffer.  No per-edge Python loop.
        """
        return self._insert(edges).shape[0]

    def _insert(self, edges: Iterable[tuple[int, int]] | np.ndarray) -> np.ndarray:
        """Vectorized insertion; returns the canonical (d, 2) array of
        genuinely new edges (``u <= v``, lexsorted) this call added."""
        edges = np.asarray(
            edges if isinstance(edges, np.ndarray) else list(edges), dtype=np.int64
        ).reshape(-1, 2)
        if edges.shape[0] == 0:
            return edges
        if edges.min() < 0 or edges.max() >= self.n_nodes:
            raise ValueError(
                f"edge batch out of range for n={self.n_nodes}: "
                f"ids span [{edges.min()}, {edges.max()}]"
            )
        lo = np.minimum(edges[:, 0], edges[:, 1])
        hi = np.maximum(edges[:, 0], edges[:, 1])
        canon = np.stack([lo, hi], axis=1)
        canon = canon[np.lexsort((canon[:, 1], canon[:, 0]))]
        keys = self._keys(canon)
        if keys.shape[0] > 1:
            keep = np.ones(keys.shape[0], dtype=bool)
            keep[1:] = keys[1:] != keys[:-1]
            canon, keys = canon[keep], keys[keep]

        # drop edges already merged into the CSR (touched rows only)
        present = np.zeros(canon.shape[0], dtype=bool)
        nodes, starts = np.unique(canon[:, 0], return_index=True)
        bounds = np.append(starts, canon.shape[0])
        for i, node in enumerate(nodes):
            s = slice(int(bounds[i]), int(bounds[i + 1]))
            present[s] = self._csr.has_edges(int(node), canon[s, 1])
        # ... and edges already waiting in the pending buffer
        if self._pending_keys.shape[0]:
            idx = np.searchsorted(self._pending_keys, keys)
            ok = idx < self._pending_keys.shape[0]
            pending_dup = np.zeros(canon.shape[0], dtype=bool)
            pending_dup[ok] = self._pending_keys[idx[ok]] == keys[ok]
            present |= pending_dup

        new = canon[~present]
        if new.shape[0]:
            self._pending.append(new)
            self._pending_keys = np.union1d(self._pending_keys, keys[~present])
            self._n_edges += new.shape[0]
        return new

    def snapshot(self) -> CSRGraph:
        """Immutable CSR view of the current edge set.

        Pending insertions merge incrementally
        (:meth:`~repro.graph.csr.CSRGraph.insert_edges`: per-node insertion
        counts + one concatenate/scatter pass); with nothing pending the
        cached snapshot object is returned as-is."""
        if self._pending:
            batch = (
                self._pending[0]
                if len(self._pending) == 1
                else np.concatenate(self._pending)
            )
            self._pending = []
            self._pending_keys = np.empty(0, dtype=np.int64)
            self._csr = self._csr.insert_edges(batch)
        return self._csr

    def apply(self, event: "EdgeEvent") -> CSRGraph:
        """Insert one event's edge batch and return the updated snapshot
        (the same cached object when the event adds no new edge)."""
        self.add_edges(event.edges)
        return self.snapshot()

    def walk_tasks(self, events, *, walks_per_endpoint: int = 1):
        """Turn an :class:`EdgeEvent` stream into the streaming engine's
        walk-task stream: apply each event, then emit one
        :class:`~repro.parallel.tasks.WalkTask` walking from every endpoint
        of the inserted batch (the paper starts a random walk "from both
        the ends of an added edge"; ``walks_per_endpoint`` tiles the starts
        like node2vec's r), tagged with the event step and carrying the
        post-insertion snapshot.

        The stream is lazy: snapshots materialize only as the pipeline's
        prefetch window pulls tasks, so at most a window's worth of
        snapshots is ever alive.
        """
        from repro.parallel.tasks import WalkTask  # runtime: keep graph layer light

        if walks_per_endpoint < 1:
            raise ValueError("walks_per_endpoint must be >= 1")
        for event in events:
            snap = self.apply(event)
            starts = np.tile(event.touched_nodes, int(walks_per_endpoint))
            yield WalkTask(starts=starts, epoch=event.step, graph=snap)

    def __repr__(self) -> str:
        return f"DynamicGraph(n_nodes={self.n_nodes}, n_edges={self.n_edges})"


def edge_stream(
    edges: np.ndarray, *, edges_per_event: int = 1, max_events: int | None = None
) -> Iterator[EdgeEvent]:
    """Chop a replay edge list into :class:`EdgeEvent` batches.

    ``edges_per_event=1`` reproduces the paper's one-edge-at-a-time protocol;
    larger batches are the documented scale knob for the quick profiles.
    ``max_events`` truncates the stream (quick profiles again).
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges_per_event < 1:
        raise ValueError("edges_per_event must be >= 1")
    n_events = int(np.ceil(edges.shape[0] / edges_per_event))
    if max_events is not None:
        n_events = min(n_events, max_events)
    for k in range(n_events):
        lo = k * edges_per_event
        hi = min(lo + edges_per_event, edges.shape[0])
        yield EdgeEvent(step=k, edges=edges[lo:hi])
