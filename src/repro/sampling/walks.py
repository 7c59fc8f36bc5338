"""Second-order (node2vec) random walks.

Implements Eq. (1) of the paper: from the current node ``u`` (arrived from
``t``), the un-normalized transition weight to neighbor ``x`` is
``α_pq(t, x) · w_ux`` with

* ``α = 1/p`` if ``x == t``          (return,   d_tx = 0)
* ``α = 1``   if ``x`` adjacent to t (stay,     d_tx = 1)
* ``α = 1/q`` otherwise              (explore,  d_tx = 2)

Three sampling strategies are provided:

``"exact"`` (default)
    per-step categorical over the current neighbor slice, no
    precomputation.  A step weights the row by ``α``, prefix-sums it and
    bisects the prefix sums at the drawn threshold ``u · total``.  A numpy
    call costs microseconds whatever its size and a Python pass ~50 ns a
    cell, so a row narrower than :data:`WIDE_ROW` is stepped on Python
    floats (with an ``itertools.accumulate`` prefix sum) and a wider one
    on numpy arrays (``np.cumsum``).  Both are the same products and the
    same left fold, so a walk's bits do not depend on the split.  When
    ``q == 1`` (the paper's Table 2 value) the adjacency test vanishes and
    only the return bias remains.  Every transition draws exactly one
    ``rng.random()``, on weighted and unweighted graphs alike, so
    :mod:`repro.sampling.lockstep` reproduces these walks in bulk.
``"alias"``
    per-(prev, cur) alias tables precomputed for the whole graph (the classic
    node2vec preprocessing).  Exact O(1) per step but O(Σ deg²) build cost —
    intended for small graphs; tests verify distributional equivalence with
    ``"exact"``.
``"rejection"``
    KnightKing-style rejection sampling: propose a weighted neighbor, accept
    with ratio α/α_max.  O(1) expected per step with no precomputation.

All strategies produce identical *distributions*; they differ only in cost.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.alias import AliasTable
from repro.utils.rng import as_generator
from repro.utils.validation import check_in_set, check_positive

__all__ = ["WIDE_ROW", "ZERO_TOTAL_ERROR", "Node2VecWalker", "WalkParams"]

#: Message of the ``IndexError`` a step raises from a row whose weights sum
#: to 0 (no threshold ``u · total`` falls inside such a row).
ZERO_TOTAL_ERROR = "walk stepped from a node whose out-edge weights sum to 0"

#: Rows at least this wide are stepped on numpy arrays, narrower ones on
#: Python floats.  One weighted step from a row of width d (previous node
#: of degree 8), Python floats / numpy arrays, µs, best of 9 on a 2-vCPU
#: x86 VM: q = 1: d = 8 3.5 / 7.0, 32 4.6 / 7.2, 64 6.9 / 7.6, 96 9.1 /
#: 7.8, 128 11.9 / 8.3, 1024 70 / 13; q = 0.5: d = 8 8.0 / 19.7, 32 12.5 /
#: 20.5, 64 18.8 / 21.1, 96 26.0 / 22.5, 128 32.8 / 23.0, 1024 214 / 48.
WIDE_ROW = 80


@dataclass(frozen=True)
class WalkParams:
    """Random-walk hyper-parameters (paper Table 2 defaults)."""

    p: float = 0.5  # return parameter (α = 1/p on backtracking)
    q: float = 1.0  # in-out parameter (α = 1/q on exploration)
    length: int = 80  # l: length of a single random walk
    walks_per_node: int = 10  # r

    def __post_init__(self):
        check_positive("p", self.p)
        check_positive("q", self.q)
        check_positive("length", self.length, integer=True)
        check_positive("walks_per_node", self.walks_per_node, integer=True)


class Node2VecWalker:
    """Sampler of node2vec walks over a :class:`CSRGraph`.

    Parameters
    ----------
    graph:
        the (immutable) graph snapshot to walk on.
    params:
        :class:`WalkParams`; defaults to the paper's Table 2.
    strategy:
        ``"exact" | "alias" | "rejection"`` (see module docstring).
    seed:
        seed for the walker's internal stream; each walk advances it.
    """

    def __init__(
        self,
        graph: CSRGraph,
        params: WalkParams | None = None,
        *,
        strategy: str = "exact",
        seed=None,
    ):
        self.graph = graph
        self.params = params or WalkParams()
        check_in_set("strategy", strategy, ("exact", "alias", "rejection"))
        self.strategy = strategy
        self.rng = as_generator(seed)
        # Python-int views of the CSR arrays: a step reads a few scalars,
        # which a memoryview returns without numpy's per-item cost
        self._indptr = memoryview(graph.indptr)
        self._indices = memoryview(graph.indices)
        self._weights = memoryview(graph.weights)

        p, q = self.params.p, self.params.q
        self._uniform_q = bool(q == 1.0)
        self._inv_p = 1.0 / p
        self._inv_q = 1.0 / q
        self._alpha_max = max(self._inv_p, 1.0, self._inv_q)

        self._edge_alias: dict[tuple[int, int], AliasTable] | None = None
        self._node_alias: list[AliasTable | None] | None = None
        if strategy == "alias":
            self._build_alias_tables()
        elif strategy == "rejection":
            self._build_node_tables()

    # ------------------------------------------------------------------ #
    # Preprocessing
    # ------------------------------------------------------------------ #

    def _transition_weights(self, t: int, u: int) -> np.ndarray:
        """Un-normalized α_pq(t, x)·w_ux over the neighbors of ``u``."""
        ptr = self._indptr
        return np.asarray(self._biased(t, ptr[u], ptr[u + 1]), dtype=np.float64)

    def _row(self, a: int, b: int):
        """Weights of row cells ``[a, b)``: Python floats on a narrow row,
        a fresh array on a wide one."""
        w = self.graph.weights[a:b]
        return w.copy() if b - a >= WIDE_ROW else w.tolist()

    def _biased(self, t: int, a: int, b: int):
        """Row ``[a, b)`` (of the node reached from ``t``) weighted by
        α_pq(t, x): ``1/p`` on ``t``, ``1`` on a neighbor of ``t``, else
        ``1/q`` (Eq. (1)).  Neighbors of ``t`` are found through a set of
        t's row when both rows are narrow, else by numpy's binary search
        of t's row (``has_edges``), so the step after a hub costs
        O(deg(u) log deg(t)), not O(deg(t))."""
        w = self._row(a, b)
        idx = self._indices
        if not self._uniform_q:
            g, ptr, inv_q = self.graph, self._indptr, self._inv_q
            if b - a >= WIDE_ROW:
                w = np.where(g.has_edges(t, g.indices[a:b]), w, w * inv_q)
            else:
                if ptr[t + 1] - ptr[t] >= WIDE_ROW:
                    near = g.has_edges(t, g.indices[a:b]).tolist()
                else:
                    row = set(idx[ptr[t] : ptr[t + 1]])
                    near = [v in row for v in idx[a:b]]
                w = [x if n else x * inv_q for n, x in zip(near, w, strict=True)]
        k = bisect_left(idx, t, a, b)  # rows are sorted and duplicate-free
        if k < b and idx[k] == t:
            w[k - a] = self._weights[k] * self._inv_p
        return w

    def _build_alias_tables(self) -> None:
        """Per-(prev, cur) alias tables — the classic node2vec preprocessing."""
        g = self.graph
        tables: dict[tuple[int, int], AliasTable] = {}
        for u in range(g.n_nodes):
            for t in g.neighbors(u):
                tables[(int(t), u)] = AliasTable(self._transition_weights(int(t), u))
        self._edge_alias = tables

    def _build_node_tables(self) -> None:
        """First-order (weight-proportional) alias table per node, used as the
        proposal distribution by the rejection strategy."""
        g = self.graph
        tables: list[AliasTable | None] = []
        for u in range(g.n_nodes):
            w = g.neighbor_weights(u)
            tables.append(AliasTable(w) if w.size else None)
        self._node_alias = tables

    # ------------------------------------------------------------------ #
    # Stepping
    # ------------------------------------------------------------------ #

    def _draw(self, a: int, b: int, w) -> int:
        """The neighbor at the first cell of row ``[a, b)`` whose prefix sum
        of ``w`` exceeds ``u · total``: ``searchsorted(cumsum(w), u · total,
        side="right")`` as a left fold and a bisect."""
        c = np.cumsum(w) if b - a >= WIDE_ROW else list(accumulate(w))
        k = bisect_right(c, self.rng.random() * c[-1])
        if k == b - a:
            raise IndexError(ZERO_TOTAL_ERROR)
        return self._indices[a + k]

    def _first_step(self, start: int) -> int:
        """Weight-proportional first transition (no previous node yet)."""
        a, b = self._indptr[start], self._indptr[start + 1]
        if a == b:
            return -1
        return self._draw(a, b, self._row(a, b))

    def _step_exact(self, t: int, u: int) -> int:
        """One transition by Eq. (1): the row weighted by ``α``, then a
        draw."""
        a, b = self._indptr[u], self._indptr[u + 1]
        if a == b:
            return -1
        return self._draw(a, b, self._biased(t, a, b))

    def _step_alias(self, t: int, u: int) -> int:
        nbrs = self.graph.neighbors(u)
        if nbrs.size == 0:
            return -1
        table = self._edge_alias.get((t, u))
        if table is None:  # start node had no previous: fall back to exact
            return self._step_exact(t, u)
        return int(nbrs[table.sample(seed=self.rng)])

    def _step_rejection(self, t: int, u: int) -> int:
        g = self.graph
        nbrs = g.neighbors(u)
        if nbrs.size == 0:
            return -1
        p, q = self.params.p, self.params.q
        table = self._node_alias[u]
        while True:
            x = int(nbrs[table.sample(seed=self.rng)])
            if x == t:
                alpha = 1.0 / p
            elif self._uniform_q or g.has_edge(t, x):
                alpha = 1.0
            else:
                alpha = 1.0 / q
            if self.rng.random() * self._alpha_max <= alpha:
                return x

    def step(self, t: int, u: int) -> int:
        """One biased transition from ``u`` (previous node ``t``).

        Returns ``-1`` when ``u`` has no neighbors (walk truncates).
        """
        if self.strategy == "alias":
            return self._step_alias(t, u)
        if self.strategy == "rejection":
            return self._step_rejection(t, u)
        return self._step_exact(t, u)

    # ------------------------------------------------------------------ #
    # Walks
    # ------------------------------------------------------------------ #

    def walk(self, start: int) -> np.ndarray:
        """One walk of up to ``params.length`` nodes starting at ``start``.

        The walk truncates early at sink nodes (isolated / dangling); the
        returned array always begins with ``start``.
        """
        length = self.params.length
        out = [int(start)]
        if length > 1:
            prev, cur = out[0], self._first_step(out[0])
            while cur >= 0:
                out.append(cur)
                if len(out) == length:
                    break
                prev, cur = cur, self.step(prev, cur)
        return np.array(out, dtype=np.int64)

    def walks_from(self, starts) -> list[np.ndarray]:
        """One walk per entry of ``starts`` (used by the 'seq' scenario which
        walks from both endpoints of each inserted edge)."""
        return [self.walk(int(s)) for s in np.asarray(starts, dtype=np.int64)]

    def simulate(self, *, shuffle: bool = True) -> list[np.ndarray]:
        """The paper's corpus: ``r`` walks from every node (Table 2: r=10).

        Nodes are shuffled between repetitions like the reference node2vec
        implementation so that SGD sees a mixed ordering.
        """
        n = self.graph.n_nodes
        walks: list[np.ndarray] = []
        for _ in range(self.params.walks_per_node):
            order = self.rng.permutation(n) if shuffle else np.arange(n)
            for v in order:
                walks.append(self.walk(int(v)))
        return walks
