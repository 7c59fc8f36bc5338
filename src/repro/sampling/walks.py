"""Second-order (node2vec) random walks.

Implements Eq. (1) of the paper: from the current node ``u`` (arrived from
``t``), the un-normalized transition weight to neighbor ``x`` is
``α_pq(t, x) · w_ux`` with

* ``α = 1/p`` if ``x == t``          (return,   d_tx = 0)
* ``α = 1``   if ``x`` adjacent to t (stay,     d_tx = 1)
* ``α = 1/q`` otherwise              (explore,  d_tx = 2)

Three sampling strategies are provided:

``"exact"`` (default)
    per-step categorical over the current neighbor slice.  Fully vectorized
    per step, no precomputation; when ``q == 1`` (the paper's Table 2 value)
    the adjacency test vanishes and only the return bias remains.  Every
    transition draws exactly one ``rng.random()``, on weighted and
    unweighted graphs alike, so :mod:`repro.sampling.lockstep` reproduces
    these walks in bulk.
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

from dataclasses import dataclass

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.alias import AliasTable
from repro.utils.rng import as_generator
from repro.utils.validation import check_in_set, check_positive

__all__ = ["Node2VecWalker", "WalkParams"]


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

        p, q = self.params.p, self.params.q
        self._uniform_q = bool(q == 1.0)
        self._alpha_max = max(1.0 / p, 1.0, 1.0 / q)

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
        g = self.graph
        nbrs = g.neighbors(u)
        w = g.neighbor_weights(u)
        p, q = self.params.p, self.params.q
        if not self._uniform_q:
            alpha = np.full(nbrs.shape[0], 1.0 / q)
            alpha[g.has_edges(t, nbrs)] = 1.0
        else:
            alpha = np.ones(nbrs.shape[0])
        alpha[nbrs == t] = 1.0 / p
        return w * alpha

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

    def _first_step(self, start: int) -> int:
        """Weight-proportional first transition (no previous node yet)."""
        g = self.graph
        nbrs = g.neighbors(start)
        if nbrs.size == 0:
            return -1
        c = np.cumsum(g.neighbor_weights(start))
        return int(nbrs[np.searchsorted(c, self.rng.random() * c[-1], side="right")])

    def _step_exact(self, t: int, u: int) -> int:
        nbrs = self.graph.neighbors(u)
        if nbrs.size == 0:
            return -1
        c = np.cumsum(self._transition_weights(t, u))
        return int(nbrs[np.searchsorted(c, self.rng.random() * c[-1], side="right")])

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
        out = np.empty(length, dtype=np.int64)
        out[0] = start
        if length == 1:
            return out
        nxt = self._first_step(start)
        if nxt < 0:
            return out[:1]
        out[1] = nxt
        filled = 2
        t, u = start, nxt
        for i in range(2, length):
            x = self.step(t, u)
            if x < 0:
                break
            out[i] = x
            filled = i + 1
            t, u = u, x
        return out[:filled]

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
