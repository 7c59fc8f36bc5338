"""Lockstep node2vec walks, bitwise-equal to :class:`Node2VecWalker`.

The pipeline's walk workers sample a chunk of walks, each from its own
per-walk stream.  :meth:`Node2VecWalker.walk` does that one walk and one
step at a time.  This module advances every walk of a chunk together, with
array operations per step, and reproduces the per-walk walks bit for bit.

When it applies
---------------
On every graph, weighted or not, for any ``p`` and ``q``: the ``"exact"``
strategy draws exactly one ``Generator.random()`` per transition.  A
walk's uniforms are then the first ``length - 1`` draws of its stream, and
one ``random(length - 1)`` call yields the same bits as the scalar calls.
The pipeline takes this path for every chunk of at least
:data:`LOCKSTEP_MIN_WALKS` walks; smaller chunks walk one at a time with
the per-walk scalar step, which costs less than a lockstep step's dozen
array calls until a chunk has about a dozen lanes.

Why the walks are identical
---------------------------
One step of the per-walk path picks ``bisect_right(c, u · total)``, ``c``
the left-fold prefix sums of ``w · α`` over the current neighbor row.
Here each lane's row is gathered into a padded block whose width is set
by a degree bucket (lanes of degree in ``[2^(b-1), 2^b)`` share a block,
so a hub does not pad every lane to the maximum degree):

* a row's valid cells come first, so their prefix sums and the total
  (the sum at the lane's last valid cell) are the row's own; padded cells
  read whatever arcs follow the row, and since weights are ``>= 0`` their
  prefix sums stay ``>=`` the total, above every threshold ``u · total``
  with ``u < 1`` (a zero total counts them and raises, as below);
* ``α`` is ``1/p`` on the previous node, else ``1`` (``q == 1``) or ``1``
  / ``1/q`` from a vectorized adjacency test, multiplied the same way;
* ``np.cumsum(axis=1)`` is the same sequential sum as the per-row left
  fold;
* the count of valid cells ``≤ u · total`` is ``bisect_right`` on a
  sorted row.

A lane whose current node has no out-neighbors stops there, which truncates
that walk exactly where the per-walk path does.
"""

from __future__ import annotations

# reprolint: kernel-module — hot-loop allocation and dtype discipline are
# enforced here (tools/reprolint; see README "Static analysis & typing")

from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.sampling.walks import ZERO_TOTAL_ERROR, WalkParams

__all__ = ["LOCKSTEP_MIN_WALKS", "WalkBatch", "lockstep_walks"]

#: Smallest chunk the lockstep path takes.  Below it the fixed per-step
#: array overhead (a sort and a few degree blocks per step, a dozen numpy
#: calls) costs more than the per-walk scalar step over the same lanes.
#: Measured on a 2-vCPU x86 VM, p = 0.5, as lockstep time / per-walk time
#: (above 1: the per-walk path is faster), best of 5:
#:
#: * ``_run_chunk`` alone, unweighted 20- and 80-step chunks on the dynamic
#:   replay's 1000-node graph (mean degree 4, q = 0.5, 1 and 2): 1.3–2.6 at
#:   4 walks, 1.2–1.6 at 8, 1.0–1.4 at 10, 1.0–1.1 at 12, 0.8–0.96 at 16
#:   and 0.6–0.85 at 24;
#: * the same on the weighted 1000-node degree-corrected SBM of the static
#:   benchmark (mean degree 10): 1.3–2.3 at 4, 0.9–1.3 at 8, 0.87–1.08 at
#:   10, 0.81–0.99 at 12 and 0.75–0.85 at 16;
#: * whole ``train_parallel`` runs with training in the loop ("proposed",
#:   "blocked", d = 32, inline chunks), replay at l = 20 and static at
#:   l = 20/80, q = 1 and 2: 0.98–1.54 at 8, 0.73–1.18 at 10, 0.81–1.06 at
#:   12 and 0.72–1.02 at 16.
LOCKSTEP_MIN_WALKS = 12

#: A degree bucket merges into the next wider one when padding it costs
#: fewer cells than this (about one block's fixed per-step overhead).
_MERGE_CELLS = 1024


class WalkBatch(NamedTuple):
    """A chunk of walks as one padded block: row ``i`` holds walk ``i`` in
    ``data[i, :lengths[i]]``; cells past a walk's length are ``-1``."""

    data: np.ndarray  # (n_walks, walk_length) int64
    lengths: np.ndarray  # (n_walks,) int64

    @classmethod
    def from_walks(cls, walks: list[np.ndarray], walk_length: int) -> WalkBatch:
        """Pack ragged walks (none longer than ``walk_length``)."""
        data = np.full((len(walks), walk_length), -1, dtype=np.int64)
        lengths = np.empty(len(walks), dtype=np.int64)
        for i, w in enumerate(walks):
            lengths[i] = w.shape[0]
            data[i, : w.shape[0]] = w
        return cls(data, lengths)

    def walks(self) -> list[np.ndarray]:
        """The walks as ragged int64 views into ``data``."""
        data = self.data
        return [data[i, :n] for i, n in enumerate(self.lengths.tolist())]

    @property
    def nbytes(self) -> int:
        return self.data.nbytes + self.lengths.nbytes


def _has_arcs(graph: CSRGraph, keys: np.ndarray, src: np.ndarray,
              dst: np.ndarray) -> np.ndarray:
    """Vectorized ``graph.has_edge(src, dst)`` by binary search over the
    CSR's arc keys ``row · n + col`` (globally sorted: rows are sorted)."""
    want = src * graph.n_nodes + dst
    pos = np.searchsorted(keys, want)
    return keys[np.minimum(pos, keys.shape[0] - 1)] == want


def _blocks(d: np.ndarray, pow2: np.ndarray) -> list[tuple[int, int]]:
    """Split lanes sorted by degree ``d`` into ``[a, b)`` blocks of one
    padded width each: one block per power-of-two degree range, except that
    a block absorbs the next range when padding its lanes to the wider
    width costs fewer than ``_MERGE_CELLS`` cells."""
    m = d.shape[0]
    ends = [e for e in dict.fromkeys([*np.searchsorted(d, pow2).tolist(), m]) if e]
    blocks = []
    a = 0
    for e, after in zip(ends, ends[1:], strict=False):
        if (e - a) * int(d[after - 1] - d[e - 1]) >= _MERGE_CELLS:
            blocks.append((a, e))
            a = e
    blocks.append((a, m))
    return blocks


def lockstep_walks(
    graph: CSRGraph,
    params: WalkParams,
    starts: np.ndarray,
    streams: Iterable[np.random.Generator],
) -> WalkBatch:
    """Walk from every start in lockstep; walk ``k`` draws from
    ``streams[k]``.

    The result is bitwise-equal to the ``"exact"`` strategy's
    ``Node2VecWalker.walk`` run once per start with ``rng`` set to the
    matching stream.  A step from a row whose weights sum to zero raises
    ``IndexError``, like the per-walk path.
    """
    starts = np.asarray(starts, dtype=np.int64)
    n = starts.shape[0]
    length = params.length
    data = np.full((n, length), -1, dtype=np.int64)
    lengths = np.full(n, length, dtype=np.int64)
    data[:, 0] = starts
    if length == 1 or n == 0:
        return WalkBatch(data, lengths)

    uniforms = np.empty((n, length - 1), dtype=np.float64)
    for k, rng in enumerate(streams):
        rng.random(out=uniforms[k])

    indptr, indices, weights = graph.indptr, graph.indices, graph.weights
    deg = graph.degree()
    inv_p = 1.0 / params.p
    inv_q = 1.0 / params.q
    uniform_q = params.q == 1.0
    keys = np.empty(0, dtype=np.int64)  # arc keys, for the q ≠ 1 adjacency test
    if not uniform_q:
        keys = np.repeat(np.arange(graph.n_nodes, dtype=np.int64), deg)
        keys *= graph.n_nodes
        keys += indices
    max_deg = int(deg.max()) if deg.shape[0] else 0
    last_arc = max(indices.shape[0] - 1, 0)
    pow2 = 2 ** np.arange(1, max(max_deg, 1).bit_length(), dtype=np.int64)
    cols = np.arange(max_deg, dtype=np.int64)
    rows = np.arange(n, dtype=np.int64)
    pick = np.empty(n, dtype=np.int64)

    lanes = rows  # walks still moving, sorted by current degree each step
    cur = starts
    prev = starts  # unused on the first step, which has no α
    for i in range(1, length):
        d = deg[cur]
        order = np.argsort(d)
        lanes, cur, prev, d = lanes[order], cur[order], prev[order], d[order]
        sinks = int(np.searchsorted(d, 1))  # degree-0 lanes sort first
        if sinks:
            lengths[lanes[:sinks]] = i
            lanes, cur, prev, d = lanes[sinks:], cur[sinks:], prev[sinks:], d[sinks:]
            if lanes.shape[0] == 0:
                break
        m = lanes.shape[0]
        u = uniforms[lanes, i - 1]
        base = indptr[cur]
        for a, b in _blocks(d, pow2):
            # padded cells read whatever arcs follow the row; their weights
            # are >= 0, so their prefix sums stay >= the row total and are
            # never counted below a threshold u · total < total
            pos = base[a:b, None] + cols[: int(d[b - 1])]
            np.minimum(pos, last_arc, out=pos)
            w = weights[pos]
            if i >= 2:
                nbrs = indices[pos]
                t = prev[a:b, None]
                if uniform_q:
                    alpha = np.where(nbrs == t, inv_p, 1.0)
                else:
                    adj = _has_arcs(graph, keys, t, nbrs)
                    alpha = np.where(nbrs == t, inv_p, np.where(adj, 1.0, inv_q))
                w = w * alpha
            c = np.cumsum(w, axis=1)
            thr = u[a:b] * c[rows[: b - a], d[a:b] - 1]
            pick[a:b] = np.count_nonzero(c <= thr[:, None], axis=1)
        if (pick[:m] >= d).any():
            raise IndexError(ZERO_TOTAL_ERROR)
        prev, cur = cur, indices[base + pick[:m]]
        data[lanes, i] = cur
    return WalkBatch(data, lengths)
