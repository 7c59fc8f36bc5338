"""Lockstep batched random walks — vectorized sampling for the q = 1 regime.

The paper's hyper-parameters (Table 2) set q = 1, which collapses Eq. (1)
to "neighbor-weighted choice, except the previous node is re-weighted by
1/p".  That special structure admits a fully vectorized sampler over a
*batch* of walks advancing in lockstep:

1. propose, for every active walk, a neighbor of its current node — one
   gather ``indices[indptr[cur] + floor(u · deg)]`` on unweighted graphs,
   or one binary search of the global cumulative edge-weight array
   (``searchsorted(cumw, base + u·row_total)``) on weighted ones;
2. accept with probability α(x)/α_max where α = 1/p for x = prev and 1
   otherwise — a vectorized comparison, no per-row search;
3. retry only the rejected lanes (expected ≤ max(1/p, 1, p) rounds).

This is the same rejection scheme as :class:`Node2VecWalker`'s
``"rejection"`` strategy, but with the per-walk Python loop replaced by
array ops across the whole batch — typically ~10× faster corpus generation
at Table 2 settings.  Distributional equivalence with the reference walker
is asserted by tests; for q ≠ 1 use the reference walker.

It draws a *different* random stream from :class:`Node2VecWalker` (a
data-dependent number of uniforms per step), so its walks are not the
per-walk walker's and the streaming pipeline does not use it.  The
pipeline's bulk walker is :mod:`repro.sampling.lockstep`, which reproduces
the per-walk walks bit for bit.

Execution modes
---------------
``walk_batch`` runs either through the vectorized NumPy step loop
(``mode="numpy"``) or through the compiled transition kernel
(:func:`repro.embedding.compiled.walk_fill` — per-step neighbor pick over
the CSR arrays, ``mode="compiled"``).  Both consume the walker's uniform
stream in the same per-lane order, so **the produced batches are
bitwise-identical** — the tests pin this on weighted and unweighted graphs,
``out=`` reuse included.  The compiled path pre-draws uniforms in blocks
(refilled as the kernel reports exhaustion), so it may leave the walker's
RNG *further advanced* than the NumPy path after the same batch; unconsumed
draws are discarded per ``walk_batch`` call, never reused.  ``mode="auto"``
(default) picks the compiled kernel when numba is importable and the NumPy
path otherwise — silently, since both are exact; ``mode="python"`` runs the
kernel's pure-Python form (the test seam).
"""

from __future__ import annotations

import numpy as np

from repro.embedding import compiled as _compiled
from repro.graph.csr import CSRGraph
from repro.sampling.walks import WalkParams
from repro.utils.rng import as_generator
from repro.utils.validation import check_in_set

__all__ = ["BatchedWalker"]

#: uniforms drawn per pool refill of the compiled path: enough for one full
#: rejection round of the whole batch (proposal + acceptance per lane), with
#: a floor so tiny batches do not refill once per round
_POOL_FLOOR = 64


class BatchedWalker:
    """Vectorized lockstep walker for q = 1 (weighted or unweighted).

    Draws a different stream from :class:`Node2VecWalker`, so the pipeline
    does not use it (module docstring).

    Parameters mirror :class:`~repro.sampling.walks.Node2VecWalker` plus the
    execution ``mode`` (module docstring); a ``ValueError`` is raised for
    configurations outside the fast regime (q ≠ 1).
    """

    def __init__(
        self,
        graph: CSRGraph,
        params: WalkParams | None = None,
        *,
        seed=None,
        mode: str = "auto",
    ):
        self.graph = graph
        self.params = params or WalkParams()
        if self.params.q != 1.0:
            raise ValueError("BatchedWalker requires q == 1 (Table 2's value); "
                             "use Node2VecWalker for general q")
        check_in_set("mode", mode, ("auto", "numpy", "compiled", "python"))
        if mode == "compiled" and not _compiled.NUMBA_AVAILABLE:
            raise RuntimeError(
                'BatchedWalker(mode="compiled") requires numba; install the '
                "perf extra (pip install .[perf]) or use mode=\"auto\" to "
                "fall back to the (bitwise-identical) NumPy step loop"
            )
        self.mode = mode
        if mode == "auto":
            self._impl = "compiled" if _compiled.NUMBA_AVAILABLE else "numpy"
        else:
            self._impl = mode
        self.rng = as_generator(seed)
        self._deg = graph.degree()
        # weighted graphs: neighbor choice ∝ edge weight, via one global
        # cumulative-weight array (cumw[lo:hi+1] brackets row cur's edges);
        # None marks the unweighted fast path.  The kernel signature needs
        # an array either way — the empty placeholder is never indexed.
        if np.allclose(graph.weights, 1.0):
            self._cumw = None
        else:
            cumw = np.zeros(graph.weights.shape[0] + 1, dtype=np.float64)
            np.cumsum(graph.weights, out=cumw[1:])
            self._cumw = cumw
        self._cumw_arr = (
            self._cumw if self._cumw is not None
            else np.zeros(0, dtype=np.float64)
        )

    # ------------------------------------------------------------------ #

    def _propose(self, cur: np.ndarray) -> np.ndarray:
        """One neighbor per walk — uniform (vectorized CSR gather) or
        edge-weight-proportional (one batched binary search of the global
        cumulative array); exactly one uniform consumed per lane either
        way."""
        u = self.rng.random(cur.shape[0])
        lo = self.graph.indptr[cur]
        if self._cumw is not None:
            hi = self.graph.indptr[cur + 1]
            base = self._cumw[lo]
            t = base + u * (self._cumw[hi] - base)
            j = np.searchsorted(self._cumw, t, side="right") - 1
            # u·row_total can round up to the row boundary: clip into row
            return self.graph.indices[np.minimum(j, hi - 1)]
        offs = (u * self._deg[cur]).astype(np.int64)
        return self.graph.indices[lo + offs]

    def step_batch(self, prev: np.ndarray, cur: np.ndarray) -> np.ndarray:
        """Advance every walk one biased step (rejection over the batch)."""
        p = self.params.p
        alpha_max = max(1.0 / p, 1.0)
        nxt = np.full(cur.shape[0], -1, dtype=np.int64)
        pending = np.arange(cur.shape[0])
        # dangling current nodes stay -1 (caller truncates those walks)
        alive = self._deg[cur[pending]] > 0
        pending = pending[alive]
        while pending.size:
            cand = self._propose(cur[pending])
            alpha = np.where(cand == prev[pending], 1.0 / p, 1.0)
            accept = self.rng.random(pending.size) * alpha_max <= alpha
            nxt[pending[accept]] = cand[accept]
            pending = pending[~accept]
        return nxt

    def walk_batch(self, starts: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Walks from every start, as an (n_walks, length) array.

        Truncated walks (dangling nodes) are padded with −1 from the
        truncation point on; :meth:`as_walk_list` strips the padding.

        ``out`` lets the caller provide the destination buffer instead of
        allocating one per batch — e.g. a reused scratch array, or a view
        into caller-owned shared storage so the batch lands where a
        consumer will read it with no extra copy.  It must be an int64
        array of shape ``(len(starts), length)``; it is returned (fully
        overwritten, padding included).

        The batch is bitwise-identical across execution modes (module
        docstring) — only throughput and the walker RNG's final position
        depend on ``mode``.
        """
        starts = np.asarray(starts, dtype=np.int64)
        W = starts.shape[0]
        length = self.params.length
        if out is None:
            out = np.full((W, length), -1, dtype=np.int64)
        else:
            if out.shape != (W, length):
                raise ValueError(
                    f"out must have shape {(W, length)}, got {out.shape}"
                )
            if out.dtype != np.int64:
                raise ValueError(f"out must be int64, got {out.dtype}")
            out[:] = -1
        out[:, 0] = starts
        if length == 1:
            return out
        if self._impl != "numpy":
            kernel = _compiled.walk_fill
            if self._impl == "python":
                kernel = _compiled.py_func(kernel)
            return self._walk_batch_kernel(out, kernel)

        # first step: uniform neighbor (no bias — there is no previous node)
        active = np.flatnonzero(self._deg[starts] > 0)
        if active.size:
            out[active, 1] = self._propose(starts[active])

        for i in range(2, length):
            active = np.flatnonzero(out[:, i - 1] >= 0)
            if active.size == 0:
                break
            prev = out[active, i - 2]
            cur = out[active, i - 1]
            out[active, i] = self.step_batch(prev, cur)
        return out

    def _walk_batch_kernel(self, out: np.ndarray, kernel) -> np.ndarray:
        """Drive :func:`repro.embedding.compiled.walk_fill` over ``out``.

        The kernel consumes pre-drawn uniforms from a pool and returns
        ``(col, pos)`` when the pool cannot cover its next rejection round;
        the driver refills — unconsumed tail first, fresh draws appended,
        which preserves the stream order (``random(a)`` then ``random(b)``
        is the ``random(a + b)`` stream) — and re-enters.  Each refill
        covers at least one full round of the widest possible pending set,
        so the loop always progresses.
        """
        graph = self.graph
        W, length = out.shape
        p = self.params.p
        pend = np.empty(W, np.int64)
        cand = np.empty(W, np.int64)
        pool = self.rng.random(0)
        col, pos = 1, 0
        while col < length:
            col, pos = kernel(
                out,
                graph.indptr,
                graph.indices,
                self._deg,
                self._cumw_arr,
                self._cumw is not None,
                1.0 / p,
                max(1.0 / p, 1.0),
                pool,
                col,
                pos,
                pend,
                cand,
            )
            if col >= length:
                break
            pool = np.concatenate(
                [pool[pos:], self.rng.random(max(2 * W, _POOL_FLOOR))]
            )
            pos = 0
        return out

    def as_walk_list(self, batch: np.ndarray) -> list[np.ndarray]:
        """Strip −1 padding, one variable-length array per walk."""
        out = []
        for row in batch:
            stop = np.flatnonzero(row < 0)
            out.append(row[: stop[0]].copy() if stop.size else row.copy())
        return out

    def simulate(self, *, shuffle: bool = True) -> list[np.ndarray]:
        """The r-walks-per-node corpus, like ``Node2VecWalker.simulate``."""
        n = self.graph.n_nodes
        starts = []
        for _ in range(self.params.walks_per_node):
            order = self.rng.permutation(n) if shuffle else np.arange(n)
            starts.append(order)
        batch = self.walk_batch(np.concatenate(starts))
        return self.as_walk_list(batch)
