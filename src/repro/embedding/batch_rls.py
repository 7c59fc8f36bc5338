"""Span-deferred OS-ELM skip-gram: exact rank-k RLS over a deferral span.

Algorithm 2 defers updates to the end of each walk by summing per-context
rank-1 updates computed independently against the walk-start (P, β).  That
sum overshoots when many contexts share directions (deflations compound
linearly instead of geometrically), which destabilizes tiny dense graphs.
The exact way to defer is one *block* (rank-k) RLS step over the span's
stacked activations H ∈ R^{k×d} [6]: ``S = I_k + H P Hᵀ``,
``K = P Hᵀ S⁻¹``, ``P ← P − K H P``, with every sample's error taken
against the span-start β.  This class is that model.  Its ``defer_span``
is ``"walk"`` (the default — the ``"block"`` registry name, per-walk
deferral like Algorithm 2), an int number of contexts, or ``"chunk"`` (one
span per staged block of the executing backend).  The ``"blocked"``
execution backend keeps its blocks inside one walk, because its contract
is to reproduce per-walk Algorithm 1; here a cross-walk span is the model
itself.  Within a span, training is

1. one ``µ·B[centers]`` hidden gather against the **span-start** ``B``
   (:meth:`~repro.embedding.sequential.OSELMSkipGram.hidden_batch`, into a
   reused span buffer);
2. one rank-k covariance solve per span
   (:func:`repro.embedding.oselm.rank_k_update`): Woodbury for walk-sized
   spans, the d×d *information* form once a span is wider than the hidden
   layer (algebraically the same batch gain, O(k·d²) instead of O(k³),
   with span-sized scratch reused across spans via ``work=``);
3. every sample error computed against span-start ``B`` (positives one
   window column at a time, bounding the gather temporaries at ``(k, d)``),
   then one ``bincount`` accumulation pass per embedding dimension — and,
   when the span's negative rows are shared (the per-span draw below),
   the whole negative side collapses to **two small GEMMs**: the GraphACT
   redundancy-reduction move (PAPERS.md, arXiv:2001.02498) applied to the
   arithmetic, not just the draw.

One shared negative batch is drawn per span (the span is the model's
``"per_walk"`` reuse unit), amortizing ``NegativeSampler.draw_batch`` the
same way the FPGA's per-walk batch policy [18] amortizes its draws.

Because the model owns the deferred semantics, span-aware execution
backends (``"blocked"``) may legally run spans of hundreds of
contexts — the OS-ELM hot path becomes a handful of large GEMMs per chunk.
The walk-feeding backend (``"reference"``) accepts the model
only at ``defer_span="walk"`` or ``1``; a cross-walk ``defer_span`` under a
walk-feeding backend is rejected up front with the registry-rendered error
(:func:`repro.embedding.kernels.cross_walk_span_error`).

Degeneration contract (pinned by ``tests/embedding/test_batch_rls.py``)
----------------------------------------------------------------------
* ``defer_span=1`` — spans are single contexts: training takes the
  inherited scalar Algorithm 1 path and is **bit-identical** to
  ``"proposed"`` (the golden baseline), negative stream included (span
  sharing degenerates to the per-context draw policy).
* ``defer_span="walk"`` — one span per walk: exact per-walk block RLS.
  ``P`` is exactly ``(P₀⁻¹ + HᵀH)⁻¹`` and stays positive definite on the
  clique streams where Algorithm 2 diverges
  (``tests/embedding/test_block.py``).  The k×k solve is fine in software
  but is a dense matrix inversion the FPGA's 4-stage pipeline cannot
  stream, which is *why* the paper chose the independent-rank-1
  approximation.
* Larger spans trade staleness for throughput: hidden rows and errors go
  stale by ``O(µ²·k)`` per span (the ``"blocked"`` kernel's error analysis,
  at span scale), bounded by ``BATCH_RLS_RTOL`` vs the ``"walk"``
  degeneration under shared negatives, and measured end-to-end by
  ``benchmarks/bench_batch_rls_accuracy.py`` (Fig-5-style: link-prediction
  AUC vs ``defer_span``, ≤2% degradation at ``"chunk"``).

This completes the design space: Algorithm 1 (sequential, exact,
unpipelineable) — block RLS (``defer_span="walk"``: per-walk deferred,
exact, unpipelineable) — Algorithm 2 (per-walk deferred, approximate,
pipelineable) — cross-walk spans (span-deferred, rank-k exact in the
covariance, pipelineable at chunk width): the raw-speed ceiling for the
OS-ELM family and the shape a torch/GPU backend would consume.
"""

from __future__ import annotations

# reprolint: kernel-module — hot-loop allocation and dtype discipline are
# enforced here (tools/reprolint; see README "Static analysis & typing")

import numpy as np

from repro.embedding.oselm import _work_buf, rank_k_update
from repro.embedding.sequential import OSELMSkipGram
from repro.hw.opcount import OpCount
from repro.sampling.corpus import WalkContexts
from repro.utils.validation import check_positive

__all__ = ["BatchRLSSkipGram"]

#: the per-dimension scatter accumulates straight into full ``n_nodes``
#: columns while the graph stays within this factor of the span's slot
#: count; a (relatively) giant graph first compresses to the span's unique
#: rows so each ``bincount`` result stays O(unique rows), not O(n_nodes)
_DIRECT_SCATTER_FACTOR = 4


def _span_error(defer_span: object, backend: object = None) -> str:
    # lazy: the kernel layer imports this module (registry dispatch)
    from repro.embedding.kernels import cross_walk_span_error

    return cross_walk_span_error(defer_span, backend)


def _check_defer_span(spec: int | str) -> int | str:
    if isinstance(spec, str):
        if spec not in ("walk", "chunk"):
            raise ValueError(
                'defer_span must be "walk", "chunk" or a positive int of '
                f"contexts, got {spec!r}"
            )
        return spec
    check_positive("defer_span", spec, integer=True)
    return int(spec)


def _check_span_backend(name: str, defer_span: int | str) -> None:
    """Reject a walk-feeding ``exec_backend`` preference for a cross-walk
    ``defer_span`` at construction time (lazy import, like
    :func:`repro.embedding.base.check_exec_backend`; unknown names fall
    through to the base validation's error)."""
    from repro.embedding.kernels import EXEC_REGISTRY

    cls = EXEC_REGISTRY.get(name) if isinstance(name, str) else None
    if cls is not None and not cls.spans_walks:
        raise ValueError(_span_error(defer_span, name))


class BatchRLSSkipGram(OSELMSkipGram):
    """Span-deferred rank-k OS-ELM skip-gram (see module docstring).

    Parameters
    ----------
    defer_span:
        the deferral unit: ``"walk"`` (default — one span per walk, the
        Algorithm 2 boundary; accepted by every backend), a positive int of
        contexts (``1`` degenerates to Algorithm 1 bit-identically; ``>1``
        crosses walk boundaries in the staged context stream and requires a
        span-aware backend), or ``"chunk"`` (one span per staged block of
        the executing backend — the maximal-GEMM setting).
    exec_backend:
        as in :class:`OSELMSkipGram`; ``None`` (default) resolves to
        ``"blocked"`` when ``defer_span`` crosses walks and ``"reference"``
        otherwise.  A walk-feeding name with a cross-walk span is rejected
        here rather than at train time.

    ``denominator="paper"`` is rejected for cross-walk spans (the literal
    Algorithm 1 line 5 has no SPD span form); ``duplicate_policy`` applies
    only at ``defer_span=1`` — spans always use the batched scatter
    semantics.  ``forgetting_factor`` < 1 rescales once per span.
    """

    def __init__(
        self,
        n_nodes: int,
        dim: int,
        *,
        defer_span: int | str = "walk",
        mu: float = 0.01,
        p0: float = 1.0,
        init_scale: float = 0.1,
        weight_tying: str = "beta",
        denominator: str = "standard",
        duplicate_policy: str = "batched",
        forgetting_factor: float = 1.0,
        exec_backend: str | None = None,
        seed=None,
    ):
        defer_span = _check_defer_span(defer_span)
        crosses = defer_span == "chunk" or (
            isinstance(defer_span, int) and defer_span > 1
        )
        if crosses and denominator == "paper":
            raise ValueError(
                'denominator="paper" has no SPD span form (the literal '
                "Algorithm 1 line 5 deflates the gain denominator below "
                "the Cholesky's reach); use denominator=\"standard\" or "
                'defer_span in ("walk", 1)'
            )
        if exec_backend is None:
            exec_backend = "blocked" if crosses else "reference"
        elif crosses:
            _check_span_backend(exec_backend, defer_span)
        super().__init__(
            n_nodes,
            dim,
            mu=mu,
            p0=p0,
            init_scale=init_scale,
            weight_tying=weight_tying,
            denominator=denominator,
            duplicate_policy=duplicate_policy,
            forgetting_factor=forgetting_factor,
            exec_backend=exec_backend,
            seed=seed,
        )
        self.defer_span = defer_span

    # ------------------------------------------------------------------ #

    @property
    def defer_crosses_walks(self) -> bool:
        """Whether spans may straddle walk boundaries — the bit the
        execution backends' acceptance validation dispatches on."""
        return self.defer_span == "chunk" or (
            isinstance(self.defer_span, int) and self.defer_span > 1
        )

    # ------------------------------------------------------------------ #

    def train_context(self, center, positives, negatives):
        if self.defer_span == 1:
            super().train_context(center, positives, negatives)
            return
        raise NotImplementedError(
            f"BatchRLSSkipGram defers updates over defer_span="
            f"{self.defer_span!r}; use train_walk() or train_span()"
        )

    def train_walk(self, contexts: WalkContexts, negatives: np.ndarray) -> None:
        if self.defer_crosses_walks:
            raise ValueError(_span_error(self.defer_span))
        if self.defer_span == 1:
            # single-context spans ARE Algorithm 1: take the inherited
            # scalar path (bit-identical to the "proposed" model)
            super().train_walk(contexts, negatives)
            return
        negatives = self._check_walk_inputs(contexts, negatives)
        if contexts.n == 0:
            return
        self.train_span(contexts.centers, contexts.positives, negatives)
        self.n_walks_trained += 1

    def train_span(
        self,
        centers: np.ndarray,
        positives: np.ndarray,
        negatives: np.ndarray,
    ) -> None:
        """One deferred span: ``centers`` (k,), ``positives`` (k, J),
        ``negatives`` (k, ns) — all trained against the span-start state.

        The three stages of the module docstring: span-start hidden gather
        (reused buffer), one rank-k ``rank_k_update`` (information form
        once k > d), and one weighted scatter of all
        ``(1+ns)·J·k`` sample updates (each negative trains once per
        window — weight ``J`` — as everywhere else in the family).  When
        every context of the span carries the same negative row (the
        per-span shared draw), the negative side runs as two ``(k, ns)``
        GEMMs instead of entering the scatter at all.  ``P`` is
        re-symmetrized once per span (bitwise no-op while already
        symmetric, same policy as the blocked kernel).
        """
        centers = np.asarray(centers, dtype=np.int64)
        positives = np.asarray(positives, dtype=np.int64)
        negatives = np.asarray(negatives, dtype=np.int64)
        k = centers.shape[0]
        if k == 0:
            return
        J = positives.shape[1]
        ns = negatives.shape[1]
        self._check_ids(centers=centers, positives=positives, negatives=negatives)
        lam = self.forgetting_factor
        work = self._work  # span scratch: contents are rewritten per span

        H = self.hidden_batch(centers, out=_work_buf(work, "span_H", (k, self.dim)))
        K = rank_k_update(self.P, H, lam=lam, gain="batch", work=work)

        # positive errors against span-start B, one window column at a time
        # (bounds the gather temporaries at (k, d)), each into a contiguous
        # row: einsum writes a strided column at half the speed
        e_pos = _work_buf(work, "span_e", (J, k))
        for jj in range(J):
            np.einsum("kd,kd->k", self.B[positives[:, jj]], H, out=e_pos[jj])
        np.subtract(1.0, e_pos, out=e_pos)

        shared = ns > 0 and bool((negatives == negatives[0]).all())
        if shared:
            # the span-shared batch: ns rows common to every context, so
            # errors and scatter are two small GEMMs (×J per-window weight)
            nrow = negatives[0]
            e_neg = H @ self.B[nrow].T  # (k, ns), target 0
            np.add.at(self.B, nrow, (-float(J)) * (K @ e_neg).T)
            self._scatter(positives, e_pos.T, K)
        else:
            # general per-context negatives: join the weighted scatter
            e_neg = np.einsum("knd,kd->kn", self.B[negatives], H)
            samples = _work_buf(work, "span_samples", (k, J + ns), np.int64)
            samples[:, :J] = positives
            samples[:, J:] = negatives
            w = _work_buf(work, "span_w", (k, J + ns))  # per-slot weights
            w[:, :J] = e_pos.T
            np.multiply(e_neg, -float(J), out=w[:, J:])
            self._scatter(samples, w, K)
        self.P[:] = (self.P + self.P.T) * 0.5

    def _scatter(self, cols: np.ndarray, w: np.ndarray, K: np.ndarray) -> None:
        """``B[cols[i, s]] += w[i, s] * K[:, i]`` — one ``bincount``
        accumulation over the flat slot stream per embedding dimension (no
        data-dependent branching, no (k, R) dense temporary).  Duplicate
        slots accumulate exactly; everything was computed against the
        span-start state, so scatter order is irrelevant."""
        k, S = cols.shape
        flat = cols.ravel()
        w = np.ascontiguousarray(w)  # the per-dim products run twice as fast
        wk = np.empty((k, S), dtype=np.float64)  # one per span, outside loops
        if self.n_nodes <= _DIRECT_SCATTER_FACTOR * k * S:
            for j in range(self.dim):
                np.multiply(w, K[j][:, None], out=wk)
                self.B[:, j] += np.bincount(
                    flat, weights=wk.ravel(), minlength=self.n_nodes
                )
        else:
            # giant graph, comparatively small span: compress to the span's
            # unique rows first so each bincount stays O(unique rows)
            rows, inv = np.unique(flat, return_inverse=True)
            for j in range(self.dim):
                np.multiply(w, K[j][:, None], out=wk)
                self.B[rows, j] += np.bincount(
                    inv, weights=wk.ravel(), minlength=rows.shape[0]
                )

    # ------------------------------------------------------------------ #

    @classmethod
    def op_profile(
        cls, dim: int, n_contexts: int, n_positives: int, n_negatives: int
    ) -> OpCount:
        """Per-walk profile at the default ``defer_span="walk"``: Algorithm
        1's gather/scatter arithmetic, the per-context P recursion replaced
        by one information-form solve (two d×d GEMM assemblies over the
        span plus two d³-order Choleskys/inversions), and one shared
        negative batch per span (``rng = ns``, the per-walk draw policy)."""
        base = OSELMSkipGram.op_profile(dim, n_contexts, n_positives, n_negatives)
        per_ctx = n_contexts * (2.0 * dim * dim + 3.0 * dim)  # recursion, removed
        solve = 2.0 * dim * dim * n_contexts + 2.0 * dim**3
        return OpCount(
            mac=base.mac - per_ctx + solve,
            div=float(dim),
            rng=float(n_negatives),
            mem=base.mem + 2.0 * dim * n_contexts,
            ctx=base.ctx,
            win=base.win,
            walk=1.0,
        )

    def __repr__(self) -> str:
        return (
            f"BatchRLSSkipGram(n_nodes={self.n_nodes}, dim={self.dim}, "
            f"defer_span={self.defer_span!r}, mu={self.mu}, "
            f"tying={self.weight_tying!r})"
        )
