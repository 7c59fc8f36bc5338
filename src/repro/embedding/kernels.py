"""Chunk-level training kernels with pluggable execution backends.

The streaming pipeline (PR 1–3) made walk *generation* fast; training still
consumed one walk at a time through Python loops over tiny NumPy ops — the
exact PS/PL division the paper moves into hardware, left interpreter-bound
in software.  This module is the software analogue of the paper's PL: the
unit of work becomes a *chunk* of walks, and how that chunk is executed is a
pluggable backend, mirroring the ``SOURCE_REGISTRY`` pattern of
:mod:`repro.sampling.sources`.

Backends
--------
``"reference"``
    The historical per-context loop, preserved **bit-identically**: for each
    walk, draw its negatives via
    :meth:`~repro.sampling.negative.NegativeSampler.sample_for_walk` and
    call :meth:`~repro.embedding.base.EmbeddingModel.train_walk` — the same
    calls in the same order as the pre-kernel ``WalkTrainer``, so the golden
    sha256 regressions pin to this backend.

``"blocked"``
    Vectorized chunk kernels: contexts are extracted up front and all
    negatives drawn in **one bulk alias pass**
    (:meth:`~repro.sampling.negative.NegativeSampler.draw_batch`) per
    staging block (``block_walks`` = 1024 walks — pipeline chunks fit in
    one block; a whole-corpus call stages block by block so memory stays
    bounded).  Per model:

    * :class:`~repro.embedding.skipgram.SkipGramSGD` — weights are frozen
      for the duration of one walk, every window's forward pass and gradient
      is computed in three ``einsum`` batches, and the updates land in three
      ``np.add.at`` scatters (the software analogue of the FPGA's deferred
      per-walk update, Algorithm 2's structure applied to SGD).
    * :class:`~repro.embedding.sequential.OSELMSkipGram` — the paper's
      *proposed* model, whose Algorithm 1 recursion executes one tiny
      matvec per context — runs in rank-k blocks, one block per walk
      (blocks never cross a walk boundary), below.
    * the deferred :class:`~repro.embedding.dataflow.DataflowOSELMSkipGram`
      and :class:`~repro.embedding.batch_rls.BatchRLSSkipGram` models are
      already walk-vectorized and train through their own updates; the win
      is the bulk negative draw and the up-front context extraction.

    The OS-ELM block kernel stages what does not depend on the recursion
    once per chunk: the contexts come out of one sliding-window pass over
    the chunk's walks (:class:`ChunkContexts`), the input checks run once,
    vectorized, and the ``[positives | tiled negatives]`` sample matrix and
    its shared targets are built once, into buffers the model reuses across
    chunks.  Per walk only the recursion's own work is left:

    1. one ``µ·B[centers]`` gather of the block's hidden rows against the
       block-start ``B`` (:meth:`~repro.embedding.sequential.OSELMSkipGram.hidden_batch`);
    2. one Woodbury block solve replaces k rank-1 ``P`` recursions —
       ``S = λI + H_b P H_bᵀ``, Cholesky, square-root downdate
       ``P ← (P − Xᵀ X)/λ`` with ``X = L⁻¹ H_b P`` — via the shared
       :func:`repro.embedding.oselm.rank_k_update` (the k>1 form
       ``OSELM.partial_fit`` already implements; LAPACK ``dpotrf`` and
       ``dtrtrs`` called directly), re-symmetrizing ``P`` once per walk (a
       bitwise no-op while it is already symmetric);
    3. the per-context *sequential* gains come out of the same
       factorization (``K = P H_bᵀ L⁻ᵀ D⁻¹``, i.e. column *i* is exactly
       the gain the rank-1 recursion would have produced at step *i* —
       the plain batch gain ``P H_bᵀ S⁻¹`` would couple contexts through
       ``S⁻¹`` and break the sequential equivalence);
    4. all ``(1+ns)·n_pos·k`` scatter updates of the block land in one
       pass: the block's R *unique* rows come out of an O(k·S) remap
       through a node-indexed slot table (no sort), per-(row, context)
       error coefficients accumulate through one ``np.bincount``, then a
       single ``(R, k) @ (k, d)`` GEMM over those rows updates ``B`` (the
       GraphACT move — batch the redundant update arithmetic, do the heavy
       math once per node).

    Error analysis (the ``BLOCKED_RTOL`` contract)
        Within one block, the kernel differs from Algorithm 1's sequential
        semantics only through *staleness*: hidden rows and sample errors
        are read against the block-start ``B`` while the sequential loop
        would have seen up to k−1 preceding in-block updates.  Each
        in-block update moves a ``B`` row by ``‖k_i e‖ = O(µ·p0)`` (the
        gain is ``P H/(λ + HPHᵀ)`` with ``‖H‖ = µ‖B‖``), so

        * under ``"beta"`` tying a stale hidden row is off by
          ``µ·O(k·µ·p0) = O(µ²·k)``, and a stale error by
          ``H·ΔB = O(µ²·k)`` — the per-block drift is **O(µ²·k)**, first
          order in both staleness terms;
        * under ``"alpha"`` tying the hidden rows are exact (α is fixed),
          so on *duplicate-free* blocks (no node sampled in two contexts
          of the block — construct them with window 2) the kernel is
          **exact in exact arithmetic**: sequential gains (step 3) +
          unchanged errors; only floating-point reassociation of the
          linear algebra remains (pinned at ``BLOCKED_EXACT_RTOL``);
        * with one-context blocks every staleness term vanishes for *all*
          tyings — the solve degenerates to the scalar recursion — which
          the tests use to pin the analysis itself (sub-walk blocks through
          the private ``_train_oselm_blocked(..., block_contexts)``).

        Sliding windows overlap, so real walks always carry cross-context
        duplicates; at the paper's µ = 0.01 the compounded drift over a
        Table 2-scale corpus stays inside ``BLOCKED_RTOL["proposed"]``,
        the same order as the walk-deferral the paper itself licenses
        (Algorithm 2 / Figure 5, ≤1.09% accuracy cost — and Algorithm 2
        freezes *gains* too, which ``"blocked"`` does not).

    ``denominator="paper"`` has no block form (the literal line 5 deflates
    the gain denominator to ``hph``, which the SPD solve does not model) —
    those models train through their own per-context ``train_walk``,
    exactly as ``"reference"`` does given the same negatives.
    With ``forgetting_factor < 1`` the ``1/λ`` rescaling applies once per
    block rather than once per context (the same per-span treatment
    :class:`~repro.embedding.batch_rls.BatchRLSSkipGram` documents).

    A model may also *own* deferred semantics rather than borrow them from
    the backend: :class:`~repro.embedding.batch_rls.BatchRLSSkipGram`
    (``"batch_rls"``) defers its rank-k RLS update over a configurable
    ``defer_span`` that may legally cross walk boundaries.  Backends
    advertise whether they can feed such spans via
    :attr:`ExecBackend.spans_walks` (blocked stages whole context blocks
    → True; reference feeds one walk at a time → False), and
    ``train_chunk`` rejects a cross-walk ``defer_span`` on a walk-feeding
    backend up front with the registry-rendered
    :func:`cross_walk_span_error`.  At ``defer_span="walk"``/``1`` every
    backend accepts the model, and blocked executes its ``train_walk``
    verbatim — which is why ``BLOCKED_RTOL`` carries ``0.0`` for it; the
    cross-walk drift contract lives in ``BATCH_RLS_RTOL``.

Tolerance contract
------------------
``"blocked"`` differs from ``"reference"`` in two documented ways:

1. **Negative stream** — blocked draws the chunk's negatives in one bulk
   alias pass, so the RNG call pattern (and hence the sampled negatives)
   differs from the reference's per-walk draws.  The *distribution* is
   identical (same alias table, same stream).
2. **Arithmetic, given the same negatives** — ``BLOCKED_RTOL`` per model.
   The proposed model carries the O(µ²·k) block staleness ("Error
   analysis" above); its block kernel accumulates duplicate rows like the
   batched duplicate policy, so ``duplicate_policy="sequential"`` models
   get the batched arithmetic (the policies already agree to float
   tolerance; see ``OSELMSkipGram.duplicate_policy``).  ``SkipGramSGD``
   defers its updates to walk boundaries, so it drifts from the sequential
   reference by ``O(lr²)`` per window — the same order as the model's own
   documented in-context scatter accumulation, and the same walk-level
   deferral whose accuracy cost the paper measures for Algorithm 2
   (Figure 5, ≤1.09%).  Models that train through their own
   ``train_walk`` (dataflow, ``"block"``, ``batch_rls`` at walk spans, and
   ``denominator="paper"`` OS-ELM) are bit-identical.

``tests/embedding/test_blocked.py`` pins the arithmetic under *shared*
pre-drawn negatives (``BLOCKED_RTOL`` property tests, the alpha-tied
duplicate-free exactness, and the one-context-block degeneration);
``tests/embedding/test_kernels.py`` pins the registry and the bulk draw,
and the golden regressions stay pinned to ``"reference"``.

Registry
--------
``EXEC_REGISTRY`` maps backend names to classes and is the single source of
truth for the valid ``exec_backend`` strings (``EXEC_BACKENDS``), the
validation errors, and the rendered docs — adding a backend here exposes it
through ``WalkTrainer``, ``train_parallel``, ``api.train_embedding`` and
``api.train_dynamic``.
"""

from __future__ import annotations

# reprolint: kernel-module — hot-loop allocation and dtype discipline are
# enforced here (tools/reprolint; see README "Static analysis & typing")

import sys
from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from repro.embedding.batch_rls import BatchRLSSkipGram
from repro.embedding.dataflow import DataflowOSELMSkipGram
from repro.embedding.oselm import _work_buf, rank_k_update
from repro.embedding.sequential import OSELMSkipGram
from repro.embedding.skipgram import SkipGramSGD, _sigmoid
from repro.hw.opcount import OpCount
from repro.sampling.corpus import WalkContexts, check_window
from repro.sampling.negative import NegativeSampler
from repro.utils.validation import check_in_set

if TYPE_CHECKING:  # annotation-only: EmbeddingModel lives upstream of us
    from collections.abc import Iterable, Iterator

    from repro.embedding.base import EmbeddingModel

__all__ = [
    "BATCH_RLS_RTOL",
    "BLOCKED_EXACT_RTOL",
    "BLOCKED_RTOL",
    "EXEC_BACKENDS",
    "EXEC_REGISTRY",
    "BlockedKernel",
    "ChunkStats",
    "ExecBackend",
    "ReferenceKernel",
    "cross_walk_span_error",
    "default_negative_reuse",
    "make_backend",
    "resolve_backend",
]

#: Documented relative tolerance of ``"blocked"`` vs ``"reference"`` under
#: *shared* negatives, per model registry name (module docstring, "Error
#: analysis").  ``0.0`` means bit-identical by construction.
#: ``"proposed"`` carries the O(µ²·k)-per-block staleness of the rank-k RLS
#: solve and ``"original"`` the O(lr²)-per-window drift of its walk
#: deferral, each bounded at this rtol on Table 2-scale workloads at the
#: paper's µ = lr = 0.01; the deferred models train through their own
#: walk-vectorized updates.
BLOCKED_RTOL: dict[str, float] = {
    "original": 5e-2,
    "proposed": 1e-1,
    "dataflow": 0.0,
    "block": 0.0,
    # batch_rls clips spans at walk boundaries under every walk-feeding
    # comparison (defer_span="walk"/1 — the only settings "reference" can
    # run), where blocked executes the model's own train_walk verbatim
    "batch_rls": 0.0,
}

#: Floating-point headroom for the cases ``"blocked"`` reproduces *exactly
#: in exact arithmetic* (alpha-tied duplicate-free blocks; any tying with
#: one-context blocks): the Cholesky/GEMM reassociation leaves only
#: eps-level residue, far below any model tolerance.
BLOCKED_EXACT_RTOL = 1e-9

#: Documented drift of a cross-walk ``defer_span`` vs the ``"walk"``
#: degeneration of :class:`~repro.embedding.batch_rls.BatchRLSSkipGram`,
#: under *shared* per-context negatives (isolating the span-staleness
#: arithmetic from the draw policy).  Hidden rows and sample errors go
#: stale by O(µ²·k) per span — the ``"blocked"`` error analysis applied at
#: span scale — bounded at this rtol on Table 2-scale workloads at the
#: paper's µ = 0.01; the end-to-end accuracy cost is measured by
#: ``benchmarks/bench_batch_rls_accuracy.py`` (Fig-5-style, ≤2% AUC at
#: ``defer_span="chunk"``).
BATCH_RLS_RTOL = 1e-1


def cross_walk_span_error(defer_span: object, backend: object = None) -> str:
    """The rejection message for a cross-walk ``defer_span`` meeting a
    walk-feeding consumer, rendered from the registry docs.

    ``backend`` may be a registry name, an :class:`ExecBackend` instance,
    or ``None`` (a direct per-walk ``train_walk()`` caller).
    """
    capable = ", ".join(
        f'"{n}"' for n, c in EXEC_REGISTRY.items() if c.spans_walks
    )
    if backend is None:
        fed = "per-walk train_walk() feeding"
    else:
        name = backend if isinstance(backend, str) else backend.name
        cls = EXEC_REGISTRY.get(name)
        summary = cls.summary if cls is not None else getattr(backend, "summary", "")
        fed = f'exec_backend="{name}" ({summary})'
    return (
        f"defer_span={defer_span!r} defers the rank-k RLS update across "
        f"walk boundaries, but {fed} hands the model one walk at a time — "
        "a cross-walk span can never form.  Train through a span-aware "
        f"backend ({capable}), or use defer_span=\"walk\" (one span per "
        "walk, accepted everywhere) / defer_span=1 (Algorithm 1 exactly)."
    )


def default_negative_reuse(model: EmbeddingModel) -> str:
    """The model-dependent default negative-reuse policy: the dataflow model
    follows the FPGA's one-batch-per-walk policy [18]; ``batch_rls`` (and
    its ``"block"`` alias) shares one batch per deferred span
    (``"per_walk"`` — the span is its reuse unit — except at
    ``defer_span=1``, where span sharing *is* the per-context policy and
    the bit-identity with ``"proposed"`` goldens extends to the negative
    stream); everything else the CPU Algorithm 1 per-context policy."""
    if isinstance(model, BatchRLSSkipGram):
        return "per_context" if model.defer_span == 1 else "per_walk"
    return "per_walk" if isinstance(model, DataflowOSELMSkipGram) else "per_context"


@dataclass
class ChunkStats:
    """Accounting for one executed chunk (what ``WalkTrainer`` accumulates).

    ``n_walks`` counts walks that produced at least one context, matching
    the historical per-walk trainer; ``ops`` is the summed analytic op
    profile of those walks.
    """

    n_walks: int = 0
    n_contexts: int = 0
    ops: OpCount = field(default_factory=OpCount)


def _train_walks(
    model: EmbeddingModel, contexts: ChunkContexts, negatives: list[np.ndarray]
) -> None:
    """The model's own per-walk update, walk by walk."""
    for ctx, negs in zip(contexts, negatives, strict=True):
        model.train_walk(ctx, negs)


class ExecBackend:
    """Base class for chunk execution backends.

    A backend runs one chunk in three stages so that tests (and future
    backends) can intercept the negative draws:

    1. :func:`_context_blocks` — stage bounded blocks of walks as
       :class:`ChunkContexts`, one sliding-window pass per block (walks too
       short for the window drop out; :func:`prepare_contexts` is the
       one-shot form);
    2. :meth:`draw_negatives` — produce one ``(C_i, ns)`` negative array
       per remaining walk (this stage owns the sampler's RNG stream and is
       where the backends' draw patterns differ);
    3. :meth:`train_prepared` — the training arithmetic, given contexts and
       negatives.

    :meth:`train_chunk` composes the three and returns the
    :class:`ChunkStats`.  Training never consumes sampler RNG, so staging
    the draws before the arithmetic is bit-identical to interleaving them.

    Staging happens in internal blocks of at most :attr:`block_walks`
    walks, so peak memory is O(block) — never O(input): the sequential
    trainer hands ``train_chunk`` a whole epoch corpus, whose staged
    contexts, negatives and sample matrix (reused across blocks) are
    ~window·(1 + ns)× the walk bytes and must not all materialize at once
    on the edge deployments the repo targets.
    """

    #: registry name (set by subclasses)
    name: str = "?"
    #: one-line trade-off summary rendered into the API docs
    summary: str = ""
    #: walks staged (contexts extracted + negatives drawn) per internal
    #: block of one ``train_chunk`` call — the peak-memory bound.  The
    #: reference backend stages one walk at a time (the pre-kernel loop's
    #: exact memory profile); the blocked backend trades a bounded block for
    #: vectorization width.
    block_walks: int = 1
    #: whether this backend can execute model-owned deferral spans that
    #: cross walk boundaries (:class:`~repro.embedding.batch_rls.BatchRLSSkipGram`
    #: with a cross-walk ``defer_span``).  Walk-feeding backends
    #: (reference) hand the model one walk at a time, so
    #: :meth:`train_chunk` rejects such models up front with
    #: :func:`cross_walk_span_error`; the blocked backend stages a whole
    #: block of contexts and legally runs spans across it.
    spans_walks: bool = False

    def draw_negatives(
        self,
        sampler: NegativeSampler,
        contexts: ChunkContexts,
        ns: int,
        negative_reuse: str,
        model: EmbeddingModel | None = None,
    ) -> list[np.ndarray]:
        raise NotImplementedError

    def train_prepared(
        self,
        model: EmbeddingModel,
        contexts: ChunkContexts,
        negatives: list[np.ndarray],
    ) -> None:
        """Dispatch on the model; backends differ in the plain OS-ELM and
        SGD hooks, whose default is the model's own per-walk update."""
        # subclass checks first: the deferred models are OSELMSkipGram
        # subclasses with their own walk-vectorized updates
        if self.spans_walks and getattr(model, "defer_crosses_walks", False):
            _train_batch_rls_spans(model, contexts, negatives)
        elif isinstance(model, OSELMSkipGram) and not isinstance(
            model, (BatchRLSSkipGram, DataflowOSELMSkipGram)
        ):
            self._train_oselm(model, contexts, negatives)
        elif isinstance(model, SkipGramSGD):
            self._train_sgd(model, contexts, negatives)
        else:
            # batch_rls "walk"/1 spans clip at walk boundaries, where the
            # model's own train_walk IS the span — the same calls on every
            # backend, hence BLOCKED_RTOL["batch_rls"] = 0.0 (a cross-walk
            # span on a walk-feeding backend raises from train_walk)
            _train_walks(model, contexts, negatives)

    #: the plain OS-ELM and SGD chunk kernels: by default the models' own
    #: per-walk updates
    _train_oselm = staticmethod(_train_walks)
    _train_sgd = staticmethod(_train_walks)

    def train_chunk(
        self,
        model: EmbeddingModel,
        walks: Iterable[np.ndarray],
        sampler: NegativeSampler,
        *,
        window: int,
        ns: int,
        negative_reuse: str | None = None,
    ) -> ChunkStats:
        """Train ``model`` on one chunk of walks; returns the chunk stats.

        ``walks`` may be any iterable; it is consumed once, in blocks of
        :attr:`block_walks` (draw → train per block, so the sampler's RNG
        order is the per-block draw order).
        """
        if negative_reuse is None:
            negative_reuse = default_negative_reuse(model)
        check_in_set("negative_reuse", negative_reuse, ("per_walk", "per_context"))
        if getattr(model, "defer_crosses_walks", False) and not self.spans_walks:
            raise ValueError(cross_walk_span_error(model.defer_span, self))
        total = ChunkStats()
        for contexts in _context_blocks(walks, window, self.block_walks):
            negatives = self.draw_negatives(
                sampler, contexts, ns, negative_reuse, model=model
            )
            self.train_prepared(model, contexts, negatives)
            stats = chunk_stats(model, contexts, window, ns)
            total.n_walks += stats.n_walks
            total.n_contexts += stats.n_contexts
            total.ops = total.ops + stats.ops
        return total

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


@dataclass(frozen=True, eq=False)
class ChunkContexts:
    """One staging block's contexts as flat arrays: walk ``i`` owns rows
    ``offsets[i]:offsets[i + 1]`` of ``centers`` (T,) and ``positives``
    (T, w−1).  Iterating yields each walk's :class:`WalkContexts` (views),
    what the per-walk consumers take; the chunk kernels read the flat
    arrays directly."""

    centers: np.ndarray
    positives: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_walks(cls, walks: list[np.ndarray], window: int) -> ChunkContexts:
        """Every window of ``walks`` (each at least ``window`` long) in one
        sliding-window pass over their concatenation."""
        sizes = [len(w) for w in walks]
        if sizes and min(sizes) == max(sizes):
            # equal lengths (every walk of a chunk that no sink cut short):
            # context t of walk i is block[i, t : t + window], so each
            # positive column is one shifted slice of the (walks, length) block
            block = np.array(walks, dtype=np.int64)
            per_walk = sizes[0] - (window - 1)
            positives = np.empty((len(walks), per_walk, window - 1), dtype=np.int64)
            for j in range(window - 1):
                positives[:, :, j] = block[:, j + 1 : j + 1 + per_walk]
            return cls(
                block[:, :per_walk].reshape(-1),
                positives.reshape(-1, window - 1),
                np.arange(0, per_walk * len(walks) + 1, per_walk, dtype=np.int64),
            )
        lengths = np.array(sizes, dtype=np.int64)
        counts = lengths - (window - 1)
        offsets = np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))
        if not walks:
            return cls(offsets[:0], np.empty((0, window - 1), dtype=np.int64), offsets)
        flat = np.concatenate(walks, dtype=np.int64)
        # context t of walk i starts at walk i's start in flat + (t − offsets[i])
        shift = np.repeat(np.cumsum(lengths) - lengths - offsets[:-1], counts)
        starts = np.arange(offsets[-1]) + shift
        windows = np.lib.stride_tricks.sliding_window_view(flat, window)
        return cls(windows[starts, 0], windows[starts, 1:], offsets)

    @property
    def n(self) -> int:
        """Contexts over all walks."""
        return self.centers.shape[0]

    @property
    def counts(self) -> np.ndarray:
        """Contexts per walk."""
        return self.offsets[1:] - self.offsets[:-1]

    def split(self, rows: np.ndarray) -> list[np.ndarray]:
        """Per-walk views of a (T, …) array aligned with the contexts."""
        o = self.offsets.tolist()
        return [rows[lo:hi] for lo, hi in zip(o[:-1], o[1:])]

    def __len__(self) -> int:
        return self.offsets.shape[0] - 1

    def __iter__(self) -> Iterator[WalkContexts]:
        return map(WalkContexts, self.split(self.centers), self.split(self.positives))


def _context_blocks(
    walks: Iterable[np.ndarray], window: int, block_walks: int
) -> Iterator[ChunkContexts]:
    """Lazily yield blocks of ≤ ``block_walks`` walks' contexts, dropping
    context-free walks (too short for the window) exactly like the
    per-walk trainer did."""
    check_window(window)
    block: list[np.ndarray] = []
    for walk in walks:
        if len(walk) < window:
            continue
        block.append(walk)
        if len(block) >= block_walks:
            yield ChunkContexts.from_walks(block, window)
            block = []
    if block:
        yield ChunkContexts.from_walks(block, window)


def prepare_contexts(walks: Iterable[np.ndarray], window: int) -> ChunkContexts:
    """Every walk's contexts as one block (a single unbounded block of
    :func:`_context_blocks` — same extraction and short-walk dropping
    rule).  Used by tests and one-shot callers that want the staged arrays
    without the blocking."""
    for block in _context_blocks(walks, window, sys.maxsize):
        return block
    return ChunkContexts.from_walks([], window)


def chunk_stats(
    model: EmbeddingModel, contexts: ChunkContexts, window: int, ns: int
) -> ChunkStats:
    """Walk/context counts + summed analytic op profile for one chunk.

    Profiles depend only on the context count, so walks are grouped by
    their context count and each distinct profile is looked up once — the
    grouped sum keeps the op-count telemetry exact (profiles are
    integer-valued in float64) without a per-walk ``op_profile`` call.
    """
    ops = OpCount()
    for n, count in Counter(contexts.counts.tolist()).items():
        ops = ops + count * _op_profile(type(model), model.dim, n, window - 1, ns)
    return ChunkStats(n_walks=len(contexts), n_contexts=contexts.n, ops=ops)


@lru_cache(maxsize=1024)
def _op_profile(
    cls: type[EmbeddingModel], dim: int, n_contexts: int, n_positives: int, ns: int
) -> OpCount:
    """``cls.op_profile``, memoized: a profile is a pure function of its
    arguments (a classmethod) and an :class:`OpCount` is immutable."""
    return cls.op_profile(dim, n_contexts, n_positives, ns)


class ReferenceKernel(ExecBackend):
    """The historical per-context loop, bit-identical to the pre-kernel
    ``WalkTrainer``: per walk, one ``sample_for_walk`` draw and one
    ``model.train_walk`` call, in corpus order."""

    name = "reference"
    summary = (
        "per-walk loop, bit-identical to the historical trainer "
        "(the golden-regression baseline)"
    )

    def draw_negatives(
        self,
        sampler: NegativeSampler,
        contexts: ChunkContexts,
        ns: int,
        negative_reuse: str,
        model: EmbeddingModel | None = None,
    ) -> list[np.ndarray]:
        return [
            sampler.sample_for_walk(ctx.n, ns, reuse=negative_reuse)
            for ctx in contexts
        ]


def _stage_negatives(
    model: OSELMSkipGram, chunk: ChunkContexts, negatives: list[np.ndarray]
) -> np.ndarray:
    """A chunk's negatives as one (T, ns) int64 array, with
    :meth:`~repro.embedding.base.EmbeddingModel._check_walk_inputs` run
    once per chunk: the same conditions and messages, every walk checked
    before any is trained."""
    counts = chunk.counts.tolist()
    for n, negs in zip(counts, negatives, strict=True):
        shape = np.shape(negs)
        if len(shape) != 2 or shape[0] != n:
            raise ValueError(f"negatives must be (n_contexts={n}, ns), got {shape}")
    ns = np.shape(negatives[0])[1] if counts else 0
    flat = _work_buf(model._work, "negatives", (chunk.n, ns), np.int64)
    if counts:
        np.concatenate(negatives, out=flat)
    model._check_ids(
        centers=chunk.centers, positives=chunk.positives, negatives=flat
    )
    return flat


def _stage_samples(
    model: OSELMSkipGram, chunk: ChunkContexts, negatives: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Every context's samples ``[positives, tile(negatives, J)]`` as one
    (T, S) matrix, with the (S,) targets all contexts share."""
    J, ns = chunk.positives.shape[1], negatives.shape[1]
    samples = _work_buf(model._work, "samples", (chunk.n, J * (1 + ns)), np.int64)
    samples[:, :J] = chunk.positives
    for j in range(J):
        samples[:, J + j * ns : J + (j + 1) * ns] = negatives
    targets = np.zeros(J * (1 + ns), dtype=np.float64)
    targets[:J] = 1.0
    return samples, targets


def _train_sgd_blocked(
    model: SkipGramSGD, chunk: ChunkContexts, negatives: list[np.ndarray]
) -> None:
    """SGD skip-gram with weights frozen at each walk's start.

    Per walk, every window's forward pass runs in two einsum batches
    against the walk-start ``(W_in, W_out)``; gradients accumulate through
    three ``np.add.at`` scatters applied once per walk.  Each negative is
    trained once per window in the reference, so its frozen-weight
    contribution scales by the window count ``J`` — the same treatment the
    dataflow model applies to Algorithm 1.  Drift vs the sequential
    reference is ``O(lr²)`` per window (see ``BLOCKED_RTOL``).
    """
    w_in, w_out = model.w_in, model.w_out
    lr, d = model.lr, model.dim
    for ctx, negs in zip(chunk, negatives, strict=True):
        negs = model._check_walk_inputs(ctx, negs)
        centers, positives = ctx.centers, ctx.positives
        J = positives.shape[1]
        h = w_in[centers]  # (C, d), frozen at walk start
        pos_rows = w_out[positives]  # (C, J, d)
        neg_rows = w_out[negs]  # (C, ns, d)
        g_pos = lr * (1.0 - _sigmoid(np.einsum("cjd,cd->cj", pos_rows, h)))
        g_neg = -lr * _sigmoid(np.einsum("ckd,cd->ck", neg_rows, h))
        grad_h = np.einsum("cj,cjd->cd", g_pos, pos_rows) + float(J) * np.einsum(
            "ck,ckd->cd", g_neg, neg_rows
        )
        np.add.at(
            w_out, positives.ravel(), (g_pos[:, :, None] * h[:, None, :]).reshape(-1, d)
        )
        np.add.at(
            w_out,
            negs.ravel(),
            (float(J) * g_neg[:, :, None] * h[:, None, :]).reshape(-1, d),
        )
        np.add.at(w_in, centers, grad_h)


def _train_batch_rls_spans(
    model: BatchRLSSkipGram,
    chunk: ChunkContexts,
    negatives: list[np.ndarray],
) -> None:
    """One staged block of a cross-walk-deferred ``batch_rls`` model.

    The block's flat context stream advances the RLS state one rank-k span
    (:meth:`~repro.embedding.batch_rls.BatchRLSSkipGram.train_span`) per
    ``defer_span`` contexts — ``"chunk"`` makes the whole staged block a
    single span, the maximal-GEMM setting.  The per-span negative rows
    arrive pre-shared from :meth:`BlockedKernel.draw_negatives` (one draw
    per span).
    """
    negs = _stage_negatives(model, chunk, negatives)
    total = chunk.n
    if not total:  # every walk too short for a single context
        return
    span = total if model.defer_span == "chunk" else int(model.defer_span)
    for lo in range(0, total, span):
        hi = min(lo + span, total)
        model.train_span(chunk.centers[lo:hi], chunk.positives[lo:hi], negs[lo:hi])
    model.n_walks_trained += len(chunk)


def _train_oselm_blocked(
    model: OSELMSkipGram,
    chunk: ChunkContexts,
    negatives: list[np.ndarray],
    block_contexts: int | None = None,
) -> None:
    """One chunk of Algorithm 1 executed in rank-k RLS blocks.

    The chunk is staged once (:func:`_stage_negatives`,
    :func:`_stage_samples`); then each block (≤ ``block_contexts``
    contexts, never crossing a walk; ``None``, what :class:`BlockedKernel`
    runs, makes each walk one block; the tests use smaller blocks to pin
    the error analysis) gathers its hidden rows against block-start ``B``,
    runs one Woodbury solve (:func:`repro.embedding.oselm.rank_k_update`)
    with *sequential* gains, computes every sample error against
    block-start ``B`` and reduces the ``(1+ns)·n_pos·k`` scatter updates to
    one ``np.bincount`` of per-(row, context) coefficients plus one
    ``(R, k) @ (k, d)`` GEMM over the block's R unique rows (see the module
    docstring for the exactness/drift contract).
    """
    if model.denominator != "standard":
        # literal Algorithm 1 line 5 (denom = hph) has no SPD block form —
        # those models keep their own per-context recursion
        _train_walks(model, chunk, negatives)
        return
    negs = _stage_negatives(model, chunk, negatives)
    samples, targets = _stage_samples(model, chunk, negs)
    S = samples.shape[1]
    B, P = model.B, model.P
    lam = model.forgetting_factor
    work = model._work
    kmax = int(chunk.counts.max(initial=0))
    # node-indexed slot table of the row remap: every entry a block reads
    # was written by that block, so it is never reset
    slot = _work_buf(work, "slot", (model.n_nodes,), np.int64)
    pos = np.arange(kmax * S)
    cols = np.arange(kmax)[:, None]
    sym = _work_buf(work, "sym", P.shape, np.float64)
    offsets = chunk.offsets.tolist()
    for lo, hi in zip(offsets[:-1], offsets[1:]):
        step = hi - lo if block_contexts is None else block_contexts
        for a in range(lo, hi, step):
            b = min(a + step, hi)
            k = b - a
            H = model.hidden_batch(
                chunk.centers[a:b], out=_work_buf(work, "H", (k, model.dim))
            )
            # P update + per-context sequential gains, one Cholesky solve
            K = rank_k_update(P, H, lam=lam, gain="sequential", work=work)
            s = samples[a:b]  # (k, S)
            # the block's R distinct rows and each slot's index into them,
            # through the node-indexed slot table — O(k·S), no sort: every
            # id's entry first takes one of its positions (the last write
            # wins), and the positions that won are the distinct rows
            flat = s.ravel()
            m = flat.shape[0]
            slot[flat] = pos[:m]
            rows = flat[slot[flat] == pos[:m]]
            R = rows.shape[0]
            slot[rows] = pos[:R]
            # every slot's (row, context) pair, flat in (R, k) layout
            idx = slot[s]
            idx *= k
            idx += cols[:k]
            # errors against block-start B.  Two equivalent contractions;
            # the (deterministic, shape-only) branch picks the cheaper one:
            # duplicate-heavy blocks (small graphs: R ≪ k·S) predict once
            # per unique row and pick the (row, context) pairs out, while
            # duplicate-light blocks (large graphs: R ≈ k·S) contract each
            # slot directly — the unique-row GEMM would compute k
            # predictions per row and discard k−1 of them.
            Br = B[rows]  # (R, d)
            if 3 * R <= k * S:
                E = targets - np.take(Br @ H.T, idx)
            else:
                E = targets - np.einsum("ksd,kd->ks", B[s], H)
            # one scatter pass: per-(row, context) coefficients via
            # bincount, then a single GEMM over the block's unique rows
            # lands every update (duplicates accumulate, matching the
            # batched duplicate policy)
            M = np.bincount(idx.ravel(), weights=E.ravel(), minlength=R * k)
            Br += M.reshape(R, k) @ K.T
            B[rows] = Br
        # square-root downdates keep P symmetric by construction;
        # re-symmetrize once per walk so eps-level GEMM residue cannot
        # compound (bitwise no-op while P is already symmetric)
        np.add(P, P.T, out=sym)
        np.multiply(sym, 0.5, out=P)
    model.n_walks_trained += len(chunk)


class BlockedKernel(ExecBackend):
    """Bulk negative draws plus walk-deferred chunk kernels: rank-k blocked
    RLS for the OS-ELM family, frozen-weight batches for SGD (see module
    docstring for the block algorithm and the ``BLOCKED_RTOL`` error
    analysis).

    A block is always one walk — the paper's Algorithm 2 deferral
    boundary.  Algorithm 1's recursion, the negative batch and the
    walk-start gather are all per-walk, so a cross-walk block would change
    the *model*, not the arithmetic; cross-walk deferral is the
    ``batch_rls`` model's ``defer_span``.
    """

    name = "blocked"
    summary = (
        "bulk negative draw + rank-k Woodbury block solves for the OS-ELM "
        "RLS recursion (sequential gains, one scatter pass per block) and "
        "walk-batched SGD (documented O(mu^2*k) / O(lr^2) drift vs reference)"
    )
    #: bulk-draw/staging width: big enough that the draw and the kernel
    #: dispatch amortize (pipeline chunks are typically ≤ this, so one
    #: block == one chunk), small enough that a whole-corpus call — a
    #: buffered ``"corpus"`` epoch — stays O(block) memory
    block_walks = 1024
    #: blocked stages a whole block of contexts, so model-owned cross-walk
    #: deferral spans are legal here (module docstring, "batch_rls")
    spans_walks = True

    def draw_negatives(
        self,
        sampler: NegativeSampler,
        contexts: ChunkContexts,
        ns: int,
        negative_reuse: str,
        model: EmbeddingModel | None = None,
    ) -> list[np.ndarray]:
        total = contexts.n
        if negative_reuse == "per_context":
            rows, row_of = total, np.arange(total)
        elif getattr(model, "defer_crosses_walks", False):
            # one shared batch per *deferral span* (GraphACT-style
            # amortization): the span is the batch_rls model's reuse unit,
            # so "per_walk" reads as per-span for cross-walk spans
            span = total if model.defer_span == "chunk" else int(model.defer_span)
            rows, row_of = (total + span - 1) // span, np.arange(total) // span
        else:  # one row per walk, shared by its contexts
            rows = len(contexts)
            row_of = np.repeat(np.arange(rows), contexts.counts)
        return contexts.split(sampler.draw_batch(rows, ns)[row_of])

    _train_oselm = staticmethod(_train_oselm_blocked)
    _train_sgd = staticmethod(_train_sgd_blocked)


#: Single source of truth for the valid ``exec_backend`` strategies: the
#: trainer's validation, the API docs and the tests all render from this
#: registry (the ``SOURCE_REGISTRY`` pattern, applied to execution).
EXEC_REGISTRY: dict[str, type[ExecBackend]] = {
    cls.name: cls
    for cls in (ReferenceKernel, BlockedKernel)
}

#: Valid ``exec_backend`` names, in registry order.
EXEC_BACKENDS = tuple(EXEC_REGISTRY)


def make_backend(name: str) -> ExecBackend:
    """Instantiate an execution backend by registry name."""
    check_in_set("exec_backend", name, EXEC_BACKENDS)
    return EXEC_REGISTRY[name]()


def resolve_backend(spec: str | ExecBackend) -> ExecBackend:
    """Normalize an ``exec_backend`` argument: a registry name becomes a
    fresh instance; an already-constructed :class:`ExecBackend` is used
    as-is, so callers can pass a subclass of a registered backend (a
    tracer that times the chunk stages, a test double that records the
    draws).  Backends hold no per-run state, so instances are safely
    reusable."""
    if isinstance(spec, ExecBackend):
        return spec
    if isinstance(spec, str):
        return make_backend(spec)
    raise TypeError(
        "exec_backend must be an ExecBackend instance or one of "
        f"{EXEC_BACKENDS}, got {spec!r}"
    )
