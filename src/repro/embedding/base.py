"""Common interface for the paper's embedding models.

All three trainable models (the SGD skip-gram baseline, the proposed OS-ELM
skip-gram of Algorithm 1, and its dataflow variant of Algorithm 2) consume
the same unit of work: *one random walk*, already partitioned into contexts
(:class:`repro.sampling.corpus.WalkContexts`) with pre-drawn negatives — the
same division of labor as the paper's board: the PS (host CPU) samples walks
and negatives, the PL (accelerator) trains on them.
"""

from __future__ import annotations

import abc
from typing import TYPE_CHECKING

import numpy as np

from repro.hw.opcount import OpCount
from repro.sampling.corpus import WalkContexts
from repro.utils.validation import check_in_set

if TYPE_CHECKING:  # runtime imports would cycle through the kernel layer
    from collections.abc import Iterable

    from repro.embedding.kernels import ChunkStats, ExecBackend
    from repro.sampling.negative import NegativeSampler

__all__ = ["EmbeddingModel", "check_exec_backend"]


def check_exec_backend(name: str) -> None:
    """Validate an ``exec_backend`` registry name (lazy import: the kernel
    layer dispatches on the concrete model classes, which import this
    module)."""
    from repro.embedding.kernels import EXEC_BACKENDS

    check_in_set("exec_backend", name, EXEC_BACKENDS)


class EmbeddingModel(abc.ABC):
    """A trainable node-embedding model.

    Subclasses must maintain:

    * ``n_nodes`` / ``dim`` — the embedding geometry;
    * :attr:`embedding` — an (n_nodes, dim) float array, read at any time;
    * :meth:`train_walk` — consume one walk's contexts + negatives.

    :meth:`train_chunk` is provided: it routes a chunk of raw walks through
    the execution-backend layer (:mod:`repro.embedding.kernels`), defaulting
    to the ``"reference"`` backend, which preserves the per-walk loop above
    bit-identically.  :attr:`exec_backend` is the model's preferred backend
    name — it travels with checkpoints so a restored model keeps training
    the way it was trained.
    """

    n_nodes: int
    dim: int
    #: preferred execution backend (a :data:`repro.embedding.kernels.EXEC_REGISTRY`
    #: name); recorded by :mod:`repro.checkpoint` and used when
    #: :meth:`train_chunk` (or a trainer) is not given an explicit backend
    exec_backend: str = "reference"

    @property
    @abc.abstractmethod
    def embedding(self) -> np.ndarray:
        """Current (n_nodes, dim) embedding matrix (a copy or read-only)."""

    @abc.abstractmethod
    def train_walk(self, contexts: WalkContexts, negatives: np.ndarray) -> None:
        """Train on one random walk.

        Parameters
        ----------
        contexts:
            the walk's sliding-window contexts.
        negatives:
            (n_contexts, ns) pre-drawn negative nodes, one row per context
            (rows may be identical under the FPGA's per-walk reuse policy).
        """

    @classmethod
    @abc.abstractmethod
    def op_profile(
        cls, dim: int, n_contexts: int, n_positives: int, n_negatives: int
    ) -> OpCount:
        """Analytic per-walk operation counts (see :mod:`repro.hw.opcount`).

        ``n_positives`` is the positives per context (w − 1); ``n_negatives``
        is ns per window.  Used by the CPU timing models for Tables 3/4.
        """

    @abc.abstractmethod
    def state_bytes(self, *, weight_bytes: int | None = None) -> int:
        """Model size in bytes (Table 5 accounting)."""

    # ------------------------------------------------------------------ #

    def train_chunk(
        self,
        walks: Iterable[np.ndarray],
        sampler: NegativeSampler,
        *,
        window: int = 8,
        ns: int = 10,
        negative_reuse: str | None = None,
        backend: str | ExecBackend | None = None,
    ) -> ChunkStats:
        """Train on one chunk of raw walks through the kernel layer.

        Parameters
        ----------
        walks:
            iterable of int64 walk arrays (one pipeline chunk, or any
            corpus slice).
        sampler:
            the :class:`~repro.sampling.negative.NegativeSampler` to draw
            negatives from.
        window, ns:
            sliding-window size and negatives per window (Table 2 defaults).
        negative_reuse:
            ``"per_context"`` / ``"per_walk"``; ``None`` picks the
            model-dependent default (dataflow → per_walk).
        backend:
            an :data:`~repro.embedding.kernels.EXEC_REGISTRY` name
            (``"reference"`` | ``"blocked"``) or
            :class:`~repro.embedding.kernels.ExecBackend` instance; ``None``
            uses :attr:`exec_backend` (default ``"reference"``, which is
            bit-identical to looping :meth:`train_walk`).  Unlike a
            trainer-level override, an explicit ``backend`` here never
            mutates the model's preference.

        Returns
        -------
        :class:`~repro.embedding.kernels.ChunkStats` with the chunk's walk
        and context counts plus the summed analytic op profile.
        """
        from repro.embedding.kernels import resolve_backend  # lazy: avoid cycle

        kernel = resolve_backend(self.exec_backend if backend is None else backend)
        return kernel.train_chunk(
            self, walks, sampler, window=window, ns=ns, negative_reuse=negative_reuse
        )

    def embedding_view(self) -> np.ndarray | None:
        """The current embedding as a **read-only zero-copy view**, or None.

        The serving-store publish path (:meth:`repro.store.base.EmbeddingStore.publish`)
        prefers this over :attr:`embedding` because the property contract
        allows (and our models use) a defensive full-table copy per read —
        exactly the cost a per-epoch publish hook must not pay.  The view
        aliases live training state: it is only valid to *read, then
        drop* (the store's per-shard compare/write consumes it within the
        publish call).  Models whose embedding is derived rather than
        stored return None and the publisher falls back to
        :attr:`embedding`, counting a full-table copy in the telemetry.
        """
        return None

    def _check_walk_inputs(
        self, contexts: WalkContexts, negatives: np.ndarray
    ) -> np.ndarray:
        negatives = np.asarray(negatives, dtype=np.int64)
        if negatives.ndim != 2 or negatives.shape[0] != contexts.n:
            raise ValueError(
                f"negatives must be (n_contexts={contexts.n}, ns), got {negatives.shape}"
            )
        self._check_ids(
            centers=contexts.centers, positives=contexts.positives,
            negatives=negatives,
        )
        return negatives

    def _check_ids(self, **arrays: np.ndarray) -> None:
        for name, arr in arrays.items():
            if arr.size and (arr.min() < 0 or arr.max() >= self.n_nodes):
                raise ValueError(f"{name} contain out-of-range node ids")
