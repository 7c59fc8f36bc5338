"""Training loops: walk corpus → trained embedding.

Mirrors the paper's board-level division of labor (§3.2): the host samples
random walks and negatives (PS side), the model consumes one walk at a time
(PL side).  The trainer also accumulates the op-count telemetry used by the
CPU timing models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.embedding.base import EmbeddingModel
from repro.embedding.batch_rls import BatchRLSSkipGram
from repro.embedding.dataflow import DataflowOSELMSkipGram
from repro.embedding.kernels import EXEC_REGISTRY, default_negative_reuse, resolve_backend
from repro.embedding.sequential import OSELMSkipGram
from repro.embedding.skipgram import SkipGramSGD
from repro.graph.csr import CSRGraph
from repro.hw.opcount import OpCount
from repro.sampling.negative import NegativeSampler
from repro.sampling.walks import Node2VecWalker
from repro.utils.blas import limit_blas_threads
from repro.utils.rng import as_generator, draw_seed
from repro.utils.validation import check_in_set, check_positive

__all__ = ["TrainingResult", "WalkTrainer", "make_model", "train_on_graph"]

#: Model names → classes.  ``"block"`` (exact per-walk block RLS) is
#: ``"batch_rls"`` at its default ``defer_span="walk"``: one rank-C solve
#: per walk against the walk-start state, one shared negative batch per walk.
MODEL_REGISTRY = {
    "original": SkipGramSGD,
    "proposed": OSELMSkipGram,
    "dataflow": DataflowOSELMSkipGram,
    "block": BatchRLSSkipGram,
    "batch_rls": BatchRLSSkipGram,
}


def make_model(
    name: str, n_nodes: int, dim: int, *, seed=None, **kwargs
) -> EmbeddingModel:
    """Instantiate a model by registry name, forwarding extra keyword
    arguments.

    Names: {names}.
    """
    check_in_set("model", name, tuple(MODEL_REGISTRY))
    return MODEL_REGISTRY[name](n_nodes, dim, seed=seed, **kwargs)


# rendered from the registry so the docstring cannot drift from it
if make_model.__doc__:  # pragma: no branch - absent only under python -OO
    make_model.__doc__ = make_model.__doc__.replace(
        "{names}", " | ".join(f"'{name}'" for name in MODEL_REGISTRY)
    )


@dataclass
class TrainingResult:
    """Outcome of a training run.

    ``telemetry`` is ``None`` for the sequential path; the pipelined
    :func:`repro.parallel.train_parallel` attaches its per-stage
    :class:`repro.parallel.PipelineTelemetry` here.

    ``store`` is the live :class:`repro.store.base.EmbeddingStore` the run
    published epoch versions into (``None`` when no ``store=`` was
    requested).  The caller owns it — serve from it, then ``close()`` it.
    """

    model: EmbeddingModel
    embedding: np.ndarray
    n_walks: int
    n_contexts: int
    ops: OpCount
    hyper: "object" = None
    telemetry: "object" = None
    store: "object" = None

    def __repr__(self) -> str:
        return (
            f"TrainingResult(model={type(self.model).__name__}, "
            f"n_walks={self.n_walks}, n_contexts={self.n_contexts})"
        )


class WalkTrainer:
    """Feeds walks into a model with the paper's negative-sampling policies.

    Parameters
    ----------
    model:
        any :class:`EmbeddingModel`.
    window:
        sliding-window size w (Table 2: 8).
    ns:
        negatives per window (Table 2: 10).
    negative_reuse:
        ``"per_context"`` (the CPU Algorithm 1 policy) or ``"per_walk"``
        (the FPGA policy, one batch per walk [18]).  Defaults depend on the
        model (:func:`~repro.embedding.kernels.default_negative_reuse`):
        dataflow, block and batch_rls → per_walk, others → per_context.
    exec_backend:
        chunk-execution backend for :meth:`train_corpus` — an
        :data:`repro.embedding.kernels.EXEC_REGISTRY` name
        (``"reference"`` | ``"blocked"``) or an
        :class:`~repro.embedding.kernels.ExecBackend` instance (e.g. a
        subclass of a registered backend).  ``None`` (default) uses the model's own :attr:`~EmbeddingModel.exec_backend`
        preference; an explicit *registry name* also sets that preference,
        so a checkpoint taken after training records the backend that
        actually trained the model (a registry-named *instance* records its
        name too, though construction knobs stay per-run; custom
        unregistered instances train the run but are not recorded — their
        names mean nothing to the registry or a checkpoint loader).
    """

    def __init__(
        self,
        model: EmbeddingModel,
        *,
        window: int = 8,
        ns: int = 10,
        negative_reuse: str | None = None,
        exec_backend: str | None = None,
    ):
        check_positive("window", window, integer=True)
        if window < 2:
            raise ValueError("window must be >= 2")
        check_positive("ns", ns, integer=True)
        self.model = model
        self.window = int(window)
        self.ns = int(ns)
        if negative_reuse is None:
            negative_reuse = default_negative_reuse(model)
        check_in_set("negative_reuse", negative_reuse, ("per_walk", "per_context"))
        self.negative_reuse = negative_reuse
        self.backend = resolve_backend(
            model.exec_backend if exec_backend is None else exec_backend
        )
        self.exec_backend = self.backend.name
        if exec_backend is not None and self.backend.name in EXEC_REGISTRY:
            # record the run's backend as the model preference (checkpoints
            # carry it) — but only for registry names: a custom ExecBackend
            # instance has no name the registry (or a checkpoint loader)
            # could resolve, so it must not poison the model's preference
            model.exec_backend = self.backend.name
        self.n_walks = 0
        self.n_contexts = 0
        self.ops = OpCount()
        # the chunk kernels' GEMMs are d wide; extra BLAS threads only spin
        # on cores the walk workers need.  scipy.linalg is imported by now
        # (the OS-ELM models' triangular solves), so its pool is covered too.
        #: OpenBLAS threads this process trains with (0: no OpenBLAS loaded)
        self.blas_threads = limit_blas_threads()

    def train_walk(self, walk: np.ndarray, sampler: NegativeSampler) -> int:
        """Partition one walk and train; returns the context count.

        A one-walk chunk through the configured :attr:`backend` — under
        ``"reference"`` this is bit-identical to the historical inline loop
        (per-walk draws), and under ``"blocked"`` the walk runs through the
        same chunk kernel ``train_corpus`` would use, so walk-by-walk
        drivers (the dynamic baselines, incremental deployments) train with
        the semantics the trainer — and any checkpoint — records.
        """
        return self.train_corpus((walk,), sampler)

    def train_corpus(self, walks, sampler: NegativeSampler) -> int:
        """Train on any iterable of walks — a full buffered corpus, one
        pipeline chunk, or a lazy stream; returns the contexts trained.

        The chunk is executed by the trainer's :attr:`backend`
        (:mod:`repro.embedding.kernels`): ``"reference"`` reproduces the
        historical per-walk loop bit-identically; ``"blocked"`` runs the
        vectorized chunk kernels (bulk negative draw, rank-k RLS block
        solves for the OS-ELM family, batched per-walk SGD updates;
        documented tolerance).  The trainer keeps no per-corpus state, so
        callers may invoke this once per streamed chunk; under
        ``"reference"`` the result is bit-identical to one call over the
        concatenation (per-walk draws), while ``"blocked"`` draws each
        call's negatives in one bulk pass, so its negative stream — like
        :class:`~repro.sampling.sources.DecayedSource`'s fold schedule — is
        pinned to the chunking it was trained with.
        """
        stats = self.backend.train_chunk(
            self.model,
            walks,
            sampler,
            window=self.window,
            ns=self.ns,
            negative_reuse=self.negative_reuse,
        )
        self.n_walks += stats.n_walks
        self.n_contexts += stats.n_contexts
        self.ops = self.ops + stats.ops
        return stats.n_contexts

    def result(self, hyper=None, telemetry=None, store=None) -> TrainingResult:
        return TrainingResult(
            model=self.model,
            embedding=self.model.embedding,
            n_walks=self.n_walks,
            n_contexts=self.n_contexts,
            ops=self.ops,
            hyper=hyper,
            telemetry=telemetry,
            store=store,
        )


def train_on_graph(
    graph: CSRGraph,
    *,
    dim: int = 32,
    model: str | EmbeddingModel = "proposed",
    hyper=None,
    epochs: int = 1,
    negative_power: float = 0.75,
    exec_backend: str | None = None,
    seed=None,
    **model_kwargs,
) -> TrainingResult:
    """End-to-end training: walks (Table 2 policy) → negatives → model.

    ``hyper`` is a :class:`repro.experiments.hyper.Node2VecParams` (or None
    for the paper's defaults).  ``model`` may be a registry name or an
    already-built :class:`EmbeddingModel`.  ``exec_backend`` selects the
    chunk-execution kernel (``"reference"`` | ``"blocked"``, see
    :mod:`repro.embedding.kernels`); ``None`` follows the model's own
    preference (``"reference"`` unless restored from a checkpoint that says
    otherwise).
    """
    from repro.experiments.hyper import Node2VecParams  # local: avoid cycle

    check_positive("epochs", epochs, integer=True)
    hp = hyper or Node2VecParams()
    rng = as_generator(seed)

    if isinstance(model, str):
        model = make_model(
            model, graph.n_nodes, dim, seed=draw_seed(rng), **model_kwargs
        )
    elif model_kwargs:
        raise ValueError("model_kwargs only apply when model is a registry name")

    walker = Node2VecWalker(graph, hp.walk_params(), seed=draw_seed(rng))
    trainer = WalkTrainer(model, window=hp.w, ns=hp.ns, exec_backend=exec_backend)
    sampler: NegativeSampler | None = None
    for _ in range(epochs):
        walks = walker.simulate()
        if sampler is None:
            # frequency over the entire RW, as in §3.1
            sampler = NegativeSampler.from_walks(
                walks, graph.n_nodes, power=negative_power, seed=draw_seed(rng)
            )
        trainer.train_corpus(walks, sampler)
    return trainer.result(hyper=hp)
