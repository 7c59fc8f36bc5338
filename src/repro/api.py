"""Top-level convenience API.

Most users want exactly one thing: *graph in, embedding out*.  These wrappers
bundle the walk corpus, model construction and training loop behind one call;
everything they do can also be done piecewise via ``repro.sampling`` and
``repro.embedding`` (see examples/quickstart.py).  ``train_dynamic`` is the
growing-graph counterpart: edge replay in, adapted embedding out, streamed
through the same parallel pipeline.  ``serve_embedding`` is the read side:
any trained table (or a live :class:`~repro.store.base.EmbeddingStore` a
training run published into) behind the async query front end of
:mod:`repro.serving`.

Imports of the genuinely heavy subpackages (the scipy-backed evaluation
stack, experiments, fpga) happen lazily so that ``import repro`` stays
cheap.  One deliberate exception: rendering the ``negative_source`` /
``exec_backend`` / ``store`` documentation from their registries pulls the
pure-Python sampling/store modules at import time (~10 ms, an order of
magnitude below the unavoidable NumPy import) — the price of docs that
can never drift from the validated registries.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

import numpy as np

from repro.embedding.kernels import EXEC_REGISTRY
from repro.sampling.sources import SOURCE_REGISTRY
from repro.store import STORE_REGISTRY

if TYPE_CHECKING:  # annotation-only: the heavy layers stay lazily imported
    from repro.dynamic import ScenarioResult
    from repro.embedding.trainer import TrainingResult
    from repro.experiments.hyper import Node2VecParams
    from repro.graph.csr import CSRGraph
    from repro.sampling.sources import NegativeSource
    from repro.serving import EmbeddingService
    from repro.store import EmbeddingStore
    from repro.utils.rng import SeedLike

__all__ = [
    "train_embedding",
    "train_dynamic",
    "quick_embedding",
    "serve_embedding",
]

#: the ``negative_source`` section of the docstrings, rendered from the
#: registry so the documented set can never drift from the validated one
_SOURCE_DOC = "\n".join(
    f"        * ``\"{name}\"`` — {cls.summary}." for name, cls in SOURCE_REGISTRY.items()
)

#: same contract for ``exec_backend``, rendered from the kernel registry
_BACKEND_DOC = "\n".join(
    f"        * ``\"{name}\"`` — {cls.summary}." for name, cls in EXEC_REGISTRY.items()
)

#: and for the ``store`` serving backends, rendered from ``STORE_REGISTRY``
_STORE_DOC = "\n".join(
    f"        * ``\"{name}\"`` — {cls.summary}." for name, cls in STORE_REGISTRY.items()
)


def _passed(**knobs: Any) -> dict[str, Any]:
    """The knobs the caller actually set (``None`` = not passed), so only
    those are forwarded and the callee's own defaults apply to the rest."""
    return {name: value for name, value in knobs.items() if value is not None}


def train_embedding(
    graph: CSRGraph,
    *,
    dim: int = 32,
    model: str = "proposed",
    hyper: Node2VecParams | None = None,
    epochs: int = 1,
    n_workers: int = 0,
    negative_source: str | NegativeSource | None = None,
    negative_power: float | None = None,
    transport: str | None = None,
    chunk_size: int | None = None,
    exec_backend: str | None = None,
    store: str | EmbeddingStore | None = None,
    seed: SeedLike = None,
    **model_kwargs: Any,
) -> TrainingResult:
    """Train a node embedding on ``graph``.

    Parameters
    ----------
    graph:
        a :class:`repro.graph.CSRGraph`.
    dim:
        embedding dimensionality (the paper evaluates 32/64/96).
    model:
        ``"proposed"`` — OS-ELM skip-gram, Algorithm 1 (the paper's model);
        ``"dataflow"`` — Algorithm 2 semantics (per-walk deferred updates,
        what the FPGA executes);
        ``"block"`` — exact per-walk block RLS (our stable deferred
        variant): ``"batch_rls"`` at its default ``defer_span="walk"``;
        ``"batch_rls"`` — span-deferred rank-k RLS with one shared negative
        batch per span; its ``defer_span`` model knob (``"walk"`` | int |
        ``"chunk"``) may legally cross walk boundaries under the
        span-aware ``"blocked"`` backend — the chunk-wide
        GEMM setting (and this family's raw-speed ceiling);
        ``"original"`` — the SGD skip-gram baseline.
    hyper:
        a :class:`repro.experiments.hyper.Node2VecParams`; defaults to the
        paper's Table 2 values (p=0.5, q=1.0, r=10, l=80, w=8, ns=10).
    epochs:
        number of passes over the walk corpus.
    n_workers:
        walk workers of the streaming pipeline
        (:func:`repro.parallel.train_parallel`, which every call trains
        through): 0 (default) or 1 walks inline, ≥2 runs at most that many
        pool workers overlapping walk generation with training (chunks too
        small to pay a worker round trip walk inline, see
        :data:`repro.parallel.pipeline.POOL_MIN_WALK_STEPS`).  The
        embedding is bit-identical across worker counts.
    negative_source:
        a name from :data:`repro.sampling.sources.SOURCE_REGISTRY` or a
        :class:`~repro.sampling.sources.NegativeSource` instance with custom
        knobs (e.g. ``DecayedSource(decay=0.9, rebuild_every=8)``):

{sources}

        The default ``"corpus"`` is the paper's construction (§3.1): the
        negative table comes from the whole first-epoch corpus.
    negative_power:
        smoothing exponent on the negative-sampling frequencies (word2vec
        default 0.75).
    transport:
        ``"shm"`` (zero-copy shared-memory ring, the default) or
        ``"pickle"`` (portable result-pipe baseline) for pooled chunks.
    chunk_size:
        start nodes per work item, an int (default
        :data:`repro.parallel.DEFAULT_CHUNK_SIZE`).  Chunking never changes
        the *walks* (seeded by global walk index) and, under
        ``"reference"``, never the trained embedding either;
        ``"blocked"`` draws one bulk negative batch per chunk, so its
        embedding is pinned to the chunk size.
    exec_backend:
        chunk-execution kernel (:mod:`repro.embedding.kernels`):

{backends}

        ``None`` follows the model's own preference (``"reference"`` unless
        restored from a checkpoint that says otherwise).  ``"blocked"``
        draws each chunk's negatives in one bulk pass, so its embedding is
        pinned to the chunk schedule (still bit-identical across workers
        and transports).
    store:
        serving-store hookup: a name from
        :data:`repro.store.STORE_REGISTRY` or a pre-constructed
        :class:`~repro.store.base.EmbeddingStore`:

{stores}

        The run publishes a versioned epoch snapshot into the store after
        every training epoch (zero-copy: unchanged
        shards are shared by reference; ``telemetry.store_full_copies``
        stays 0).  The live store rides out on ``TrainingResult.store`` —
        pass it to :func:`serve_embedding`, then ``close()`` it.
    seed:
        deterministic seed for walks, sampling and initialization.
    model_kwargs:
        forwarded to the model constructor (e.g. ``mu=0.05``); only valid
        when ``model`` is a registry name.

    Returns
    -------
    :class:`repro.embedding.trainer.TrainingResult` with ``.embedding``
    (n_nodes × dim), the trained model, op-count telemetry and the
    pipeline's per-stage ``telemetry``.
    """
    from repro.parallel import train_parallel

    return train_parallel(
        graph,
        dim=dim,
        model=model,
        hyper=hyper,
        epochs=epochs,
        n_workers=n_workers,
        store=store,
        seed=seed,
        # knobs left at None are not forwarded: the pipeline's defaults apply
        **_passed(
            negative_source=negative_source,
            negative_power=negative_power,
            transport=transport,
            chunk_size=chunk_size,
            exec_backend=exec_backend,
        ),
        **model_kwargs,
    )


def train_dynamic(
    graph: CSRGraph,
    *,
    dim: int = 32,
    model: str = "proposed",
    hyper: Node2VecParams | None = None,
    edges_per_event: int = 1,
    max_events: int | None = None,
    initial_training: bool = False,
    walks_per_endpoint: int | None = None,
    n_workers: int | None = None,
    negative_source: str | NegativeSource | None = None,
    negative_power: float | None = None,
    transport: str | None = None,
    chunk_size: int | None = None,
    exec_backend: str | None = None,
    store: str | EmbeddingStore | None = None,
    seed: SeedLike = None,
    **model_kwargs: Any,
) -> ScenarioResult:
    """Train on ``graph`` as a *growing* graph: replay its edges through the
    streaming dynamic-graph engine (the paper's "seq" protocol, §4.3.2).

    The graph is split into a spanning forest plus a replay stream of the
    removed edges; each insertion event emits a walk task (walks from both
    endpoints, ``walks_per_endpoint`` each) that streams through the
    parallel walk→train pipeline — workers generate walks for upcoming
    events while the main process trains on the current one, with the
    embedding bit-identical across worker counts and transports.

    Parameters mirror :func:`train_embedding` where they overlap;
    ``edges_per_event`` / ``max_events`` / ``initial_training`` /
    ``walks_per_endpoint`` are the replay knobs of
    :func:`repro.dynamic.run_seq_scenario` (which this wraps).
    ``negative_source`` accepts the same registry names / instances:

{sources}

    The default here is ``"decayed"``, the online source built for moving
    visit distributions.  ``exec_backend`` selects the chunk-execution
    kernel:

{backends}

    ``store`` hooks the replay up to the serving layer (a
    :data:`repro.store.STORE_REGISTRY` name or an
    :class:`~repro.store.base.EmbeddingStore` instance):

{stores}

    Each replayed task epoch publishes a versioned snapshot of the live
    embedding (zero full-table copies —
    readers pinned to an epoch keep seeing its exact vectors while the
    replay publishes behind them).  The store rides out on
    ``extras["training_result"].store``.

    Returns
    -------
    :class:`repro.dynamic.ScenarioResult` with ``.embedding``, the trained
    model, event/walk counts, and the pipeline telemetry under
    ``extras["telemetry"]``.
    """
    from repro.dynamic import run_seq_scenario

    return run_seq_scenario(
        graph,
        dim=dim,
        model=model,
        hyper=hyper,
        seed=seed,
        edges_per_event=edges_per_event,
        max_events=max_events,
        initial_training=initial_training,
        walks_per_endpoint=walks_per_endpoint,
        store=store,
        model_kwargs=model_kwargs or None,
        **_passed(
            n_workers=n_workers,
            chunk_size=chunk_size,
            transport=transport,
            negative_source=negative_source,
            negative_power=negative_power,
            exec_backend=exec_backend,
        ),
    )


def quick_embedding(graph: CSRGraph, *, dim: int = 32, seed: SeedLike = None) -> np.ndarray:
    """One-liner: train the proposed model with Table 2 defaults and return
    the (n_nodes, dim) embedding matrix."""
    return train_embedding(graph, dim=dim, model="proposed", seed=seed).embedding


def serve_embedding(
    source: TrainingResult | EmbeddingStore | np.ndarray | Any,
    *,
    store: str | None = None,
    n_shards: int = 8,
    retain: int = 4,
    cache_capacity: int = 4096,
) -> EmbeddingService:
    """Put a trained embedding behind the async serving layer.

    ``source`` is anything that holds a table:

    * a :class:`~repro.embedding.trainer.TrainingResult` — if the run
      published into a store (``store=`` at training time), that live
      store is served *as-is*, versioned epochs and all; otherwise the
      result's final embedding is published as epoch 0 of a fresh store;
    * a live :class:`~repro.store.base.EmbeddingStore` — served as-is
      (the caller keeps ownership, exactly as with ``TrainingResult``);
    * an :class:`~repro.embedding.base.EmbeddingModel` or a plain
      ``(n_nodes, dim)`` array — snapshotted as epoch 0 of a fresh store.

    ``store`` names the backend for a *fresh* store
    (:data:`repro.store.STORE_REGISTRY`; default ``"local"``):

{stores}

    It must stay ``None`` when ``source`` already is (or carries) a store
    — re-homing a live store would silently copy the table.  ``n_shards``
    / ``retain`` size a fresh store; ``cache_capacity`` is the service's
    LRU budget either way.

    Returns a :class:`repro.serving.EmbeddingService`; ``await`` its
    ``get_vector`` / ``score_links`` / ``top_k`` coroutines (see
    examples/serving_quickstart.py for the event-loop boilerplate).
    """
    from repro.serving import EmbeddingService
    from repro.store import EmbeddingStore, make_store

    live: EmbeddingStore | None = None
    if isinstance(source, EmbeddingStore):
        live = source
    elif getattr(source, "store", None) is not None and isinstance(
        source.store, EmbeddingStore
    ):
        live = source.store
    if live is not None:
        if store is not None:
            raise ValueError(
                "source already carries a live store; serve it as-is "
                "(store= only names the backend of a fresh store)"
            )
        return EmbeddingService(live, cache_capacity=cache_capacity)

    if hasattr(source, "embedding"):  # TrainingResult / EmbeddingModel
        table = np.asarray(source.embedding)
    else:
        table = np.asarray(source)
    if table.ndim != 2:
        raise ValueError(f"embedding table must be 2-D, got shape {table.shape}")
    fresh = make_store(
        store if store is not None else "local",
        table.shape[0],
        table.shape[1],
        n_shards=n_shards,
        retain=retain,
        dtype=table.dtype,
    )
    fresh.publish(0, table)
    return EmbeddingService(fresh, cache_capacity=cache_capacity)


# Render the negative_source / exec_backend / store bullet lists from
# their registries so the docs can never drift from the validated sets.
for _fn in (train_embedding, train_dynamic, serve_embedding):
    if _fn.__doc__:  # pragma: no branch - absent only under python -OO
        _fn.__doc__ = _fn.__doc__.replace("{sources}", _SOURCE_DOC)
        _fn.__doc__ = _fn.__doc__.replace("{backends}", _BACKEND_DOC)
        _fn.__doc__ = _fn.__doc__.replace("{stores}", _STORE_DOC)
