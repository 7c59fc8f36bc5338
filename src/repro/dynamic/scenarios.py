"""The paper's two training scenarios (§4.3.2, Figure 6).

**"all"** — the entire graph exists from the beginning; train the standard
node2vec corpus (r walks per node) on it.

**"seq"** — start from a spanning forest of the graph (same number of
connected components, no cycles); replay the removed edges one at a time;
after each insertion run a random walk *from both endpoints of the added
edge* and train on those walks.  This is the IoT deployment story: the
embedding adapts as the graph grows.

The "seq" replay trains through the streaming engine: the edge stream
becomes a lazy :class:`~repro.parallel.tasks.WalkTask` stream
(:meth:`~repro.graph.dynamic.DynamicGraph.walk_tasks`) consumed by
:func:`repro.parallel.train_parallel`, so scenario replay inherits every
pipeline knob — ``n_workers`` (walk generation fanned out while the main
process trains), ``transport`` (zero-copy shm ring vs pickle),
``chunk_size`` — and every ``negative_source``, including the
online ``"decayed"`` source (the default here: degree bootstrap plus
exponentially-decayed streaming frequencies, built for exactly this
moving-distribution workload).  The trained embedding is bit-identical
across worker counts and transports; pipeline telemetry (snapshot counts,
per-snapshot stalls, sampler rebuilds) rides along in
``ScenarioResult.extras["telemetry"]``.

The scenario driver is model-agnostic: the same protocol trains the SGD
baseline ("Original") and the OS-ELM models ("Proposed"), which is exactly
the comparison Figure 6 makes — the baseline forgets, the RLS update does
not.

Scale knobs for quick profiles: ``edges_per_event`` batches insertions
(walks still start from every endpoint of the batch), ``max_events``
truncates the replay; remaining edges are inserted WITHOUT training so that
the final graph (and hence the classification task) is always the full one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.embedding.base import EmbeddingModel
from repro.embedding.trainer import WalkTrainer, make_model
from repro.graph.components import forest_split
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph, edge_stream
from repro.sampling.negative import NegativeSampler
from repro.sampling.walks import Node2VecWalker
from repro.utils.rng import as_generator, draw_seed
from repro.utils.validation import check_positive

__all__ = ["ScenarioResult", "run_all_scenario", "run_seq_scenario"]


@dataclass
class ScenarioResult:
    """Outcome of one scenario run."""

    embedding: np.ndarray
    model: EmbeddingModel
    n_walks: int
    n_contexts: int
    n_events: int
    scenario: str
    extras: dict = field(default_factory=dict)


def _resolve_model(model, graph, dim, seed, model_kwargs) -> EmbeddingModel:
    if isinstance(model, str):
        return make_model(model, graph.n_nodes, dim, seed=seed, **(model_kwargs or {}))
    if model_kwargs:
        raise ValueError("model_kwargs only apply when model is a registry name")
    return model


def run_all_scenario(
    graph: CSRGraph,
    *,
    model="proposed",
    dim: int = 32,
    hyper=None,
    seed=None,
    model_kwargs: dict | None = None,
) -> ScenarioResult:
    """Figure 6's "all" case: every edge present from the start."""
    from repro.experiments.hyper import Node2VecParams

    hp = hyper or Node2VecParams()
    rng = as_generator(seed)
    mdl = _resolve_model(model, graph, dim, rng.integers(2**63), model_kwargs)

    walker = Node2VecWalker(graph, hp.walk_params(), seed=rng.integers(2**63))
    walks = walker.simulate()
    sampler = NegativeSampler.from_walks(
        walks, graph.n_nodes, seed=rng.integers(2**63)
    )
    trainer = WalkTrainer(mdl, window=hp.w, ns=hp.ns)
    trainer.train_corpus(walks, sampler)
    return ScenarioResult(
        embedding=mdl.embedding,
        model=mdl,
        n_walks=trainer.n_walks,
        n_contexts=trainer.n_contexts,
        n_events=0,
        scenario="all",
    )


def run_seq_scenario(
    graph: CSRGraph,
    *,
    model="proposed",
    dim: int = 32,
    hyper=None,
    seed=None,
    edges_per_event: int = 1,
    max_events: int | None = None,
    initial_training: bool = False,
    walks_per_endpoint: int | None = None,
    n_workers: int | None = None,
    chunk_size: int | None = None,
    transport: str | None = None,
    negative_source="decayed",
    negative_power: float | None = None,
    exec_backend: str | None = None,
    store=None,
    model_kwargs: dict | None = None,
) -> ScenarioResult:
    """Figure 6's "seq" case: forest first, then per-edge sequential training
    streamed through :func:`repro.parallel.train_parallel`.

    Parameters
    ----------
    graph:
        the FULL graph; the scenario derives the forest and the replay
        stream internally (seeded).
    edges_per_event / max_events:
        scale knobs (see module docstring).
    initial_training:
        additionally train the standard r-walks-per-node corpus on the
        initial forest before the replay.  Default False: the paper
        describes training as happening "every time the removed edge is
        added", with the forest only defining the starting graph.
    walks_per_endpoint:
        walks started from each endpoint of an inserted edge (the paper:
        "the random walk starts from both the ends of an added edge";
        node2vec's r applies per start node).  Default: ``hyper.r`` —
        this is what makes "the number of training samples increase in the
        'seq' case" (§4.3.2) relative to the "all" corpus.
    n_workers / chunk_size / transport:
        streaming-pipeline knobs, forwarded to
        :func:`~repro.parallel.train_parallel`: walk generation for the
        events after event *i* overlaps training on event *i*'s walks, chunks
        move through the shm ring or the pickle channel, and the embedding
        stays bit-identical across worker counts and transports.
    negative_source:
        any :data:`repro.sampling.sources.SOURCE_REGISTRY` name or
        :class:`~repro.sampling.sources.NegativeSource` instance.  Default
        ``"decayed"``: the online source that folds the replay's walk
        frequencies into an exponentially-decayed count vector and rebuilds
        its alias table every K virtual chunks — the streaming successor of
        the old per-event ``sampler_refresh`` loop (tune via a
        ``DecayedSource(decay=…, rebuild_every=…)`` instance).
    exec_backend:
        chunk-execution kernel (``"reference"`` | ``"blocked"``, see
        :mod:`repro.embedding.kernels`); ``None``
        follows the model's own preference.  ``"blocked"`` is the fast
        path for the OS-ELM ``"proposed"`` model this scenario defaults
        to — the rank-k RLS block solves batch each event's walk updates.
    store:
        serving-store hookup, forwarded to
        :func:`~repro.parallel.train_parallel`: each replayed task epoch
        (the initial corpus is epoch -1, event *k* is epoch *k*) publishes
        a pinned, versioned snapshot of the live embedding into the store
        as soon as its last chunk has trained, not when the next event
        arrives, and the store rides out on
        ``extras["training_result"].store``.

    The pipeline telemetry (snapshots consumed, per-snapshot stalls,
    sampler rebuilds, transport, stage timings, publish-once snapshot
    bytes, store publishes) lands in ``extras["telemetry"]``.
    """
    from repro.experiments.hyper import Node2VecParams
    from repro.parallel import train_parallel
    from repro.parallel.tasks import WalkTask

    check_positive("edges_per_event", edges_per_event, integer=True)
    hp = hyper or Node2VecParams()
    if walks_per_endpoint is None:
        walks_per_endpoint = hp.r
    check_positive("walks_per_endpoint", walks_per_endpoint, integer=True)
    rng = as_generator(seed)
    split_seed = draw_seed(rng)
    starts_seed = draw_seed(rng)
    train_seed = draw_seed(rng)

    split = forest_split(graph, seed=split_seed)
    state: dict = {"n_events": 0}

    def replay_tasks():
        """The lazy task stream: the optional initial corpus task, then one
        task per replayed event."""
        dyn = DynamicGraph(graph.n_nodes, initial=split.initial)
        state["dyn"] = dyn
        if initial_training:
            srng = as_generator(starts_seed)
            n = graph.n_nodes
            reps = [srng.permutation(n) for _ in range(hp.walk_params().walks_per_node)]
            # graph=None: the t=0 snapshot IS the engine's base graph
            # (split.initial), which workers hold fork-shared — carrying a
            # rebuilt copy would re-pickle the whole graph into every chunk
            # job of the stream's largest task
            yield WalkTask(starts=np.concatenate(reps), epoch=-1)
        events = edge_stream(
            split.removed_edges,
            edges_per_event=edges_per_event,
            max_events=max_events,
        )
        for task in dyn.walk_tasks(events, walks_per_endpoint=walks_per_endpoint):
            state["n_events"] = task.epoch + 1
            yield task

    # knobs left at None are not forwarded: the pipeline's defaults apply
    knobs = dict(
        n_workers=n_workers, chunk_size=chunk_size, transport=transport,
        negative_power=negative_power,
    )
    result = train_parallel(
        split.initial,  # the t=0 snapshot: model sizing + source bootstrap
        dim=dim,
        model=model,
        hyper=hp,
        epochs=1,
        negative_source=negative_source,
        exec_backend=exec_backend,
        store=store,
        tasks=replay_tasks(),
        seed=train_seed,
        **{name: value for name, value in knobs.items() if value is not None},
        **(model_kwargs or {}),
    )

    # Any truncated remainder enters the graph untrained (task stays full).
    dyn = state.get("dyn") or DynamicGraph(graph.n_nodes, initial=split.initial)
    if max_events is not None:
        done = min(max_events * edges_per_event, split.removed_edges.shape[0])
        if done < split.removed_edges.shape[0]:
            dyn.add_edges(split.removed_edges[done:])

    return ScenarioResult(
        embedding=result.embedding,
        model=result.model,
        n_walks=result.n_walks,
        n_contexts=result.n_contexts,
        n_events=state["n_events"],
        scenario="seq",
        extras={
            "initial_edges": split.initial.n_edges,
            "replayed_edges": int(
                min(
                    (max_events or np.inf) * edges_per_event,
                    split.removed_edges.shape[0],
                )
            ),
            "final_graph": dyn.snapshot(),
            "telemetry": result.telemetry,
            "training_result": result,
        },
    )
