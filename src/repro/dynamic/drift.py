"""Concept-drift scenario — rewiring, not just growth.

The paper's "seq" protocol only *adds* edges, so the ground truth never
changes.  Real IoT graphs drift: devices move between clusters, links decay.
This scenario rewires a fraction of nodes mid-stream (their label flips and
their intra-community edges move to the new community) and measures how
fast each model's embedding tracks the new truth — the setting where plain
RLS (infinite memory) and SGD (recency-biased) genuinely trade places, and
where the FOS-ELM forgetting factor earns its keep.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.embedding.trainer import make_model
from repro.evaluation.protocol import evaluate_embedding
from repro.graph.csr import CSRGraph
from repro.utils.rng import as_generator, draw_seed
from repro.utils.validation import check_positive, check_probability

__all__ = ["rewire_communities", "DriftResult", "run_drift_scenario"]


def rewire_communities(
    graph: CSRGraph, *, fraction: float = 0.2, seed=None
) -> CSRGraph:
    """Move ``fraction`` of nodes to a different community.

    A moved node gets a new label and each of its intra-community edges is
    re-attached to a uniform member of the new community (inter-community
    edges are left alone); degree is preserved up to dedup.
    """
    check_probability("fraction", fraction)
    if graph.node_labels is None:
        raise ValueError("graph must have node labels to rewire")
    rng = as_generator(seed)
    labels = graph.node_labels.copy()
    n_classes = int(labels.max()) + 1
    movers = rng.choice(
        graph.n_nodes, size=int(round(fraction * graph.n_nodes)), replace=False
    )
    new_labels = labels.copy()
    for v in movers:
        choices = [c for c in range(n_classes) if c != labels[v]]
        new_labels[v] = int(rng.choice(choices))

    edges, weights = graph.edge_array(return_weights=True)
    edges = edges.copy()
    mover_set = set(int(v) for v in movers)
    for i, (u, v) in enumerate(edges):
        u, v = int(u), int(v)
        for a, b, col in ((u, v, 1), (v, u, 0)):
            if a in mover_set and labels[a] == labels[b]:
                target_class = new_labels[a]
                pool = np.flatnonzero(new_labels == target_class)
                pool = pool[pool != a]
                if pool.size:
                    edges[i, col] = int(rng.choice(pool))
                break
    return CSRGraph.from_edges(
        graph.n_nodes, edges, weights=weights, node_labels=new_labels
    )


@dataclass
class DriftResult:
    """Accuracy trajectory across the drift."""

    f1_before: float
    f1_after_drift: float  # right after the rewire, before adaptation
    f1_recovered: float  # after the post-drift training budget
    model_name: str
    extras: dict = field(default_factory=dict)

    @property
    def recovery(self) -> float:
        """Fraction of the drift-induced drop that training won back."""
        drop = self.f1_before - self.f1_after_drift
        if drop <= 0:
            return 1.0
        return (self.f1_recovered - self.f1_after_drift) / drop


def run_drift_scenario(
    graph: CSRGraph,
    *,
    model="proposed",
    dim: int = 32,
    hyper=None,
    drift_fraction: float = 0.2,
    seed=None,
    n_workers: int = 0,
    chunk_size: int | None = None,
    transport: str = "shm",
    negative_source="corpus",
    negative_power: float = 0.75,
    exec_backend: str | None = None,
    model_kwargs: dict | None = None,
) -> DriftResult:
    """Train → rewire ``drift_fraction`` of nodes → train again; report the
    accuracy trajectory against the *post-drift* ground truth.

    Both training phases run through the streaming pipeline
    (:func:`repro.parallel.train_parallel`), warm-starting the second phase
    from the same model instance — so the drift study inherits the pipeline
    knobs (``n_workers``, ``transport``, ``chunk_size``) and
    any ``negative_source``, including ``"decayed"`` for an online sampler
    that tracks the post-drift distribution.  The per-phase
    :class:`~repro.parallel.PipelineTelemetry` pair lands in
    ``DriftResult.extras["telemetry"]``.
    """
    from repro.experiments.hyper import Node2VecParams
    from repro.parallel import DEFAULT_CHUNK_SIZE, train_parallel

    check_positive("dim", dim, integer=True)
    hp = hyper or Node2VecParams()
    rng = as_generator(seed)
    name = model if isinstance(model, str) else type(model).__name__
    if isinstance(model, str):
        model = make_model(
            model, graph.n_nodes, dim, seed=draw_seed(rng),
            **(model_kwargs or {}),
        )

    def _train(g: CSRGraph):
        return train_parallel(
            g,
            model=model,
            hyper=hp,
            n_workers=n_workers,
            chunk_size=DEFAULT_CHUNK_SIZE if chunk_size is None else chunk_size,
            transport=transport,
            negative_source=negative_source,
            negative_power=negative_power,
            exec_backend=exec_backend,
            seed=draw_seed(rng),
        )

    before = _train(graph)
    drifted = rewire_communities(
        graph, fraction=drift_fraction, seed=draw_seed(rng)
    )
    eval_seed = draw_seed(rng)
    f1_before = evaluate_embedding(
        model.embedding, graph.node_labels, seed=eval_seed
    ).micro_f1
    f1_after = evaluate_embedding(
        model.embedding, drifted.node_labels, seed=eval_seed
    ).micro_f1

    recovered = _train(drifted)
    f1_rec = evaluate_embedding(
        model.embedding, drifted.node_labels, seed=eval_seed
    ).micro_f1
    return DriftResult(
        f1_before=f1_before,
        f1_after_drift=f1_after,
        f1_recovered=f1_rec,
        model_name=name,
        extras={"telemetry": (before.telemetry, recovered.telemetry)},
    )
