#!/usr/bin/env python3
"""Dynamic-graph streaming: seq-scenario replay through the parallel pipeline.

The paper's deployment story (§4.3.2) is an IoT device training on a
*growing* graph: start from a spanning forest, replay the removed edges,
walk from both endpoints of every insertion and train sequentially.  This
example runs that protocol through the streaming engine
(:func:`repro.dynamic.run_seq_scenario` / :func:`repro.api.train_dynamic`):

* every edge event snapshots the ``DynamicGraph`` and emits a walk task,
  so workers generate walks for upcoming insertions *while* the trainer
  consumes the current one (``n_workers``, ``transport``, ``prefetch``
  all apply);
* negatives come from the pluggable source layer — here the online
  ``"decayed"`` source: degree bootstrap, exponentially-decayed streaming
  frequency folds, alias rebuild every K virtual chunks;
* the embedding is bit-identical across worker counts and transports
  (and, for ``"decayed"``, across physical chunk sizes at a fixed
  virtual chunk size).

Run:  python examples/dynamic_streaming.py
"""

import numpy as np

from repro import train_dynamic
from repro.dynamic import run_drift_scenario, run_seq_scenario
from repro.experiments.hyper import Node2VecParams
from repro.graph import cora_like
from repro.sampling.sources import DecayedSource


def main() -> None:
    graph = cora_like(scale=0.08, seed=0)
    hyper = Node2VecParams(r=3, l=40, w=8, ns=5)
    print(f"graph: {graph}")

    # -- seq replay through the pipeline, online decayed negatives ------- #
    for workers in (0, 2, 4):
        res = run_seq_scenario(
            graph, dim=32, hyper=hyper, seed=7, edges_per_event=8,
            walks_per_endpoint=1, n_workers=workers,
            negative_source=DecayedSource(decay=0.95, rebuild_every=4,
                                          virtual_chunk=64),
        )
        t = res.extras["telemetry"]
        label = "inline" if workers <= 1 else f"{workers} workers"
        print(
            f"seq replay ({label:10s}): {res.n_events:4d} events  "
            f"{res.n_walks:5d} walks  total {t.total_s:5.2f}s  "
            f"stall {t.wait_s:5.2f}s (snapshot share {t.snapshot_stall_s:4.2f}s)  "
            f"sampler rebuilds {t.sampler_rebuilds}"
        )

    # -- bit-identity across workers and transports ---------------------- #
    runs = [
        run_seq_scenario(
            graph, dim=32, hyper=hyper, seed=7, edges_per_event=8,
            walks_per_endpoint=1, n_workers=nw, transport=tr,
        ).embedding
        for nw, tr in ((0, "shm"), (4, "shm"), (4, "pickle"))
    ]
    print("replay identical across workers/transports:",
          all(np.array_equal(runs[0], e) for e in runs[1:]))

    # -- the one-call API ------------------------------------------------ #
    res = train_dynamic(graph, dim=32, hyper=hyper, seed=7, n_workers=4,
                        edges_per_event=8, walks_per_endpoint=1)
    print(f"train_dynamic: scenario={res.scenario}  events={res.n_events}  "
          f"snapshots={res.extras['telemetry'].n_snapshots}")

    # -- concept drift: decayed vs frozen sampler ------------------------ #
    for label, source in (
        ("corpus (frozen)", "corpus"),
        ("decayed (online)", DecayedSource(decay=0.9, rebuild_every=4,
                                           virtual_chunk=64)),
    ):
        d = run_drift_scenario(
            graph, dim=32, hyper=hyper, drift_fraction=0.25, seed=1,
            n_workers=2, negative_source=source, model_kwargs={"mu": 0.05},
        )
        print(
            f"drift [{label:16s}]: F1 {d.f1_before:.3f} -> "
            f"{d.f1_after_drift:.3f} (drift) -> {d.f1_recovered:.3f} "
            f"(recovered {d.recovery:4.0%})"
        )


if __name__ == "__main__":
    main()
