#!/usr/bin/env python3
"""Host-side parallelism: the streaming walk→train pipeline + lockstep walks.

The paper's board overlaps PS-side walk sampling with PL-side training
(§3.2); :func:`repro.parallel.train_parallel` reproduces that overlap on a
multicore host.  Walk chunks stream out of a fork pool through a bounded
window of ``max(2, 2 * n_workers)`` chunks while the main process trains on
them — and the embedding stays bit-identical for any worker count.

Knobs demonstrated below:

* ``n_workers`` — 0/1 inline, ≥2 a fork pool (it also sets the window:
  two chunks in flight per worker);
* ``negative_source`` — ``"corpus"`` (paper-exact, buffers the first epoch),
  ``"degree"`` (streams from the first chunk, bounded memory),
  ``"decayed"`` (online: decayed streaming frequencies + periodic alias
  rebuilds — see examples/dynamic_streaming.py for its home turf);
* ``chunk_size`` — granularity of the pipeline (start nodes per chunk, an
  int);
* ``transport`` — ``"shm"`` (zero-copy shared-memory ring) vs ``"pickle"``
  (serialized through the pool result pipe);
* ``exec_backend`` — ``"reference"`` (the bit-exact per-walk loop) vs
  ``"blocked"`` (vectorized chunk kernels: bulk negative draw, batched
  gather/scatter updates for the SGD baseline and rank-k RLS block solves
  for the paper's proposed OS-ELM model — the big walks/s lever for both).
  The ``"batch_rls"`` model rides the
  span-aware ``"blocked"`` backend one step further: its ``defer_span`` knob
  (``"walk"`` | int | ``"chunk"``) lets one rank-k span legally cross
  walk boundaries — at ``defer_span="chunk"`` every staged work item
  becomes a single shared-negative rank-k solve, this family's raw-speed
  ceiling (``"reference"`` rejects cross-walk spans);
* ``result.telemetry`` — per-stage timing, IPC bytes, training walks/s and
  contexts/s, realized overlap;
* lockstep walks — a chunk of at least ``LOCKSTEP_MIN_WALKS`` walks
  advances all its walks together, bitwise the same walks as one at a time
  (smaller chunks, such as a dynamic replay's per-event chunks, walk one at
  a time with a scalar step, which is faster there).

Run:  python examples/parallel_training.py
"""

import time

import numpy as np

from repro.graph import amazon_photo_like, barabasi_albert
from repro.parallel import ParallelWalkGenerator, train_parallel
from repro.experiments.hyper import Node2VecParams
from repro.sampling.lockstep import LOCKSTEP_MIN_WALKS


def main() -> None:
    graph = amazon_photo_like(scale=0.08, seed=0)
    hyper = Node2VecParams(r=3, l=40, w=8, ns=5)
    print(f"graph: {graph}")

    # -- multiprocess walk generation ---------------------------------- #
    for workers in (0, 2, 4):
        t0 = time.perf_counter()
        gen = ParallelWalkGenerator(
            graph, hyper.walk_params(), n_workers=workers, seed=1
        )
        walks = gen.all_walks()
        dt = time.perf_counter() - t0
        label = "inline" if workers <= 1 else f"{workers} workers"
        print(f"walk corpus ({label:10s}): {len(walks)} walks in {dt:.2f}s")

    # -- streaming pipeline: negative_source trade-offs ----------------- #
    for source in ("corpus", "degree", "decayed"):
        res = train_parallel(
            graph, dim=32, hyper=hyper, n_workers=4, chunk_size=128,
            negative_source=source, seed=7,
        )
        t = res.telemetry
        print(
            f"negative_source={source:8s}: total {t.total_s:5.2f}s  "
            f"train {t.train_s:5.2f}s  stall {t.wait_s:5.2f}s  "
            f"overlap {t.overlap_efficiency:4.0%}  "
            f"peak buffered walks {t.peak_buffered_walks}"
        )

    # -- walk transport: zero-copy shm vs pickled chunks ---------------- #
    for transport in ("pickle", "shm"):
        res = train_parallel(
            graph, dim=32, hyper=hyper, n_workers=4, chunk_size=128,
            transport=transport, negative_source="degree", seed=7,
        )
        t = res.telemetry
        print(
            f"transport={t.transport:7s}: total {t.total_s:5.2f}s  "
            f"stall {t.wait_s:5.2f}s  "
            f"walk bytes over pickle channel {t.ipc_walk_bytes:>9,}"
        )

    # -- execution backends: reference vs blocked kernels -------------- #
    # the blocked backend batches the SGD baseline's per-window Python loop
    # per walk and runs the proposed OS-ELM model's RLS recursion as rank-k
    # block solves.
    # batch_rls pushes the blocked lever chunk-wide: defer_span="chunk"
    # folds each staged work item into one shared-negative rank-k solve.
    for model, backend, kwargs in (
        ("original", "reference", {}), ("original", "blocked", {}),
        ("proposed", "reference", {}), ("proposed", "blocked", {}),
        ("batch_rls", "blocked", {"defer_span": "chunk"}),
    ):
        res = train_parallel(
            graph, dim=32, hyper=hyper, model=model, n_workers=4,
            chunk_size=128, negative_source="degree",
            exec_backend=backend, seed=7, **kwargs,
        )
        t = res.telemetry
        print(
            f"model={model:9s} exec_backend={t.exec_backend:9s}: "
            f"train {t.train_s:5.2f}s  "
            f"{t.train_walks_per_s:7.0f} walks/s  "
            f"{t.train_contexts_per_s:8.0f} contexts/s"
        )

    # -- determinism across worker counts, transports, chunk sizes ------ #
    a = train_parallel(
        graph, dim=32, hyper=hyper, n_workers=0, chunk_size=256,
        negative_source="degree", seed=7,
    )
    b = train_parallel(
        graph, dim=32, hyper=hyper, n_workers=4, chunk_size=64,
        transport="shm", negative_source="degree", seed=7,
    )
    print(f"embedding identical across workers/transport/chunking: "
          f"{np.array_equal(a.embedding, b.embedding)}")

    # -- lockstep vs per-walk walks on an unweighted graph --------------- #
    # every walk draws one uniform per step from its own stream, so chunks
    # below LOCKSTEP_MIN_WALKS (walked one at a time) and larger chunks
    # (walked in lockstep) produce the same corpus.  The timing shows the
    # other side of the crossover: a 256-walk lockstep step spreads its
    # dozen array calls over 256 lanes and beats the scalar per-walk step
    # several times over, while on an event's 4-walk chunk the per-walk
    # path is 1.3-2.6x faster (benchmarks/bench_dynamic_stream.py)
    flat = barabasi_albert(graph.n_nodes, 8, seed=0)
    corpora, seconds = {}, {}
    for label, chunk in (("per-walk", LOCKSTEP_MIN_WALKS - 1), ("lockstep", 256)):
        t0 = time.perf_counter()
        gen = ParallelWalkGenerator(flat, hyper.walk_params(), chunk_size=chunk, seed=2)
        corpora[label] = gen.all_walks()
        seconds[label] = time.perf_counter() - t0
    same = all(
        np.array_equal(a, b)
        for a, b in zip(corpora["per-walk"], corpora["lockstep"], strict=True)
    )
    print(f"per-walk chunks: {seconds['per-walk']:.2f}s   lockstep chunks: "
          f"{seconds['lockstep']:.2f}s "
          f"({seconds['per-walk'] / seconds['lockstep']:.1f}x, same walks: {same})")


if __name__ == "__main__":
    main()
