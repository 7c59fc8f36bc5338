"""Pipeline overlap and walk transport: streamed vs buffered, shm vs pickle.

The paper's board hides walk sampling behind training (§3.2) and keeps walk
traffic on-chip instead of round-tripping it through host memory.  This
bench measures both host-side analogues on the same workload:

* **overlap** — ``negative_source="corpus"`` (buffer the whole corpus, then
  train: the memory-unbounded baseline) vs ``negative_source="degree"``
  (training starts on the first chunk);
* **transport** — the streamed run with ``transport="pickle"`` (every chunk
  serialized through the pool's result pipe) vs ``transport="shm"`` (chunks
  written into a shared-memory ring, only a control tuple pickled).

Training runs on the ``"blocked"`` backend, the one every speed claim
uses.  Its arithmetic costs about as much CPU per walk as the walk itself,
so buffering the corpus stalls about a third of the run and streaming has
that much to hide.  Under the per-walk ``"reference"`` loop training cost
~13× the generation: buffering stalled ~0.1 s of a ~2 s run, and on two
cores the two workers slowed the streamed run's training by about as much
as streaming saved.

Like the board needs both a PS and a PL, the host needs ≥ 2 cores before
walk generation can physically run *while* training runs; on a single-core
host the stages time-slice and the best possible outcome is wall-clock
parity.  The assertions adapt: with ≥ 2 cores the streamed run must beat
the buffered baseline on wall-clock outright and the shm run must hold a
small parity band against pickle; on one core both streamed variants must
stay within a scheduling-overhead band of their baseline.  The structural
wins hold on any core count and are asserted whenever shared memory is
actually available (on a host without it the shm variant deliberately
falls back to pickling, and only the transport-independent assertions
run): less stall and bounded peak memory for streaming, and *zero*
walk-payload bytes on the pickle channel for the shm transport
(``ipc_walk_bytes``, an exact count — timing-noise-free, unlike the stall
clock).

Each variant is timed ``REPEATS`` times and scored by its minimum (the
scheduler-noise-free estimate of the deterministic work).  The repeats are
interleaved, one run of every variant per round with the order reversed on
alternate rounds, so a slow stretch of the host lands on all variants
instead of on whichever happened to run then.
"""

import os

import numpy as np

from repro.experiments.hyper import Node2VecParams
from repro.experiments.report import ExperimentReport
from repro.graph import amazon_photo_like
from repro.parallel import ParallelWalkGenerator, train_parallel

N_WORKERS = 2
EXEC_BACKEND = "blocked"
CHUNK_SIZE = 256
REPEATS = 5

#: (negative_source, transport) variants, keyed "source/transport"
VARIANTS = (
    ("corpus", "pickle"),
    ("degree", "pickle"),
    ("degree", "shm"),
)


def test_pipeline_overlap(benchmark, emit_report, profile):
    scale = 0.60 if profile == "paper" else 0.30
    graph = amazon_photo_like(scale=scale, seed=0)
    hyper = Node2VecParams(r=2, l=40, w=8, ns=5)
    multicore = (os.cpu_count() or 1) >= 2

    def measure_all():
        """The fastest of ``REPEATS`` runs per variant, keyed by variant;
        each round runs every variant once, alternating the order."""
        best: dict = {}
        for rep in range(REPEATS):
            for source, transport in VARIANTS[:: 1 if rep % 2 == 0 else -1]:
                res = train_parallel(
                    graph,
                    dim=32,
                    hyper=hyper,
                    n_workers=N_WORKERS,
                    chunk_size=CHUNK_SIZE,
                    transport=transport,
                    negative_source=source,
                    exec_backend=EXEC_BACKEND,
                    seed=7,
                )
                t = res.telemetry
                key = (source, transport)
                if key not in best or t.total_s < best[key]["total_s"]:
                    best[key] = {
                        "total_s": t.total_s,
                        "train_s": t.train_s,
                        "wait_s": t.wait_s,
                        "overlap": t.overlap_efficiency,
                        "peak": t.peak_buffered_walks,
                        "ipc_walk_bytes": t.ipc_walk_bytes,
                        "transport": t.transport,
                        "n_walks": res.n_walks,
                        "embedding": res.embedding,
                    }
        return best

    def run():
        report = ExperimentReport(
            name="Pipeline overlap",
            title=f"streamed vs buffered, shm vs pickle ({graph.n_nodes} nodes, "
            f"{N_WORKERS} workers, {os.cpu_count()} core(s), {EXEC_BACKEND})",
            columns=[
                "negative_source", "transport", "total (s)", "train (s)",
                "stall (s)", "overlap", "IPC (KiB)", "peak buffered walks",
            ],
        )
        rows = {}
        measured = measure_all()
        for source, transport in VARIANTS:
            best = measured[source, transport]
            report.add_row(
                source,
                transport,
                round(best["total_s"], 2),
                round(best["train_s"], 2),
                round(best["wait_s"], 2),
                f"{best['overlap']:.0%}",
                round(best["ipc_walk_bytes"] / 1024, 1),
                best["peak"],
            )
            rows[f"{source}/{transport}"] = best
        report.data = rows
        report.add_note(
            "corpus = buffer-then-train (paper-exact sampler, O(corpus) "
            "memory); degree = degree-bootstrapped sampler, streaming from "
            "the first chunk; min of %d interleaved runs each" % REPEATS
        )
        report.add_note(
            "pickle = chunks serialized through the pool result pipe; "
            "shm = chunks written into a shared-memory ring (IPC column: "
            "walk payload bytes that crossed the pickle channel)"
        )
        if not multicore:
            report.add_note(
                "single-core host: generation and training time-slice, so "
                "wall-clock parity is the ceiling — the streamed/shm wins "
                "here are stall, IPC bytes and memory, not time"
            )
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(report)
    rows = report.data
    buffered = rows["corpus/pickle"]
    streamed = rows["degree/pickle"]
    shm = rows["degree/shm"]
    # the pipeline's own window for this worker count, not a copied formula
    window = ParallelWalkGenerator(graph, n_workers=N_WORKERS).prefetch

    # ---------------- streaming vs buffering (PR 1 invariants) ----------
    if multicore:
        # ≥2 cores: generation genuinely overlaps training — the streamed
        # pipeline must beat buffer-then-train on wall-clock outright
        assert streamed["total_s"] < buffered["total_s"]
    else:
        # 1 core: the stages time-slice; streaming must not cost more than
        # a small scheduling overhead over the buffered baseline
        assert streamed["total_s"] < buffered["total_s"] * 1.25
    # the streamed run hides generation behind training: less stall,
    # higher overlap efficiency — on any core count
    assert streamed["wait_s"] < buffered["wait_s"]
    assert streamed["overlap"] > buffered["overlap"]
    # bounded memory: peak buffered walks ≤ the window, while the
    # buffered baseline holds the entire corpus
    assert streamed["peak"] <= window * CHUNK_SIZE
    assert buffered["peak"] == buffered["n_walks"]
    # both train the same corpus (the sampler differs, the walks do not)
    assert streamed["n_walks"] == buffered["n_walks"]
    assert not np.array_equal(streamed["embedding"], buffered["embedding"])

    # ---------------- shm vs pickle transport ---------------------------
    # the transport moves bits, never changes them — holds even when the
    # shm variant fell back to pickling on a host without shared memory
    assert streamed["transport"] == "pickle"
    assert np.array_equal(shm["embedding"], streamed["embedding"])
    assert streamed["ipc_walk_bytes"] > 0
    # same streaming structure: the window bound is transport-independent
    assert shm["peak"] <= window * CHUNK_SIZE
    if shm["transport"] == "shm":
        # the zero-copy win, counted exactly: the pickle channel carried
        # the whole corpus for the pickle transport and nothing for shm
        assert shm["ipc_walk_bytes"] == 0
        if multicore:
            # with real overlap the serialization cost is the visible
            # difference; shm must not stall or run longer than pickle
            # beyond a noise band (min-of-REPEATS keeps this stable)
            assert shm["total_s"] <= streamed["total_s"] * 1.15
            assert shm["wait_s"] <= streamed["wait_s"] + max(
                0.05, 0.25 * streamed["wait_s"]
            )
        else:
            # 1 core: time-sliced stages; shm must stay within the same
            # scheduling-overhead band streaming holds vs buffering
            assert shm["total_s"] <= streamed["total_s"] * 1.25
