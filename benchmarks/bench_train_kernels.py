"""Training-kernel bench: the per-backend × per-model walks/s matrix.

PRs 1–3 made walk generation stream; the consumer — per-context Python
loops over tiny NumPy ops — became the pipeline's bottleneck, exactly the
PS/PL boundary the paper moves into hardware.  The kernel layer
(:mod:`repro.embedding.kernels`) batches that hot path; this bench is its
gate: for every registry model × every registry backend it times
``WalkTrainer.train_corpus`` over one pre-generated corpus and reports
walks/s plus each backend's speedup over ``"reference"``.

Timing isolates the *training* stage (walks and the sampler are built once
outside the timed region), so the numbers are the ``train_walks_per_s``
telemetry the pipeline reports, free of generation noise.  Scored by the
max walks/s of ``REPEATS`` runs (the scheduler-noise-free estimate).

Assertions: ``"fused"`` must hold ≥ 3× reference throughput for the
``"original"`` SGD model (the per-window Python loop the fused kernels
exist to kill), ``"blocked"`` must hold ≥ 3× reference for the paper's
``"proposed"`` OS-ELM model (the rank-k RLS block solve this backend
exists for — ``"fused"`` only managed ~1.3× because Algorithm 1 ran one
tiny matvec per context), ``"compiled"`` must hold ≥ 5× reference for
``"original"`` **when numba is installed** (without it the entry runs the
warned reference fallback — held only to the parity band, and the report
records ``numba_available`` so the committed JSON stays honest), and no
model may regress below parity-with-noise under any backend.  The
chunk-deferred ``batch_rls`` model gets a headline row of its own
(``batch_rls@chunk``, span-aware backends only): at ``defer_span="chunk"``
under ``"blocked"`` it must hold ≥ 2× the contexts/s of ``"proposed"``
under ``"blocked"`` — the rank-k span solve amortized chunk-wide.  The
``BENCH_*.json`` twin is uploaded by CI, so the walks/s trajectory — now
including OS-ELM throughput — is tracked PR over PR.
"""

import time

import numpy as np

from repro.embedding import WalkTrainer, make_model
from repro.embedding.compiled import NUMBA_AVAILABLE
from repro.embedding.kernels import EXEC_BACKENDS
from repro.experiments.hyper import Node2VecParams
from repro.experiments.report import ExperimentReport
from repro.graph import amazon_photo_like
from repro.sampling.negative import NegativeSampler
from repro.sampling.walks import Node2VecWalker

MODELS = ("original", "proposed", "dataflow", "block", "batch_rls")
REPEATS = 2

#: acceptance floors: the backend that exists for a model must deliver
MIN_SPEEDUP = {
    ("original", "fused"): 3.0,
    ("proposed", "blocked"): 3.0,
}
#: the chunk-deferred headline: batch_rls at defer_span="chunk" under
#: "blocked" must deliver >= this many contexts/s per "proposed" under
#: "blocked" — the whole point of owning cross-walk spans (hundreds of
#: per-walk solves collapse into a handful of chunk-wide GEMMs)
BATCH_RLS_MIN_CONTEXTS_SPEEDUP = 2.0
if NUMBA_AVAILABLE:
    # the compiled backend's raison d'être: the reference per-window SGD
    # loop, bit-identical but JIT-compiled.  Gated only when numba is
    # importable — the fallback IS reference (parity band below applies).
    MIN_SPEEDUP[("original", "compiled")] = 5.0
#: no model may regress below parity minus noise under any backend
MIN_SPEEDUP_ANY = 0.8


def test_train_kernels(benchmark, emit_report, profile):
    scale = 0.25 if profile == "paper" else 0.06
    graph = amazon_photo_like(scale=scale, seed=0)
    hyper = Node2VecParams(r=2, l=40, w=8, ns=10)

    walker = Node2VecWalker(graph, hyper.walk_params(), seed=1)
    walks = walker.simulate()

    def measure(model_name, backend, **model_kwargs):
        best = None
        for _ in range(REPEATS):
            model = make_model(model_name, graph.n_nodes, 32, seed=7, **model_kwargs)
            trainer = WalkTrainer(
                model, window=hyper.w, ns=hyper.ns, exec_backend=backend
            )
            sampler = NegativeSampler.from_walks(walks, graph.n_nodes, seed=2)
            t0 = time.perf_counter()
            trainer.train_corpus(walks, sampler)
            train_s = time.perf_counter() - t0
            wps = trainer.n_walks / train_s
            if best is None or wps > best["walks_per_s"]:
                best = {
                    "walks_per_s": wps,
                    "contexts_per_s": trainer.n_contexts / train_s,
                    "train_s": train_s,
                    "n_walks": trainer.n_walks,
                    "n_contexts": trainer.n_contexts,
                    # what ran: "compiled[fallback=reference]" without numba
                    "backend": trainer.backend.telemetry_name,
                }
        return best

    def ratio(res, speedup):
        # a degraded backend ran the reference path: its ratio to reference
        # is timing noise, not a speedup
        return "fallback" if "fallback=" in res["backend"] else f"{speedup:.2f}x"

    def run():
        report = ExperimentReport(
            name="Train kernels",
            title=(
                "execution-backend matrix: walks/s per model "
                f"({graph.n_nodes} nodes, {len(walks)} walks, dim 32)"
            ),
            columns=["model"]
            + [f"{b} walks/s" for b in EXEC_BACKENDS]
            + [f"{b} ×ref" for b in EXEC_BACKENDS if b != "reference"],
        )
        rows = {}
        for model_name in MODELS:
            per_backend = {b: measure(model_name, b) for b in EXEC_BACKENDS}
            ref = per_backend["reference"]
            speedups = {
                b: per_backend[b]["walks_per_s"] / ref["walks_per_s"]
                for b in EXEC_BACKENDS
            }
            report.add_row(
                model_name,
                *(round(per_backend[b]["walks_per_s"], 1) for b in EXEC_BACKENDS),
                *(
                    ratio(per_backend[b], speedups[b])
                    for b in EXEC_BACKENDS
                    if b != "reference"
                ),
            )
            rows[model_name] = {**per_backend, "speedup": speedups}
        # the chunk-deferred headline row: batch_rls at defer_span="chunk"
        # runs only under the span-aware backends (reference/compiled feed
        # one walk at a time and reject it), so it sits outside the matrix
        span_backends = ("fused", "blocked")
        per_backend = {
            b: measure("batch_rls", b, defer_span="chunk") for b in span_backends
        }
        ref = rows["batch_rls"]["reference"]  # the walk-span degeneration
        speedups = {
            b: per_backend[b]["walks_per_s"] / ref["walks_per_s"]
            for b in span_backends
        }
        report.add_row(
            "batch_rls@chunk",
            *(
                round(per_backend[b]["walks_per_s"], 1) if b in span_backends else "-"
                for b in EXEC_BACKENDS
            ),
            *(
                f"{speedups[b]:.2f}x" if b in span_backends else "-"
                for b in EXEC_BACKENDS
                if b != "reference"
            ),
        )
        rows["batch_rls@chunk"] = {**per_backend, "speedup": speedups}
        report.data = rows
        report.add_note(
            "walks/s inside WalkTrainer.train_corpus (train stage only; "
            "corpus and sampler built outside the timed region); max of "
            f"{REPEATS} runs each"
        )
        report.add_note(
            "fused = bulk negative draw + batched per-walk gather/scatter "
            "(FUSED_RTOL contract); blocked = fused draws + rank-k Woodbury "
            "block solves for the OS-ELM RLS recursion, sequential gains, "
            "one bincount+GEMM scatter pass per block (BLOCKED_RTOL "
            "contract, O(mu^2*k) staleness)"
        )
        report.add_note(
            "gates: fused >= 3x reference for 'original', blocked >= 3x "
            "reference for 'proposed', compiled >= 5x reference for "
            "'original' when numba is installed, no model below 0.8x "
            "anywhere; batch_rls@chunk under blocked >= 2x the contexts/s "
            "of 'proposed' under blocked (the chunk-deferred rank-k span "
            "headline; its x-ref column is vs the model's own walk-span "
            "reference run)"
        )
        report.add_note(
            "numba_available="
            + ("true (compiled = JIT kernels)" if NUMBA_AVAILABLE else
               "false (compiled = warned bit-identical reference fallback; "
               "5x gate waived, parity band still enforced)")
        )
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(report)
    rows = report.data

    # the acceptance headlines: the per-window SGD loop must vectorize away
    # (fused), and the paper's own model must ride the rank-k block solve
    # (blocked) instead of being left interpreter-bound
    for (model_name, backend), floor in MIN_SPEEDUP.items():
        assert rows[model_name]["speedup"][backend] >= floor, (
            f"{backend} {model_name} only "
            f"{rows[model_name]['speedup'][backend]:.2f}x over reference"
        )
    # the batch_rls headline: chunk-wide spans must beat the per-walk
    # rank-k solve by a clear margin, measured in contexts/s against the
    # strongest prior OS-ELM configuration ('proposed' under 'blocked')
    chunk_cps = rows["batch_rls@chunk"]["blocked"]["contexts_per_s"]
    proposed_cps = rows["proposed"]["blocked"]["contexts_per_s"]
    assert chunk_cps >= BATCH_RLS_MIN_CONTEXTS_SPEEDUP * proposed_cps, (
        f"batch_rls@chunk/blocked {chunk_cps:.0f} contexts/s is only "
        f"{chunk_cps / proposed_cps:.2f}x proposed/blocked ({proposed_cps:.0f})"
    )
    # the chunk row trained the same corpus as everyone else
    for backend in ("fused", "blocked"):
        res = rows["batch_rls@chunk"][backend]
        assert res["n_walks"] == len(walks), backend
        assert res["n_contexts"] == rows["batch_rls"]["reference"]["n_contexts"]
    # no model regresses under any backend (parity band for the
    # already-vectorized deferred models)
    for model_name in MODELS:
        for backend in EXEC_BACKENDS:
            assert rows[model_name]["speedup"][backend] >= MIN_SPEEDUP_ANY, (
                model_name,
                backend,
            )
            res = rows[model_name][backend]
            # every backend consumed the same corpus
            assert res["n_walks"] == len(walks), (model_name, backend)
            assert res["n_contexts"] == rows[model_name]["reference"]["n_contexts"]
            # sanity: throughputs are finite and positive
            assert np.isfinite(res["walks_per_s"]) and res["walks_per_s"] > 0
            assert np.isfinite(res["contexts_per_s"]) and res["contexts_per_s"] > 0
