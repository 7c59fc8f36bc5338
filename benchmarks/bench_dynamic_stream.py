"""Dynamic-stream benches: the incremental CSR delta engine on a
high-rate replay, and the online "decayed" source vs the frozen
"corpus" source on the concept-drift scenario.

``test_dynamic_stream_delta`` replays a config-model (degree-corrected
SBM) burst at ``edges_per_event=1`` and CI-gates the **event rate**:
incremental ``DynamicGraph.apply`` (vectorized ``CSRGraph.insert_edges``
merge) must sustain ≥ 3× the event rate of the legacy engine (Python
edge-set + full ``from_edges`` re-sort per event; re-implemented here as
the baseline).

The same test gates the **walk-path crossover**: it times the pipeline's
chunk walker (``repro.parallel.pipeline._run_chunk``) on the replayed
graph at an event's shape (both endpoints of an edge, twice: 4 walks ×
20 steps) and at twice ``LOCKSTEP_MIN_WALKS``, once down the per-walk
path and once in lockstep.  Below the constant the per-walk path must not
be slower (lockstep time / per-walk time ≥ 1.0), so a change to either
walker cannot silently move the crossover; the ratio at twice the
constant is reported, not gated.

``test_dynamic_stream_drift`` compares negative sources.  Both training
phases of :func:`repro.dynamic.run_drift_scenario` run through the
streaming pipeline (2 walk workers), so the comparison isolates the
negative-source layer:

* **corpus** — paper-exact frozen sampler; buffers each phase's corpus
  while it counts it (no overlap in that pass) and never adapts after it;
* **decayed** — degree bootstrap + exponentially-decayed streaming
  frequency folds with an alias rebuild every K virtual chunks; pays the
  per-chunk ``walk_frequencies`` + periodic O(n) rebuilds instead of a
  buffered pass, and keeps tracking the post-drift visit distribution.

Reported per variant: accuracy trajectory (micro-F1 before / right after
the rewire / recovered), recovery fraction, total wall-clock, stall
fraction (consumer wait share of wall-clock) and the sampler rebuild count
— the knobs-vs-overhead record the ROADMAP's online-source sketch asked
for.  Assertions stay structural (the drift must hurt, retraining must
help, rebuilds must fire exactly for the decayed source) so the bench is
stable on any host; the accuracy gap itself is trajectory data for the
uploaded ``BENCH_*.json``.
"""

import sys
import time

import numpy as np

from repro.dynamic.drift import run_drift_scenario
from repro.experiments.hyper import Node2VecParams
from repro.experiments.report import ExperimentReport
from repro.graph import cora_like
from repro.graph.components import forest_split
from repro.graph.csr import CSRGraph
from repro.graph.dynamic import DynamicGraph, edge_stream
from repro.graph.generators import degree_corrected_sbm
from repro.parallel import pipeline
from repro.sampling.lockstep import LOCKSTEP_MIN_WALKS, WalkBatch
from repro.sampling.sources import DecayedSource
from repro.sampling.walks import WalkParams

N_WORKERS = 2
#: the dynamic replay's walks: node2vec at the paper's p, q and l = 20
EVENT_WALK = WalkParams(p=0.5, q=1.0, length=20)


class _LegacyEngine:
    """The pre-delta snapshot engine, kept here as the baseline: a Python
    edge set plus a full ``from_edges`` re-sort on every snapshot — O(m)
    per event no matter how small the event is."""

    def __init__(self, initial: CSRGraph):
        self.n = initial.n_nodes
        self._labels = initial.node_labels
        self._edges = {(int(u), int(v)) for u, v in initial.edge_array()}

    def apply(self, event) -> CSRGraph:
        for u, v in event.edges:
            u, v = int(u), int(v)
            self._edges.add((min(u, v), max(u, v)))
        return CSRGraph.from_edges(
            self.n, np.array(sorted(self._edges)), node_labels=self._labels
        )


def _replay_rate(engine_apply, removed, n_events):
    """Wall-clock an ``edges_per_event=1`` replay; returns (events/s, snap)."""
    snap = None
    t0 = time.perf_counter()
    for event in edge_stream(removed, edges_per_event=1, max_events=n_events):
        snap = engine_apply(event)
    elapsed = time.perf_counter() - t0
    return n_events / elapsed if elapsed else float("inf"), snap


def _chunk_rate(graph, chunks, lockstep, monkeypatch):
    """``_run_chunk`` calls per second over ``chunks`` (``(lo, starts)``
    pairs), every chunk forced down one path."""
    monkeypatch.setattr(pipeline, "LOCKSTEP_MIN_WALKS", 0 if lockstep else sys.maxsize)
    t0 = time.perf_counter()
    for lo, starts in chunks:
        pipeline._run_chunk(graph, EVENT_WALK, starts, 0, lo)
    return len(chunks) / (time.perf_counter() - t0)


def _walk_paths(graph, edges, n_walks, n_chunks, monkeypatch, rounds=5):
    """Best-of-``rounds`` chunk rate of each path (rounds alternate the
    paths) on chunks of ``n_walks`` walks, two from each endpoint of
    consecutive replayed edges (4 walks: one event's chunk); returns
    ``(per_walk_rate, lockstep_rate)``."""
    ends = edges.reshape(-1)
    chunks = [
        (k * n_walks, np.resize(np.roll(ends, -2 * k)[: n_walks // 2], n_walks))
        for k in range(n_chunks)
    ]
    lo, starts = chunks[0]
    monkeypatch.setattr(pipeline, "LOCKSTEP_MIN_WALKS", sys.maxsize)
    per_walk, _ = pipeline._run_chunk(graph, EVENT_WALK, starts, 0, lo)
    monkeypatch.setattr(pipeline, "LOCKSTEP_MIN_WALKS", 0)
    lockstep, _ = pipeline._run_chunk(graph, EVENT_WALK, starts, 0, lo)
    assert np.array_equal(  # same walks either way
        WalkBatch.from_walks(per_walk, EVENT_WALK.length).data, lockstep.data
    )
    rates: dict[bool, list[float]] = {False: [], True: []}
    for _ in range(rounds):
        for path in (False, True):
            rates[path].append(_chunk_rate(graph, chunks, path, monkeypatch))
    monkeypatch.undo()
    return max(rates[False]), max(rates[True])


def test_dynamic_stream_delta(benchmark, emit_report, profile, monkeypatch):
    n_nodes = 2000 if profile == "paper" else 800
    n_events = 400 if profile == "paper" else 200
    graph = degree_corrected_sbm(n_nodes, 4, avg_degree=8, seed=0)
    split = forest_split(graph, seed=0)
    removed = split.removed_edges
    n_events = min(n_events, removed.shape[0])

    def run():
        report = ExperimentReport(
            name="Dynamic delta",
            title=(
                "incremental CSR engine on a config-model burst "
                f"({graph.n_nodes} nodes, {graph.n_edges} edges, "
                "edges_per_event=1)"
            ),
            columns=["variant", "calls", "calls/s", "speedup"],
        )

        # -- engine microbench: snapshot-per-event rate, no training --------
        legacy = _LegacyEngine(split.initial)
        legacy_rate, legacy_snap = _replay_rate(legacy.apply, removed, n_events)
        dyn = DynamicGraph(graph.n_nodes, initial=split.initial)
        incr_rate, incr_snap = _replay_rate(dyn.apply, removed, n_events)
        assert incr_snap == legacy_snap  # same replay, same graph
        for label, rate, speedup in (
            ("legacy rebuild (engine)", legacy_rate, ""),
            ("incremental merge (engine)", incr_rate, round(incr_rate / legacy_rate, 2)),
        ):
            report.add_row(label, n_events, round(rate, 1), speedup)
            report.data[label] = {"events": n_events, "events_per_s": rate}

        # -- walk paths: per-walk vs lockstep chunks on the replayed graph --
        walked = removed[:n_events]
        for n_walks, n_chunks in ((4, 200), (2 * LOCKSTEP_MIN_WALKS, 40)):
            per_walk, lockstep = _walk_paths(incr_snap, walked, n_walks, n_chunks, monkeypatch)
            label = f"{n_walks} walks x {EVENT_WALK.length}"
            report.add_row(f"lockstep walk ({label})", n_chunks, round(lockstep, 1), "")
            report.add_row(
                f"per-walk walk ({label})", n_chunks, round(per_walk, 1),
                round(per_walk / lockstep, 2),
            )
            report.data[f"walk paths ({label})"] = {
                "walks": n_walks,
                "chunks": n_chunks,
                "per_walk_chunks_per_s": per_walk,
                "lockstep_chunks_per_s": lockstep,
                "per_walk_vs_lockstep": per_walk / lockstep,
            }
        report.add_note(
            "engine rows: snapshot-per-event replay with no training; the "
            "legacy baseline re-sorts the full edge set every event, the "
            "incremental engine merges the event into the live CSR"
        )
        report.add_note(
            "walk rows: _run_chunk on the replayed graph, every chunk forced "
            "down one path (best of 5 alternating rounds); speedup = lockstep "
            f"time / per-walk time; LOCKSTEP_MIN_WALKS = {LOCKSTEP_MIN_WALKS}"
        )
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(report)

    # CI gate: the incremental engine sustains >= 3x the legacy event rate
    legacy = report.data["legacy rebuild (engine)"]["events_per_s"]
    incr = report.data["incremental merge (engine)"]["events_per_s"]
    assert incr >= 3.0 * legacy, (incr, legacy)
    # CI gate: below LOCKSTEP_MIN_WALKS the per-walk path is not slower
    event = report.data[f"walk paths (4 walks x {EVENT_WALK.length})"]
    assert event["per_walk_vs_lockstep"] >= 1.0, event

VARIANTS = (
    ("corpus (frozen)", "corpus"),
    (
        "decayed (online)",
        DecayedSource(decay=0.95, rebuild_every=2, virtual_chunk=128),
    ),
)


def test_dynamic_stream_drift(benchmark, emit_report, profile):
    scale = 0.3 if profile == "paper" else 0.12
    graph = cora_like(scale=scale, seed=0)
    hyper = Node2VecParams(r=3, l=40, w=8, ns=5)

    def run():
        report = ExperimentReport(
            name="Dynamic stream",
            title=(
                "decayed vs corpus negative source on the drift scenario "
                f"({graph.n_nodes} nodes, {N_WORKERS} workers)"
            ),
            columns=[
                "source", "before", "after drift", "recovered", "recovery",
                "total (s)", "stall frac", "sampler rebuilds",
            ],
        )
        for label, source in VARIANTS:
            res = run_drift_scenario(
                graph, model="proposed", dim=32, hyper=hyper,
                drift_fraction=0.25, seed=1, n_workers=N_WORKERS,
                negative_source=source, model_kwargs={"mu": 0.05},
            )
            phases = res.extras["telemetry"]
            total_s = sum(t.total_s for t in phases)
            wait_s = sum(t.wait_s for t in phases)
            rebuilds = sum(t.sampler_rebuilds for t in phases)
            report.add_row(
                label,
                round(res.f1_before, 3),
                round(res.f1_after_drift, 3),
                round(res.f1_recovered, 3),
                f"{res.recovery:.0%}",
                round(total_s, 2),
                f"{wait_s / total_s:.0%}" if total_s else "n/a",
                rebuilds,
            )
            report.data[label] = {
                "result": res,
                "total_s": total_s,
                "wait_s": wait_s,
                "sampler_rebuilds": rebuilds,
                "n_chunks": sum(t.n_chunks for t in phases),
            }
        report.add_note(
            "corpus buffers each phase's walks while it counts them, for a "
            "frozen paper-exact sampler; decayed streams and folds "
            "frequencies online (rebuild every 2 virtual chunks of 128 walks)"
        )
        report.add_note(
            "both phases of the drift scenario run through train_parallel "
            "with 2 walk workers; stall frac = consumer wait / wall-clock"
        )
        return report

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    emit_report(report)

    frozen = report.data["corpus (frozen)"]
    online = report.data["decayed (online)"]
    for label, cell in report.data.items():
        res = cell["result"]
        # the drift must genuinely hurt, and retraining must genuinely help
        assert res.f1_after_drift < res.f1_before - 0.03, label
        assert res.f1_recovered > res.f1_after_drift + 0.03, label
    # the rebuild ledger: online folds fire, the frozen sampler never does
    assert online["sampler_rebuilds"] > 0
    assert frozen["sampler_rebuilds"] == 0
