"""The five workloads: inputs generated from the seed, the timed loop, the
client-side measurements and the correctness checks.

Every rep of every workload runs the whole path: ingest (training on a
static corpus or an edge-event stream, or a writer publishing table
updates) -> store publish -> a block of served queries read from that same
store.  Spreading the serving samples over the reps, taking rates as
medians over short windows, and serving from the faster CPU keep short
slow spells of the shared host out of the medians; the host-speed probe
(:func:`probe_host`) takes out the slow spells that cover a whole run.  The
program under test only receives the generated inputs and is driven through
``train_parallel``, ``DynamicGraph.walk_tasks``, the embedding store and
``EmbeddingService``.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
import os
import resource
import statistics
import time
from collections import defaultdict
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any

import numpy as np

from benchmarks.e2e.trace import (
    StampedStore,
    TracedDecayedSource,
    TracedStore,
    Tracer,
    durations,
    traced_backend,
)
from repro.evaluation import evaluate_embedding
from repro.experiments.hyper import Node2VecParams
from repro.graph import DynamicGraph, degree_corrected_sbm, edge_stream, forest_split
from repro.hw.cpu import CORE_I7_11700
from repro.parallel import WalkTask, train_parallel
from repro.serving import EmbeddingService

DIM = 32
N_WORKERS = 2
CHUNK_SIZE = 256
BACKEND = "blocked"
#: set-ups per run; setup_s is their median
N_SETUPS = 9
#: serving steps of the training workloads: GETS_PER_STEP gets, one
#: link-score batch of SCORE_PAIRS pairs and one top-TOP_K query; after
#: each ingest the client serves for SERVE_SHARE of the ingest's wall time,
#: so every workload spends about the same share of its run serving, however
#: long one ingest takes (the open-loop replay fits one rep in a run)
GETS_PER_STEP = 10
SERVE_SHARE = 0.3
SCORE_PAIRS = 256
TOP_K = 10
#: walks started from each endpoint of a replayed edge
WALKS_PER_ENDPOINT = 2
#: consecutive serving steps, replayed events or churn publishes per
#: window; the rates are medians over windows
WINDOW = 50
#: served rows compared against the published table per rep
N_VERIFY = 64
#: serve-churn: planted classes, within-class spread, share of rows each
#: round rewrites, gets per serving step (4 steps per round), rows
#: classified for micro_f1
CHURN_CLASSES = 8
CHURN_SIGMA = 1.0
CHURN_ROW_FRAC = 0.005
CHURN_GETS_PER_STEP = 50
CHURN_F1_ROWS = 4000
#: host-speed probe (probe_host): each part best of PROBE_REPEATS, timed on
#: each CPU; timings are reported at the host speed where it takes
#: PROBE_REF_S (on the 2-vCPU Xeon VM the bounds were measured on it took
#: 0.45-1.4 ms)
PROBE_REPEATS = 2
PROBE_REF_S = 0.6e-3


@dataclass(frozen=True)
class Scale:
    static_nodes: int = 1000
    dyn_nodes: int = 1000
    events: int = 1000
    live_rate: float = 100.0
    #: length of the training workloads' query stream, in steps
    serve_steps: int = 1000
    churn_rows: int = 20_000
    #: churn rounds per rep
    churn_rounds: int = 250
    #: 90/10 splits micro_f1 averages over
    f1_trials: int = 20


SCALES = {
    "full": Scale(),
    "smoke": Scale(
        static_nodes=300, dyn_nodes=300, events=60, live_rate=400.0,
        serve_steps=WINDOW, churn_rows=2000, churn_rounds=WINDOW, f1_trials=1,
    ),
}


@dataclass(frozen=True)
class TrainSpec:
    model: str
    walk_length: int
    #: walks per node of the static corpus (the replay uses WALKS_PER_ENDPOINT)
    r: int
    dynamic: bool
    open_loop: bool = False
    model_kwargs: tuple[tuple[str, Any], ...] = ()


TRAIN = {
    "static-proposed": TrainSpec("proposed", 40, 2, dynamic=False),
    # about as many contexts as static-proposed, in half as many walks
    "static-walkbound": TrainSpec(
        "batch_rls", 80, 1, dynamic=False, model_kwargs=(("defer_span", "chunk"),)
    ),
    "dynamic-burst": TrainSpec("proposed", 20, 2, dynamic=True),
    "dynamic-live": TrainSpec("proposed", 20, 2, dynamic=True, open_loop=True),
}


@dataclass
class Result:
    """What one workload invocation measured and checked."""

    metrics: dict[str, float] = field(default_factory=dict)
    #: the end-to-end metrics as timed, before the host-speed correction,
    #: and the host's median slowdown against the probe's reference
    as_timed: dict[str, float] = field(default_factory=dict)
    slowdown: dict[str, float] = field(default_factory=dict)
    #: client-side p99s, reported but not gated
    tails: dict[str, float] = field(default_factory=dict)
    #: samples behind each timing metric
    counts: dict[str, int] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    #: (check, passed) in the order run
    checks: list[tuple[str, bool]] = field(default_factory=list)
    flags: list[str] = field(default_factory=list)
    exec_backend: str = ""
    digest: str = ""
    tracer: Tracer | None = None
    #: per traced training rep: its span slice and pipeline telemetry
    trace_reps: list[dict] = field(default_factory=list)

    def check(self, what: str, n_bad: int) -> None:
        """Record a check over already-attempted operations; ``n_bad`` of
        them produced a wrong output."""
        self.checks.append((what, n_bad == 0))
        self.failed += n_bad


@dataclass
class Rep:
    """One measured rep: ingest, then a block of served queries."""

    ingest_rates: list[float]  # contexts/s per call, or events/s or rows/s per window
    fresh: list[float]  # update due -> publish return, seconds
    late: list[float]  # how late the open-loop generator released events
    uncovered: int  # updates no publish made queryable
    table: np.ndarray  # the table the last publish holds
    bad: int  # served rows differing from the published table
    served: np.ndarray  # rows read back through the service, for micro_f1
    hit_rate: float
    misses: int
    elapsed: float  # the whole rep
    telemetry: Any = None
    traced: bool = False
    spans: tuple[int, int] = (0, 0)
    counters: dict = field(default_factory=dict)


def _seeds(seed: int, n: int) -> list[int]:
    return [int(s.generate_state(1)[0]) for s in np.random.SeedSequence(seed).spawn(n)]


def _pct(samples: list[float], q: float) -> float:
    return float(np.percentile(samples, q)) if samples else 0.0


def _p99(samples: list[float]) -> float:
    """The p99, or 0 when fewer than 10 samples would lie beyond it."""
    return _pct(samples, 99) if len(samples) >= 1000 else 0.0


def _window_rates(item_s: list[float], per_item: float) -> list[float]:
    """Work per second over consecutive windows of ``WINDOW`` items, each
    item taking ``item_s[i]`` seconds for ``per_item`` units of work."""
    n = len(item_s) // WINDOW
    sums = np.asarray(item_s[: n * WINDOW]).reshape(n, WINDOW).sum(axis=1)
    return list(WINDOW * per_item / sums)


def _digest(table: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(table).tobytes()).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest reaped child."""
    kib = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )
    return kib / 1024.0


def _rep_loop(run_rep, seconds: float, min_reps: int) -> list[Rep]:
    """Run reps until the next one would overrun ``seconds``."""
    reps: list[Rep] = []
    t0 = perf_counter()
    while True:
        reps.append(run_rep(len(reps)))
        elapsed = perf_counter() - t0
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > seconds:
            return reps


def _measure(setup, rep, seconds: float, trace: bool):
    """``N_SETUPS`` set-ups (``setup()`` builds the inputs and warms the
    system up), one untimed warm-up rep, then the timed reps; a traced run
    alternates untraced and traced reps.  ``rep(inputs, i, tracer, lat)``
    runs rep ``i`` (-1 = warm-up), adding its client latencies to ``lat``.
    The host is probed before each set-up and each rep; ``setups["setup"]``
    holds the set-up times, beside their probes."""
    setups: dict[str, list[float]] = defaultdict(list)
    for _ in range(N_SETUPS):
        probe_host(setups)
        t = perf_counter()
        inp = setup()
        setups["setup"].append(perf_counter() - t)
    ref = rep(inp, -1, None, defaultdict(list))
    tracer = Tracer() if trace else None
    lat: dict[str, list[float]] = defaultdict(list)

    def one(i: int) -> Rep:
        traced = tracer is not None and i % 2 == 1
        # traced reps keep their latencies out of the end-to-end samples
        rep_lat = defaultdict(list) if traced else lat
        probe_host(rep_lat)
        return rep(inp, i, tracer if traced else None, rep_lat)

    reps = _rep_loop(one, seconds, 2 if trace else 1)
    return inp, setups, ref, reps, lat, tracer


# --------------------------------------------------------------------------- #
# Client side: the query stream and the closed-loop serving client
# --------------------------------------------------------------------------- #


@dataclass
class Queries:
    gets: np.ndarray  # (steps, gets per step) node ids, hot-skewed
    pairs: np.ndarray  # (steps, SCORE_PAIRS, 2)
    topk: np.ndarray  # (steps,)

    @property
    def per_step(self) -> int:
        return self.gets.shape[1] + 2


def make_queries(n_nodes: int, steps: int, gets_per_step: int, seed: int) -> Queries:
    """80% of the gets go to a hot 10% of the nodes."""
    rng = np.random.default_rng(seed)
    hot = rng.choice(n_nodes, size=max(1, n_nodes // 10), replace=False)
    n = steps * gets_per_step
    gets = np.where(
        rng.random(n) < 0.8, rng.choice(hot, size=n), rng.integers(0, n_nodes, size=n)
    )
    return Queries(
        gets.reshape(steps, gets_per_step),
        rng.integers(0, n_nodes, size=(steps, SCORE_PAIRS, 2)),
        rng.integers(0, n_nodes, size=steps),
    )


# the probe's inputs: a 4 MiB table gathered at random rows, and a vector
_PROBE_ROWS = np.random.default_rng(0).standard_normal((1 << 16, 8))
_PROBE_IDX = np.random.default_rng(1).integers(0, 1 << 16, 8192)
_PROBE_VEC = np.random.default_rng(2).standard_normal(32)


def _probe_s() -> float:
    """The probe on the current CPU: a pure-Python loop, small numpy calls
    and a cache-missing gather, the three kinds of work the program does;
    each part takes about a third of the time."""
    best = [math.inf] * 3
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        sum(range(10_000))
        t1 = perf_counter()
        for _ in range(150):
            float(_PROBE_VEC @ _PROBE_VEC)
        t2 = perf_counter()
        _PROBE_ROWS[_PROBE_IDX].sum()
        t3 = perf_counter()
        best = [min(b, x) for b, x in zip(best, (t1 - t0, t2 - t1, t3 - t2), strict=True)]
    return sum(best)


def probe_host(lat: dict, move: bool = False) -> None:
    """Time the probe on each CPU; append the mean over the CPUs to
    ``lat["host_mean"]`` and the fastest to ``lat["host_fast"]``.

    The shared host's speed drifts by up to 2x for minutes at a time, which
    no median within a run removes.  Compute-bound timings are therefore
    reported at the reference speed, scaled by PROBE_REF_S over a probe
    time: each client timing by the probe of the CPU its window ran on, and
    set-up and training, which use both CPUs, by the run's median mean over
    the CPUs.  The probe is the benchmark's own code and runs while the
    program is idle, so a change to the program moves the timings and not
    the probe.

    With ``move``, the thread is left on the fastest CPU: one vCPU can run
    at half speed for seconds (a busy neighbour on its sibling core), and
    the serving client and the service it calls run in this one thread and
    never block, so it stays there; without this a run's median latency
    flipped between two modes.  The CPU set is restored at once: nothing
    stays pinned, and a thread the program starts may run on any CPU.
    """
    cpus = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else set()
    if len(cpus) < 2:
        probe = {0: _probe_s()}
    else:
        probe = {}
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            probe[cpu] = _probe_s()
        os.sched_setaffinity(0, {min(probe, key=probe.get)} if move else cpus)
        os.sched_setaffinity(0, cpus)
    lat["host_mean"].append(statistics.fmean(probe.values()))
    lat["host_fast"].append(min(probe.values()))


def _record(lat: dict, kind: str, seconds: float) -> None:
    """Append a client timing to ``lat[kind]``, and to ``lat[kind + "@ref"]``
    at the reference speed of the CPU the client was moved to at the start
    of its window."""
    lat[kind].append(seconds)
    lat[kind + "@ref"].append(seconds * PROBE_REF_S / lat["host_fast"][-1])


async def _timed(lat: dict, kind: str, tracer: Tracer | None, rid: int, call) -> None:
    span = tracer.begin("client." + kind, rid) if tracer else -1
    t = perf_counter()
    await call
    _record(lat, kind, perf_counter() - t)
    if tracer:
        tracer.end(span)


async def _serve_steps(service, q: Queries, steps, lat: dict, tracer: Tracer | None) -> None:
    """One client, closed loop: each query is sent when the previous one
    returned.  Step ``s`` sends the queries of step ``s`` modulo the stream
    length.  ``lat["step"]`` gets each step's duration.  Each window of
    steps starts on the CPU that runs the probe fastest (:func:`probe_host`)."""
    per = q.gets.shape[1]
    for s in steps:
        if s % WINDOW == 0:
            probe_host(lat, move=True)
        i = s % len(q.topk)
        t = perf_counter()
        for j, node in enumerate(q.gets[i]):
            await _timed(lat, "get", tracer, s * per + j, service.get_vector(int(node)))
        await _timed(lat, "score", tracer, s, service.score_links(q.pairs[i]))
        await _timed(lat, "topk", tracer, s, service.top_k(int(q.topk[i]), k=TOP_K))
        _record(lat, "step", perf_counter() - t)


async def _serve_for(service, q: Queries, seconds: float, lat: dict, tracer: Tracer | None) -> None:
    """Serve whole windows of steps until ``seconds`` have passed."""
    t_end = perf_counter() + seconds
    s = 0
    while True:
        await _serve_steps(service, q, range(s, s + WINDOW), lat, tracer)
        s += WINDOW
        if perf_counter() >= t_end:
            return


async def _read_back(service, table: np.ndarray, seed: int, rows: np.ndarray):
    """Served vectors of sampled nodes against the published table (returns
    the number of mismatching rows) and the served ``rows`` for micro_f1."""
    nodes = np.random.default_rng(seed).choice(table.shape[0], size=N_VERIFY, replace=False)
    bad = 0
    for n in nodes:
        if not np.array_equal(await service.get_vector(int(n)), table[n]):
            bad += 1
    return bad, await service.get_vectors(rows)


def _micro_f1(served: np.ndarray, labels: np.ndarray, trials: int) -> float:
    return float(
        np.mean([evaluate_embedding(served, labels, seed=k).micro_f1 for k in range(trials)])
    )


# --------------------------------------------------------------------------- #
# Training workloads (static corpus and edge-event replay)
# --------------------------------------------------------------------------- #


@dataclass
class TrainInputs:
    graph: Any  # the base graph handed to train_parallel (the forest if dynamic)
    events: np.ndarray | None  # (n_events, 2) replayed edges, one per event
    hyper: Node2VecParams
    queries: Queries
    train_seed: int


def train_inputs(spec: TrainSpec, seed: int, scale: Scale) -> TrainInputs:
    graph_seed, split_seed, query_seed, train_seed = _seeds(seed, 4)
    if spec.dynamic:
        full = degree_corrected_sbm(scale.dyn_nodes, 4, avg_degree=8, seed=graph_seed)
        split = forest_split(full, seed=split_seed)
        if split.removed_edges.shape[0] < scale.events:
            raise ValueError("graph too small for the event count")
        graph, events = split.initial, split.removed_edges[: scale.events]
        window = 5
    else:
        graph = degree_corrected_sbm(scale.static_nodes, 8, avg_degree=10, seed=graph_seed)
        events, window = None, 8
    hyper = Node2VecParams(r=spec.r, l=spec.walk_length, w=window, ns=5)
    queries = make_queries(graph.n_nodes, scale.serve_steps, GETS_PER_STEP, query_seed)
    return TrainInputs(graph, events, hyper, queries, train_seed)


def _train(inp: TrainInputs, spec: TrainSpec, **kw: Any):
    return train_parallel(
        inp.graph, dim=DIM, model=spec.model, hyper=inp.hyper, n_workers=N_WORKERS,
        chunk_size=CHUNK_SIZE, transport="shm", seed=inp.train_seed,
        **dict(spec.model_kwargs), **kw,
    )


def _feed(tasks, dues: list, late: list, rate: float | None, tracer: Tracer | None):
    """The task iterator handed to ``train_parallel(tasks=...)``.  Open loop
    (``rate``): event i is due at t0 + i/rate and is not released before;
    closed loop: every event is due when the pipeline asks for it.  The
    timer covers only ``next()`` on the replay, i.e. applying the event."""
    it = iter(tasks)
    t0 = None
    i = 0
    while True:
        now = perf_counter()
        if rate is None:
            due = now
        else:
            t0 = now if t0 is None else t0
            due = t0 + i / rate
            if now < due:
                time.sleep(due - now)
        start = perf_counter()
        span = tracer.begin("graph.apply_delta", i) if tracer else -1
        task = next(it, None)
        if tracer:
            tracer.end(span)
        if task is None:
            return
        dues.append(due)
        late.append(start - due)
        yield task
        i += 1


def train_rep(
    inp: TrainInputs, spec: TrainSpec, rep: int, seed: int, lat: dict, *,
    tracer: Tracer | None = None, rate: float | None = None,
) -> Rep:
    n = inp.graph.n_nodes
    store = TracedStore(n, DIM, tracer) if tracer else StampedStore(n, DIM)
    backend = traced_backend(BACKEND, tracer) if tracer else BACKEND
    dues: list[float] = []
    late: list[float] = []
    if spec.dynamic:
        source = TracedDecayedSource(tracer) if tracer else "decayed"
        replay = DynamicGraph(n, initial=inp.graph).walk_tasks(
            edge_stream(inp.events), walks_per_endpoint=WALKS_PER_ENDPOINT
        )
        tasks = _feed(replay, dues, late, rate, tracer)
    else:
        source, tasks = "degree", None
    lo = 0
    if tracer:
        tracer.counters.clear()
        lo = len(tracer.spans)
        top = tracer.begin("pipeline", rep)
    t0 = perf_counter()
    res = _train(inp, spec, negative_source=source, exec_backend=backend, store=store, tasks=tasks)
    ingest_s = perf_counter() - t0
    if tracer:
        tracer.end(top)
    versions = [v for v, _ in store.published]
    stamps = [t for _, t in store.published]
    if spec.dynamic:
        expected = list(range(len(dues)))
        fresh = [t - due for t, due in zip(stamps, dues, strict=False)]
        rates = _window_rates(list(np.diff(stamps)), 1.0)
    else:
        expected = [0]
        fresh = [stamps[-1] - t0] if stamps else []
        rates = [res.n_contexts / ingest_s]

    table = res.embedding
    service = EmbeddingService(store)

    async def serve():
        await _serve_for(service, inp.queries, SERVE_SHARE * ingest_s, lat, tracer)
        cache = (service.telemetry.cache_hit_rate, service.telemetry.cache_misses)
        return (cache, *await _read_back(service, table, seed, np.arange(n)))

    (hit_rate, misses), bad, served = asyncio.run(serve())
    store.close()
    return Rep(
        ingest_rates=rates, fresh=fresh, late=late,
        uncovered=len(set(expected) - set(versions)), table=table, bad=bad,
        served=served, hit_rate=hit_rate, misses=misses,
        elapsed=perf_counter() - t0, telemetry=res.telemetry, traced=tracer is not None,
        spans=(lo, len(tracer.spans)) if tracer else (0, 0),
        counters=dict(tracer.counters) if tracer else {},
    )


def _warm_call(inp: TrainInputs, spec: TrainSpec) -> None:
    """A small training call: starts the worker pool, touches the kernels
    and the store once, pays the lazy imports."""
    store = StampedStore(inp.graph.n_nodes, DIM)
    starts = np.arange(min(64, inp.graph.n_nodes))
    _train(inp, spec, negative_source="degree", exec_backend=BACKEND, store=store,
           tasks=[WalkTask(starts=starts)])
    store.close()


def _layer_from_rep(r: Rep, spans: list, n_nodes: int) -> dict[str, float]:
    tele, c = r.telemetry, r.counters

    def total(name: str) -> float:
        return sum(durations(spans, name))

    chunk = total("embedding.train_chunk")
    draw, arith = total("embedding.draw"), total("embedding.arith")
    observe, publish = total("sampling.observe"), total("store.publish")
    prof = CORE_I7_11700
    working_set = (n_nodes * DIM + DIM * DIM) * 8
    predicted = (
        prof.compute_ns["proposed"] * c.get("embedding.mac", 0.0) * prof.cache_penalty(working_set)
        + prof.overhead_ns["proposed"] * c.get("embedding.win", 0.0)
    ) * 1e-9
    # applying an event runs inside the pipeline's wait (the task iterator
    # advances while the consumer waits for its next chunk), so wait_s
    # already covers graph.apply_delta
    covered = tele.wait_s + chunk + observe + publish
    return {
        **_store_layer(r, spans),
        "graph.apply_delta_s": total("graph.apply_delta"),
        "sampling.walk_gen_s": tele.generation_s,
        "sampling.walks_per_worker_s": tele.train_walks / tele.generation_s,
        "sampling.observe_s": observe,
        "sampling.observe_calls": float(len(durations(spans, "sampling.observe"))),
        "sampling.rebuilds": float(tele.sampler_rebuilds),
        "parallel.wait_s": tele.wait_s,
        "parallel.wait_frac": tele.wait_s / tele.total_s,
        "parallel.overlap_efficiency": tele.overlap_efficiency,
        "parallel.snapshot_stall_s": tele.snapshot_stall_s,
        "parallel.n_chunks": float(tele.n_chunks),
        "parallel.peak_buffered_walks": float(tele.peak_buffered_walks),
        "parallel.ipc_walk_bytes": float(tele.ipc_walk_bytes),
        "parallel.ipc_snapshot_bytes": float(tele.ipc_snapshot_bytes),
        "parallel.ipc_delta_bytes": float(tele.ipc_delta_bytes),
        "parallel.delta_applies": float(tele.delta_applies),
        "parallel.rebase_count": float(tele.rebase_count),
        "embedding.train_chunk_s": chunk,
        "embedding.staging_s": chunk - draw - arith,
        "embedding.draw_s": draw,
        "embedding.arith_s": arith,
        "embedding.calls": float(len(durations(spans, "embedding.train_chunk"))),
        "embedding.contexts": float(tele.train_contexts),
        "embedding.mac": c.get("embedding.mac", 0.0),
        "embedding.arith_gmac_per_s": c.get("embedding.mac", 0.0) / arith / 1e9,
        "embedding.arith_vs_i7_model": arith / predicted,
        "pipeline.total_s": tele.total_s,
        "pipeline.train_s": tele.train_s,
        "pipeline.unattributed_frac": (tele.total_s - covered) / tele.total_s,
    }


def run_training(name: str, seed: int, seconds: float, trace: bool, scale: Scale) -> Result:
    spec = TRAIN[name]
    res = Result()
    rate = scale.live_rate if spec.open_loop else None

    def setup() -> TrainInputs:
        inp = train_inputs(spec, seed, scale)
        _warm_call(inp, spec)
        return inp

    def rep(inp: TrainInputs, i: int, tracer: Tracer | None, lat: dict) -> Rep:
        # the warm-up rep (i = -1) is always closed loop: for dynamic-live it
        # is the burst reference the open-loop reps must reproduce bit for bit
        return train_rep(inp, spec, i, seed, lat, tracer=tracer, rate=rate if i >= 0 else None)

    inp, setups, ref, reps, lat, tracer = _measure(setup, rep, seconds, trace)
    res.exec_backend = reps[0].telemetry.exec_backend
    res.check("training ran the requested backend, not a fallback",
              int("[fallback=" in res.exec_backend or res.exec_backend != BACKEND))
    res.attempted += len(reps)  # one training call per rep
    if spec.dynamic:  # plus every replayed event
        res.attempted += len(reps) * len(inp.events)
    _finish(res, name, setups, ref, reps, lat, inp.queries.per_step, inp.graph.node_labels,
            scale, tracer, lambda r, spans: _layer_from_rep(r, spans, inp.graph.n_nodes))
    return res


# --------------------------------------------------------------------------- #
# serve-churn: a writer publishing table updates beside a reading client
# --------------------------------------------------------------------------- #


@dataclass
class ChurnInputs:
    labels: np.ndarray
    centers: np.ndarray
    table: np.ndarray
    queries: Queries
    update_seed: int
    f1_rows: np.ndarray


def churn_inputs(seed: int, scale: Scale) -> ChurnInputs:
    """A planted table: each row is its class centre plus noise, so the
    served table has a classification quality to check."""
    table_seed, query_seed, update_seed, f1_seed = _seeds(seed, 4)
    rng = np.random.default_rng(table_seed)
    n = scale.churn_rows
    labels = rng.integers(0, CHURN_CLASSES, size=n)
    centers = rng.standard_normal((CHURN_CLASSES, DIM))
    table = centers[labels] + CHURN_SIGMA * rng.standard_normal((n, DIM))
    queries = make_queries(n, 4 * scale.churn_rounds, CHURN_GETS_PER_STEP, query_seed)
    f1_rows = np.sort(
        np.random.default_rng(f1_seed).choice(n, min(n, CHURN_F1_ROWS), replace=False)
    )
    return ChurnInputs(labels, centers, table, queries, update_seed, f1_rows)


def churn_rep(
    inp: ChurnInputs, rounds: int, seed: int, lat: dict, tracer: Tracer | None = None
) -> Rep:
    n = inp.table.shape[0]
    store = TracedStore(n, DIM, tracer) if tracer else StampedStore(n, DIM)
    store.publish(0, inp.table)
    service = EmbeddingService(store)
    table = inp.table.copy()
    rng = np.random.default_rng(inp.update_seed)
    n_rows = max(1, int(n * CHURN_ROW_FRAC))
    publish: list[float] = []
    lo = 0
    if tracer:
        tracer.counters.clear()
        lo = len(tracer.spans)

    async def rounds_loop():
        for r in range(rounds):
            rows = rng.choice(n, size=n_rows, replace=False)
            table[rows] = inp.centers[inp.labels[rows]] + CHURN_SIGMA * rng.standard_normal(
                (n_rows, DIM)
            )
            span = tracer.begin("client.publish", r + 1) if tracer else -1
            t = perf_counter()
            store.publish(r + 1, table)
            publish.append(perf_counter() - t)
            if tracer:
                tracer.end(span)
            await _serve_steps(service, inp.queries, range(4 * r, 4 * r + 4), lat, tracer)

    t0 = perf_counter()
    asyncio.run(rounds_loop())
    elapsed = perf_counter() - t0
    hit_rate, misses = service.telemetry.cache_hit_rate, service.telemetry.cache_misses
    hi = len(tracer.spans) if tracer else 0
    bad, served = asyncio.run(_read_back(service, table, seed, inp.f1_rows))
    store.close()
    return Rep(
        ingest_rates=_window_rates(publish, n_rows), fresh=publish, late=[],
        uncovered=0, table=table, bad=bad, served=served,
        hit_rate=hit_rate, misses=misses, elapsed=elapsed, traced=tracer is not None,
        spans=(lo, hi), counters=dict(tracer.counters) if tracer else {},
    )


def run_churn(seed: int, seconds: float, trace: bool, scale: Scale) -> Result:
    res = Result(exec_backend="none (no training)")

    def setup() -> ChurnInputs:
        inp = churn_inputs(seed, scale)
        churn_rep(inp, 2, seed, defaultdict(list))
        return inp

    def rep(inp: ChurnInputs, i: int, tracer: Tracer | None, lat: dict) -> Rep:
        return churn_rep(inp, scale.churn_rounds, seed, lat, tracer)

    inp, setups, ref, reps, lat, tracer = _measure(setup, rep, seconds, trace)
    res.attempted += len(reps) * scale.churn_rounds  # publishes
    _finish(res, "serve-churn", setups, ref, reps, lat, inp.queries.per_step,
            inp.labels[inp.f1_rows], scale, tracer, _store_layer)
    return res


# --------------------------------------------------------------------------- #
# Shared: checks, end-to-end metrics, per-layer metrics
# --------------------------------------------------------------------------- #


def _store_layer(r: Rep, spans: list) -> dict[str, float]:
    c = r.counters
    written, reused = c.get("store.shards_written", 0.0), c.get("store.shards_reused", 0.0)
    return {
        "store.publishes": float(len(durations(spans, "store.publish"))),
        "store.publish_s": sum(durations(spans, "store.publish")),
        "store.bytes_written": c.get("store.bytes_written", 0.0),
        "store.shard_reuse_frac": reused / (written + reused) if written + reused else 0.0,
        "serving.cache_hit_rate": r.hit_rate,
        "serving.cache_misses": float(r.misses),
    }


def _finish(res: Result, name: str, setups: dict, ref: Rep, reps: list[Rep],
            lat: dict, per_step: int, labels: np.ndarray, scale: Scale,
            tracer: Tracer | None, layer_of_rep) -> None:
    res.digest = _digest(ref.table)
    res.check(
        "table sha256 identical across reps"
        + (" and to the closed-loop reference" if name == "dynamic-live" else ""),
        sum(_digest(r.table) != res.digest for r in reps),
    )
    res.check("all table values finite", sum(not np.isfinite(r.table).all() for r in reps))
    res.check("every ingested update is covered by a publish", sum(r.uncovered for r in reps))
    res.attempted += N_VERIFY * len(reps)
    res.check("served vectors equal the published table", sum(r.bad for r in reps))
    res.attempted += sum(len(lat[k]) for k in ("get", "score", "topk"))

    # end-to-end metrics and client tails come from untraced reps only
    plain = [r for r in reps if not r.traced]
    fresh = [f for r in plain for f in r.fresh]
    late = [x for r in plain for x in r.late]
    ingest = [x for r in plain for x in r.ingest_rates]
    qps = _window_rates(lat["step"], per_step)
    res.as_timed = {
        "setup_s": statistics.median(setups["setup"]),
        "ingest_per_s": statistics.median(ingest),
        "fresh_p50_ms": _pct(fresh, 50) * 1e3,
        "get_p50_us": _pct(lat["get"], 50) * 1e6,
        "score_p50_ms": _pct(lat["score"], 50) * 1e3,
        "topk_p50_ms": _pct(lat["topk"], 50) * 1e3,
        "serve_qps": statistics.median(qps),
        "micro_f1": _micro_f1(plain[-1].served, labels, scale.f1_trials),
        "peak_rss_mb": peak_rss_mb(),
    }
    # Compute-bound timings at the reference host speed (probe_host).  The
    # client's are scaled per window by the probe on its CPU; set-up and
    # training, which use both CPUs, by the median probe mean over the
    # CPUs; the churn writer, on the client's thread, by the client's
    # median probe.  The open-loop replay's ingest and freshness follow its
    # arrival schedule, not the host's speed.
    res.slowdown = {
        "setup": statistics.median(setups["host_mean"]) / PROBE_REF_S,
        "training": statistics.median(lat["host_mean"]) / PROBE_REF_S,
        "client": statistics.median(lat["host_fast"]) / PROBE_REF_S,
    }
    ingest_slow = {"serve-churn": res.slowdown["client"], "dynamic-live": 1.0}.get(
        name, res.slowdown["training"]
    )
    res.metrics = {
        **res.as_timed,
        "setup_s": res.as_timed["setup_s"] / res.slowdown["setup"],
        "ingest_per_s": res.as_timed["ingest_per_s"] * ingest_slow,
        "fresh_p50_ms": res.as_timed["fresh_p50_ms"] / ingest_slow,
        "get_p50_us": _pct(lat["get@ref"], 50) * 1e6,
        "score_p50_ms": _pct(lat["score@ref"], 50) * 1e3,
        "topk_p50_ms": _pct(lat["topk@ref"], 50) * 1e3,
        "serve_qps": statistics.median(_window_rates(lat["step@ref"], per_step)),
    }
    res.tails = {
        "client.get_p99_us": _p99(lat["get"]) * 1e6,
        "client.score_p99_ms": _p99(lat["score"]) * 1e3,
        "client.topk_p99_ms": _p99(lat["topk"]) * 1e3,
        "client.fresh_p99_ms": _p99(fresh) * 1e3,
        "client.gen_late_p99_ms": _p99(late) * 1e3,
    }
    res.counts = {
        "setup_s": len(setups["setup"]), "ingest_per_s": len(ingest), "fresh_p50_ms": len(fresh),
        "get_p50_us": len(lat["get"]), "score_p50_ms": len(lat["score"]),
        "topk_p50_ms": len(lat["topk"]), "serve_qps": len(qps), "micro_f1": scale.f1_trials,
        "client.get_p99_us": len(lat["get"]), "client.score_p99_ms": len(lat["score"]),
        "client.topk_p99_ms": len(lat["topk"]), "client.fresh_p99_ms": len(fresh),
        "client.gen_late_p99_ms": len(late), "host_probes": len(lat["host_mean"]),
    }
    if tracer is None:
        return

    traced = [r for r in reps if r.traced]
    per_rep = [layer_of_rep(r, tracer.spans[r.spans[0] : r.spans[1]]) for r in traced]
    layer = {k: statistics.median(d[k] for d in per_rep) for k in per_rep[0]}
    pooled = [s for r in traced for s in tracer.spans[r.spans[0] : r.spans[1]]]
    for span in ("graph.apply_delta", "store.publish"):
        d = durations(pooled, span)
        layer[span + "_us_p50"] = _pct(d, 50) * 1e6
        layer[span + "_us_p99"] = _p99(d) * 1e6
    layer["store.get_one_us_p50"] = _pct(durations(pooled, "store.get_one"), 50) * 1e6
    layer["store.shard_view_us_p50"] = _pct(durations(pooled, "store.shard_view"), 50) * 1e6
    layer.update(res.tails)
    layer["bench.trace_overhead_frac"] = (
        statistics.median(r.elapsed for r in traced) / statistics.median(r.elapsed for r in plain)
        - 1.0
    )
    if traced[0].telemetry is not None:  # a training workload
        res.trace_reps = [
            {"spans": list(r.spans), "wait_s": r.telemetry.wait_s,
             "total_s": r.telemetry.total_s, "unattributed_frac": d["pipeline.unattributed_frac"]}
            for r, d in zip(traced, per_rep, strict=True)
        ]
        if layer["pipeline.unattributed_frac"] > 0.05:
            res.flags.append(
                f"pipeline.unattributed_frac = {layer['pipeline.unattributed_frac']:.3f} > 0.05"
            )
    res.metrics = layer
    res.tracer = tracer
    res.counts.update(traced_reps=len(traced), untraced_reps=len(plain))


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: Scale) -> Result:
    if name == "serve-churn":
        return run_churn(seed, seconds, trace, scale)
    return run_training(name, seed, seconds, trace, scale)
