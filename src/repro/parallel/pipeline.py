"""Parallel walk generation + a genuinely streaming pipelined trainer.

The board's division of labor (§3.2) is a two-stage pipeline: the PS samples
random walks *while* the PL trains on the previous ones.  On a multicore host
the same structure applies: walk sampling is Python/RNG-bound and
embarrassingly parallel across start nodes, while training is NumPy-bound.
This module provides

* :class:`ParallelWalkGenerator` — walk generation fanned out over a
  ``multiprocessing`` pool (fork start method; the CSR arrays are shared
  copy-on-write, so workers carry no pickling cost for the base graph).
  Jobs go out through a consumer-driven bounded window (submit one as one
  is consumed, FIFO) of ``max(2, 2 * n_workers)`` chunks, so peak memory
  is set by the worker count, not the corpus size.  The engine consumes a
  stream of :class:`~repro.parallel.tasks.WalkTask` items — the static
  corpus is one task; a dynamic-graph replay is many, each tagged with its
  snapshot epoch and carrying its own immutable graph snapshot.
* chunk placement — a chunk of fewer than :data:`POOL_MIN_WALK_STEPS`
  walk-steps (an edge event's few walks) walks in the consumer, where a
  worker round trip would cost more than the walk; larger chunks go to the
  pool, which is forked on the first of them.  ``n_workers`` is therefore
  a cap: a stream of small chunks never starts a worker.  The window never
  pulls the task stream past an inline chunk, so a live event is walked
  and trained as soon as it arrives, not once a window of later events
  has.
* :func:`train_parallel` — the full pipeline: walk tasks → chunks of start
  nodes → worker walks → in-order training, with the main process training
  chunk *i* while workers generate the window of chunks after it.
* :class:`PipelineTelemetry` — per-stage timing (generation / stall /
  train), transport, buffering, snapshot and sampler-rebuild telemetry,
  attached to the ``TrainingResult``.
* :class:`WorkerDiedError` — what a run raises, instead of hanging, when a
  walk worker process dies and its chunk can never arrive.

Walk transport (``transport``)
------------------------------
The board keeps walk traffic on-chip; the host-side analogue of that
bottleneck is the worker→trainer channel:

``"shm"`` (default)
    zero-copy: workers write each chunk into a slot of a fixed-capacity
    shared-memory ring (:class:`repro.parallel.shm_ring.ShmWalkRing`) and
    the trainer reads NumPy views out of it; only a three-int control tuple
    crosses the pickle channel per chunk.  Falls back to pickling
    automatically — per run when the segment cannot be created, per chunk
    when a chunk is ragged beyond the slot shape.
``"pickle"``
    the classic pool result path: every chunk serialized in the worker,
    copied through a pipe, deserialized in the trainer.  O(walks·length)
    bytes of IPC per chunk; kept as the portable fallback and the baseline
    the benchmarks compare against.

Both transports move bit-identical walks, so the trained embedding does not
depend on the transport; ``PipelineTelemetry.ipc_walk_bytes`` records how
many walk-payload bytes actually crossed the pickle channel.

Snapshot transport (task streams)
---------------------------------
Dynamic-replay tasks carry graph snapshots; their pooled chunk jobs hand
workers a tiny reference into the publish-once
:class:`~repro.parallel.snapshots.SnapshotStore` (shared-memory segment,
pickled once per snapshot, deserialized once per worker) instead of
re-pickling the snapshot per job.  ``PipelineTelemetry.ipc_snapshot_bytes``
/ ``ipc_snapshot_bytes_saved`` count the shipped and avoided payload bytes.
Every pooled snapshot publishes in full, once; a chunk walked in the
consumer ships nothing.

Execution backends (``exec_backend``)
-------------------------------------
Consumed chunks train through the kernel layer
(:mod:`repro.embedding.kernels`): ``"reference"`` is the bit-identical
per-walk loop, ``"blocked"`` the vectorized chunk kernels (bulk negative
draw, rank-k RLS block solves for the OS-ELM family, batched per-walk
SGD updates).
``telemetry.exec_backend`` records the backend's registry name,
``telemetry.train_walks_per_s`` / ``train_contexts_per_s`` its realized
training throughput (the context rate is the number the OS-ELM kernels
move, one RLS step per context).

Chunk sizing (``chunk_size``)
-----------------------------
Walk streams are seeded by **global walk index** (walk *j* always draws from
``SeedSequence([seed, 0, j])`` no matter which chunk or task carries it), so
the corpus — and the trained embedding — is invariant to how the start list
is partitioned into chunks.  That makes chunk size (an int, default
:data:`DEFAULT_CHUNK_SIZE`) a pure performance knob under the
``"reference"`` backend; ``"blocked"`` draws one bulk negative batch per
chunk, so its result is pinned to the chunk size.

Negative-sampling sources (``negative_source``)
-----------------------------------------------
The paper builds its negative table from node frequencies over the *entire*
walk corpus (§3.1), which fundamentally conflicts with streaming: you cannot
know the final frequencies before the last walk exists.  The strategies for
closing that gap live in :mod:`repro.sampling.sources` as first-class
:class:`~repro.sampling.sources.NegativeSource` objects — ``"corpus"``
(paper-exact, buffers the first epoch), ``"degree"`` (streams immediately)
and the online ``"decayed"`` (degree bootstrap + exponentially-decayed
streaming frequencies with periodic alias rebuilds, built for dynamic-graph
replays).
``negative_source`` accepts a registry name or a pre-constructed instance
(e.g. ``DecayedSource(decay=0.9, rebuild_every=8)``); the valid names are
rendered from :data:`repro.sampling.sources.SOURCE_REGISTRY`.

Determinism: walk *j* derives its stream from (base seed, walk namespace,
global walk index *j*), the start list from a disjoint (base seed, starts
namespace) stream, and results are consumed in order — so the trained
embedding is **bit-identical for any worker count, chunk size, transport
and chunk placement** under every ``negative_source``.
For ``"decayed"`` the sampler state additionally depends on the canonical
*virtual* chunk schedule, so its bit-identity contract is relaxed to runs
with the same ``virtual_chunk`` — still independent of worker count,
transport and physical chunk size.  The tests pin these invariants down.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from collections import deque
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.embedding.base import EmbeddingModel
from repro.embedding.trainer import TrainingResult, WalkTrainer, make_model
from repro.graph.csr import CSRGraph
from repro.parallel.shm_ring import ShmWalkRing
from repro.parallel.snapshots import SnapshotStore, resolve_snapshot_ref
from repro.parallel.tasks import WalkTask
from repro.sampling.lockstep import LOCKSTEP_MIN_WALKS, WalkBatch, lockstep_walks
from repro.sampling.negative import walk_frequencies
from repro.sampling.sources import NEGATIVE_SOURCES, NegativeSource, resolve_source
from repro.sampling.walks import Node2VecWalker, WalkParams
from repro.utils.rng import SeedLike, as_generator, draw_seed
from repro.utils.validation import check_in_set, check_positive

if TYPE_CHECKING:  # annotation-only: the experiments layer stays lazy
    from repro.experiments.hyper import Node2VecParams

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "NEGATIVE_SOURCES",
    "POOL_MIN_WALK_STEPS",
    "TRANSPORTS",
    "ParallelWalkGenerator",
    "PipelineTelemetry",
    "WalkTask",
    "WorkerDiedError",
    "train_parallel",
]

#: Valid ``transport`` settings (see module docstring).
TRANSPORTS = ("shm", "pickle")

#: Start nodes per chunk when ``chunk_size`` is not given.
DEFAULT_CHUNK_SIZE = 256

#: Smallest chunk, in walk-steps (walks × walk length), that walks in the
#: worker pool; smaller chunks walk in the consumer.  A pooled chunk pays a
#: round trip (job out, batch back) and, on a replay, its snapshot;
#: it wins only by overlapping its walk with training.  Measured with
#: training in the loop (``"proposed"``, ``"blocked"``, d = 32, two workers)
#: on a 2-vCPU x86 VM: streams of equal chunks of 20-step walks on a
#: 1000-node degree-corrected SBM (mean degree 8), time per walk-step
#: pooled / inline, best of 5:
#:
#: * every chunk on its own one-edge snapshot (the dynamic replay), each
#:   snapshot published in full: 0.84–1.04 at 960 walk-steps, 0.74–0.88 at
#:   1280 and 0.80–0.87 at 1920 (two runs over 200 events; over 60 events
#:   the pool's start-up lifts every ratio above 1.2);
#: * every chunk on the base graph: 1.30 at 160, 1.20 at 320, 0.99 at 480,
#:   1.04 at 640 and 0.95 at 960.
POOL_MIN_WALK_STEPS = 1024

# Seed namespaces: walk j draws from SeedSequence([seed, _WALK_NS, j]) where
# j is the *global* walk index — chunking-invariant by construction — and
# the start list from SeedSequence([seed, _STARTS_NS]).  The two streams
# live in tuples of different shape *and* different second element, so no
# walk index can ever collide with the start-list stream.
_WALK_NS = 0
_STARTS_NS = 1


def _walk_seed(seed: int, j: int) -> np.random.SeedSequence:
    """The stream of global walk ``j`` under base ``seed``."""
    return np.random.SeedSequence([seed, _WALK_NS, j])


# How long the consumer waits on a chunk before it checks that no walk
# worker has died: a lost chunk's result never arrives, so an unbounded
# wait would hang the run.
_LIVENESS_POLL_S = 0.2

# Worker globals, populated by the pool initializer via fork/spawn.  Only
# pool worker processes ever write these; chunks walked in the consumer
# pass state explicitly.
_WORKER_GRAPH: CSRGraph | None = None
_WORKER_PARAMS: WalkParams | None = None
_WORKER_SEED: int | None = None
_WORKER_RING: ShmWalkRing | None = None


def _init_worker(
    graph: CSRGraph, params: WalkParams, seed: int, ring_spec: dict | None
) -> None:
    global _WORKER_GRAPH, _WORKER_PARAMS, _WORKER_SEED, _WORKER_RING
    _WORKER_GRAPH = graph
    _WORKER_PARAMS = params
    _WORKER_SEED = seed
    _WORKER_RING = ShmWalkRing.attach(ring_spec) if ring_spec is not None else None


def _run_chunk(
    graph: CSRGraph, params: WalkParams, starts: np.ndarray, seed: int, lo: int
) -> tuple[WalkBatch | list[np.ndarray], float]:
    """Walk one chunk; returns ``(walks, generation_seconds)``.

    ``lo`` is the chunk's global walk offset: walk ``lo + k`` draws from its
    own per-walk stream, making the corpus independent of how the start
    list was chunked.  A chunk of at least ``LOCKSTEP_MIN_WALKS`` walks
    advances all its walks in lockstep, bitwise the same walks as the
    per-walk loop (:mod:`repro.sampling.lockstep`), and comes back as one
    padded :class:`WalkBatch`; smaller chunks walk one at a time and come
    back as the list of walks.
    """
    t0 = time.perf_counter()
    streams = (as_generator(_walk_seed(seed, lo + k)) for k in range(len(starts)))
    if len(starts) >= LOCKSTEP_MIN_WALKS:
        walks = lockstep_walks(graph, params, starts, streams)
    else:
        walks = [
            Node2VecWalker(graph, params, seed=rng).walk(s)
            for s, rng in zip(starts.tolist(), streams, strict=True)
        ]
    return walks, time.perf_counter() - t0


def _walk_pooled(job: tuple) -> tuple:
    """Pool entry point: walk a chunk as one padded batch.  Given a ring
    ``slot`` (the shm transport), the batch is copied into the slot in one
    block and only a control tuple rides the result pipe; without one, or
    when the chunk is ragged beyond the slot shape, the batch itself rides
    the pipe, pickled.  ``graph_ref`` is ``None`` for the pool's base graph,
    else a :class:`~repro.parallel.snapshots.SnapshotStore` reference
    (resolved — and the snapshot deserialized — at most once per worker per
    sid)."""
    slot, starts, lo, graph_ref = job
    g = _WORKER_GRAPH if graph_ref is None else resolve_snapshot_ref(graph_ref)
    t0 = time.perf_counter()
    batch, _ = _run_chunk(g, _WORKER_PARAMS, starts, _WORKER_SEED, lo)
    if not isinstance(batch, WalkBatch):
        batch = WalkBatch.from_walks(batch, _WORKER_PARAMS.length)
    if _WORKER_RING is not None and _WORKER_RING.write(slot, batch):
        return ("shm", slot, len(starts), time.perf_counter() - t0)
    return ("pickle", batch, time.perf_counter() - t0)


class WorkerDiedError(RuntimeError):
    """A walk worker process died (killed, out of memory, crashed), so the
    chunk it held will never arrive and the run cannot finish.

    ``[lo, hi)`` is the global-walk range of the chunk the consumer was
    waiting for when it found the death: the dead worker's own chunk
    whenever that worker held the oldest unfinished one.  ``exitcodes`` are
    the dead workers' exit codes (a negative code is the killing signal).
    """

    def __init__(self, lo: int, hi: int, exitcodes: list[int | None]):
        self.lo, self.hi, self.exitcodes = lo, hi, exitcodes
        super().__init__(
            f"walk worker(s) died with exit code(s) {exitcodes} while the run "
            f"waited for the chunk of walks [{lo}, {hi}); a lost chunk never "
            "arrives, so the run cannot finish"
        )


def _await_chunk(pool: Any, workers: list, fut: Any, lo: int, hi: int) -> tuple:
    """``fut.get()`` that raises :class:`WorkerDiedError` instead of hanging
    when a worker dies (``Pool`` never delivers a lost job's result).

    ``workers`` are the pool's first processes.  ``Pool`` replaces a dead
    worker and never retires a live one (no ``maxtasksperchild``), so one of
    them missing from the pool's worker list (``Pool`` has no public one)
    marks a death — and the first death is always one of them.
    """
    while True:
        try:
            return fut.get(timeout=_LIVENESS_POLL_S)
        except mp.TimeoutError:
            live = {p.pid for p in list(pool._pool)}  # copy: the pool edits it
            dead = [p for p in workers if p.pid not in live]
            if dead:
                raise WorkerDiedError(lo, hi, [p.exitcode for p in dead]) from None


class _FlowStats:
    """In-flight walk accounting for one generation pass.

    ``peak_in_flight`` is the high-water mark of walks pulled into the
    window (submitted to workers, or waiting to walk in the consumer) but
    not yet handed to the consumer, i.e. the quantity the bounded window
    is supposed to cap.  ``inline_chunks`` counts the chunks the
    consumer walked itself.  ``ipc_walk_bytes`` counts the walk payload
    bytes that crossed the pickle channel (zero for chunks moved through
    the shm ring).  All hooks run on the consumer thread (submission is
    consumer-driven), so no locking is needed.
    """

    def __init__(self) -> None:
        self.submitted_walks = 0
        self.consumed_walks = 0
        self.inline_chunks = 0
        self.peak_in_flight = 0
        self.ipc_walk_bytes = 0
        self.snapshot_bytes = 0
        self.snapshot_bytes_saved = 0

    def on_submit(self, n: int) -> None:
        self.submitted_walks += n
        in_flight = self.submitted_walks - self.consumed_walks
        if in_flight > self.peak_in_flight:
            self.peak_in_flight = in_flight

    def on_consume(self, n: int) -> None:
        self.consumed_walks += n


@dataclass
class PipelineTelemetry:
    """Per-stage timing + transport telemetry of one :func:`train_parallel`.

    ``generation_s`` sums the walk time of every chunk (a pooled chunk's
    may be fully hidden behind training); ``wait_s`` is the consumer's
    observable stall waiting for the next chunk, which includes walking the
    chunks it walks itself; ``train_s`` is time inside the trainer.  A
    perfect pipeline hides all generation: ``wait_s ≈ 0``,
    ``overlap_efficiency ≈ 1``.

    ``transport`` is the transport the last generation pass actually used
    (``"inline"`` when no chunk went to the worker pool, else
    ``"shm"``/``"pickle"`` after any availability fallback);
    ``inline_chunks`` counts the chunks walked in the consumer instead (all
    of them when ``n_workers <= 1``, else those under
    :data:`POOL_MIN_WALK_STEPS` walk-steps); ``ipc_walk_bytes`` the walk
    payload bytes that crossed the pickle channel (each chunk's padded
    ``WalkBatch``: rows plus lengths).  ``n_chunks`` counts every chunk
    consumed, so ``generation_s / n_chunks`` is the mean walk time of a
    chunk.

    Task-stream accounting: ``n_snapshots`` counts the distinct graph
    snapshot epochs consumed (1 for static corpus runs); ``snapshot_stall_s``
    is the share of ``wait_s`` spent waiting for the *first* chunk of each
    new snapshot — the stall attributable to snapshot turnover rather than
    steady-state generation; ``sampler_rebuilds`` counts the alias-table
    rebuilds triggered by the streaming ``negative_source`` (the
    ``"decayed"`` fold/rebuild schedule; 0 for frozen-sampler sources).

    Snapshot transport: ``ipc_snapshot_bytes`` counts the pickled-snapshot
    payload bytes that actually crossed to workers (once per snapshot under
    the publish-once shared-memory store); ``ipc_snapshot_bytes_saved``
    counts the bytes the pre-PR-4 per-job pickling would have sent on top
    of that — the dynamic path's IPC win, sitting next to
    ``ipc_walk_bytes`` so both channels read in the same unit.

    Execution: ``exec_backend`` is the chunk-kernel the trainer ran
    (:data:`repro.embedding.kernels.EXEC_REGISTRY` name);
    ``train_walks`` / ``train_contexts`` the walks and sliding-window
    contexts trained, so ``train_walks_per_s`` and ``train_contexts_per_s``
    are the consumer-side training throughput the kernel benchmarks track
    (contexts/s is the RLS-step rate the ``"blocked"`` OS-ELM kernel is
    built to lift).

    Store publishing (``store=``): ``store_publishes`` counts the epoch
    versions published into the serving store; ``store_publish_s`` the
    wall-clock spent on the publish path (including any fallback table
    copy); ``store_publish_bytes`` the shard bytes actually (re)written
    (unchanged shards are shared by reference, so this is the incremental
    cost, not ``publishes × table``); ``store_full_copies`` how many
    publishes had to materialize a full-table copy because the model
    exposes no :meth:`~repro.embedding.base.EmbeddingModel.embedding_view`
    — 0 is the zero-copy contract the acceptance tests pin.

    CPU budget: ``blas_threads`` is the OpenBLAS thread count the run
    trained with — 1 once :func:`repro.utils.blas.limit_blas_threads` has
    applied its limit, the user's own count when the environment sets one,
    0 when no OpenBLAS is loaded.
    """

    negative_source: str
    n_workers: int
    epochs: int
    n_chunks: int = 0
    generation_s: float = 0.0
    wait_s: float = 0.0
    train_s: float = 0.0
    total_s: float = 0.0
    peak_buffered_walks: int = 0
    transport: str = ""
    inline_chunks: int = 0
    ipc_walk_bytes: int = 0
    sampler_rebuilds: int = 0
    n_snapshots: int = 0
    snapshot_stall_s: float = 0.0
    ipc_snapshot_bytes: int = 0
    ipc_snapshot_bytes_saved: int = 0
    exec_backend: str = ""
    train_walks: int = 0
    train_contexts: int = 0
    store_publishes: int = 0
    store_publish_s: float = 0.0
    store_publish_bytes: int = 0
    store_full_copies: int = 0
    blas_threads: int = 0

    @property
    def ipc_delta_bytes(self) -> int:
        """Always 0 (snapshots publish in full); kept only because
        ``benchmarks/e2e/workloads.py`` reads it."""
        return 0

    @property
    def delta_applies(self) -> int:
        """Always 0 (snapshots publish in full); kept only because
        ``benchmarks/e2e/workloads.py`` reads it."""
        return 0

    @property
    def rebase_count(self) -> int:
        """Always 0 (snapshots publish in full); kept only because
        ``benchmarks/e2e/workloads.py`` reads it."""
        return 0

    @property
    def overlap_efficiency(self) -> float:
        """Fraction of generation cost hidden behind training, in [0, 1]."""
        if self.generation_s <= 0.0:
            return 1.0
        return max(0.0, min(1.0, 1.0 - self.wait_s / self.generation_s))

    @property
    def train_walks_per_s(self) -> float:
        """Training throughput (walks consumed per second inside the
        trainer; 0.0 before any timed training)."""
        if self.train_s <= 0.0:
            return 0.0
        return self.train_walks / self.train_s

    @property
    def train_contexts_per_s(self) -> float:
        """Training throughput in sliding-window contexts per second (one
        RLS step per context for the OS-ELM family; 0.0 before any timed
        training)."""
        if self.train_s <= 0.0:
            return 0.0
        return self.train_contexts / self.train_s


class ParallelWalkGenerator:
    """Chunked, seeded, optionally multiprocess walk generation over a
    stream of :class:`~repro.parallel.tasks.WalkTask` items.

    Parameters
    ----------
    graph, params:
        the base graph (walked when a task carries no snapshot) and how to
        walk it.
    n_workers:
        the most walk processes to use.  0 or 1 → every chunk walks in the
        consumer; ≥2 → chunks of at least :data:`POOL_MIN_WALK_STEPS`
        walk-steps go to a fork pool of this size, started on the first of
        them, and smaller chunks still walk in the consumer.
    chunk_size:
        start nodes per work item; larger chunks amortize per-chunk
        overhead, smaller chunks pipeline better.  Chunking never changes
        the walks themselves (per-walk seeding), only the schedule.
    seed:
        base seed; walk ``j`` (global index across the whole task stream)
        uses ``SeedSequence([seed, 0, j])`` and the start list
        ``SeedSequence([seed, 1])`` — disjoint namespaces, so the streams
        can never collide for any walk index.
    transport:
        ``"shm"`` (default) — pooled chunks travel through a shared-memory
        ring, zero-copy; ``"pickle"`` — they ride the pool's result pipe.
        Chunks walked in the consumer use no IPC.  ``effective_transport``
        records what the last pass actually used after fallback
        (``"inline"`` when no chunk was pooled).

    At most :attr:`prefetch` = ``max(2, 2 * n_workers)`` chunks are in
    flight ahead of the consumer.  That bounds peak buffered walks at
    ``prefetch * chunk_size`` regardless of corpus size, and bounds how
    many task snapshots are alive at once on the dynamic path.  The window
    never reaches past a chunk the consumer walks itself: the task after it
    is pulled only once it has been consumed.
    """

    def __init__(
        self,
        graph: CSRGraph,
        params: WalkParams | None = None,
        *,
        n_workers: int = 0,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        seed: int = 0,
        transport: str = "shm",
    ):
        check_positive("chunk_size", chunk_size, integer=True)
        check_in_set("transport", transport, TRANSPORTS)
        if n_workers < 0:
            raise ValueError("n_workers must be >= 0")
        self.graph = graph
        self.params = params or WalkParams()
        self.n_workers = int(n_workers)
        self.chunk_size = int(chunk_size)
        self.seed = int(seed)
        self.transport = transport
        #: transport the most recent pass actually used ("inline" while no
        #: chunk was pooled, else "shm" | "pickle"; None before any pass)
        self.effective_transport: str | None = None
        #: flow accounting of the most recent generation pass
        self.last_stats = _FlowStats()

    @property
    def prefetch(self) -> int:
        """Chunks kept in flight ahead of the consumer: two per worker, and
        never fewer than two."""
        return max(2, 2 * self.n_workers)

    # ------------------------------------------------------------------ #
    # Seeding
    # ------------------------------------------------------------------ #

    def walk_seed(self, j: int) -> np.random.SeedSequence:
        """The stream of global walk ``j`` — independent of chunking."""
        return _walk_seed(self.seed, int(j))

    def starts_seed(self) -> np.random.SeedSequence:
        """The start-list shuffle stream (disjoint from every walk)."""
        return np.random.SeedSequence([self.seed, _STARTS_NS])

    def _job_stream(self, tasks: Iterable[WalkTask]) -> Iterator[tuple]:
        """``(chunk_starts, global_walk_offset, epoch, graph, sid,
        task_done)`` work items, in deterministic order.  The global offset
        runs across every task, so walk seeds never depend on task or chunk
        boundaries; chunks never span tasks (each chunk walks exactly one
        snapshot), and ``task_done`` marks a task's last chunk.  ``sid`` is
        the task's snapshot id (``None`` for base-graph tasks) —
        monotonically increasing in submission order, which is what the
        publish-once snapshot transport's retire/evict protocol rests on.

        Task epochs must strictly increase: a task whose epoch is not above
        its predecessor's raises ``ValueError`` when it is pulled, before
        any of its chunks walks."""
        lo = 0
        sid = 0
        prev_epoch: int | None = None
        for task in tasks:
            if prev_epoch is not None and task.epoch <= prev_epoch:
                raise ValueError(
                    f"task epochs must strictly increase: a task of epoch "
                    f"{task.epoch} follows one of epoch {prev_epoch}"
                )
            prev_epoch = task.epoch
            if task.graph is not None and task.graph.n_nodes != self.graph.n_nodes:
                raise ValueError(
                    f"task snapshot has {task.graph.n_nodes} nodes but the "
                    f"engine's base graph has {self.graph.n_nodes}: snapshots "
                    "must share the base graph's node universe"
                )
            task_sid = None
            if task.graph is not None:
                task_sid = sid
                sid += 1
            starts = task.starts
            for off in range(0, starts.shape[0], self.chunk_size):
                yield (
                    starts[off : off + self.chunk_size],
                    lo + off,
                    task.epoch,
                    task.graph,
                    task_sid,
                    off + self.chunk_size >= starts.shape[0],
                )
            lo += starts.shape[0]

    def corpus_starts(self) -> np.ndarray:
        """The r-walks-per-node start list (shuffled per repetition, matching
        :meth:`Node2VecWalker.simulate`)."""
        rng = as_generator(self.starts_seed())
        n = self.graph.n_nodes
        reps = [rng.permutation(n) for _ in range(self.params.walks_per_node)]
        return np.concatenate(reps)

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #

    def stream_timed(
        self, tasks: Iterable[WalkTask] | None = None
    ) -> Iterator[tuple[list[np.ndarray], float, int, bool]]:
        """Yield ``(walk_chunk, generation_seconds, snapshot_epoch,
        task_done)`` in deterministic chunk order, keeping at most
        ``prefetch`` chunks in flight; ``task_done`` is true for the last
        chunk of its task.

        ``tasks`` is any (possibly lazy) iterable of
        :class:`~repro.parallel.tasks.WalkTask`; ``None`` means the single
        static-corpus task on the base graph.  The task iterator advances
        only as jobs are pulled, so a lazy dynamic-replay stream is never
        materialized more than ``prefetch`` chunks ahead — which also
        bounds how many graph snapshots are alive at once.

        Placement: a chunk of fewer than :data:`POOL_MIN_WALK_STEPS`
        walk-steps (walks × ``params.length``) walks here, in the consumer,
        when the consumer reaches it; larger chunks go to the worker pool,
        which is forked on the first of them (never, if there is none, or
        if ``n_workers <= 1``).  The job stream is never pulled past an
        inline chunk: the next task is not requested before that chunk has
        been yielded and the consumer asks for more, so an event-sized
        chunk of a live stream trains without waiting for later events.
        Either placement walks the same bits (per-walk seeding).

        The window is driven entirely from the consumer side:
        pooled jobs are submitted with ``apply_async`` and consumed FIFO,
        one fresh pull per consumed chunk.  Workers therefore never run
        more than ``prefetch`` chunks ahead — the property the streaming
        trainer's memory bound rests on — and no pool-internal thread ever
        blocks on caller state (throttling the lazy ``imap`` job feed
        instead can strand the pool's task-handler thread at shutdown,
        which ``Pool.terminate`` then joins forever).  ``self.last_stats``
        records the realized high-water mark.

        Under the shm transport the yielded walk arrays of a pooled chunk
        are *views* into a ring slot, valid only until the next chunk is
        requested; consume them before advancing the iterator, or copy
        (this is what makes the transport zero-copy on the streaming train
        path).  The ring carries ``prefetch + 1`` slots so a fresh job can
        be dispatched while the consumer still reads the chunk just handed
        over.
        """
        if tasks is None:
            tasks = [WalkTask(starts=self.corpus_starts())]
        job_iter = self._job_stream(tasks)
        stats = self.last_stats = _FlowStats()
        self.effective_transport = "inline"
        store = SnapshotStore()
        pool: Any = None
        ring: ShmWalkRing | None = None
        workers: list = []
        free_slots: deque = deque()
        # the window, in job order: (job, ring slot, future); a None future
        # marks a chunk the consumer walks itself
        pending: deque = deque()

        def _start_pool() -> None:
            nonlocal pool, ring
            transport = self.transport
            if transport == "shm":
                try:
                    # one slot more than the window: a new job is dispatched
                    # while the consumer still holds views of the chunk it
                    # was just handed, so the full window stays in flight
                    ring = ShmWalkRing.create(
                        self.prefetch + 1, self.chunk_size, self.params.length
                    )
                    free_slots.extend(range(ring.n_slots))
                except Exception:  # no /dev/shm, size limits, … → portable path
                    transport = "pickle"
            ctx = mp.get_context("fork" if os.name == "posix" else "spawn")
            pool = ctx.Pool(
                self.n_workers,
                initializer=_init_worker,
                initargs=(
                    self.graph,
                    self.params,
                    self.seed,
                    ring.spec if ring is not None else None,
                ),
            )
            workers.extend(pool._pool)
            self.effective_transport = transport

        def _pull() -> None:
            """Fill the window up to ``prefetch`` chunks, stopping at the
            first inline chunk (it is walked before anything after it is
            pulled)."""
            while len(pending) < self.prefetch and not (
                pending and pending[-1][2] is None
            ):
                job = next(job_iter, None)
                if job is None:
                    return
                chunk_starts, lo, _epoch, task_graph, sid, _done = job
                stats.on_submit(len(chunk_starts))
                # read at call time, so tests can move every chunk to the pool
                if (
                    self.n_workers <= 1
                    or len(chunk_starts) * self.params.length < POOL_MIN_WALK_STEPS
                ):
                    pending.append((job, None, None))
                    continue
                if pool is None:
                    _start_pool()
                # publish-once snapshot transport: the job carries a tiny
                # reference, not the pickled graph, after the snapshot's
                # first chunk
                graph_ref = store.ref_for(sid, task_graph) if sid is not None else None
                slot = free_slots.popleft() if ring is not None else None
                fut = pool.apply_async(
                    _walk_pooled, ((slot, chunk_starts, lo, graph_ref),)
                )
                pending.append((job, slot, fut))

        try:
            # FIFO consumption of the pull order → deterministic
            while True:
                _pull()
                if not pending:
                    return
                job, slot, fut = pending.popleft()
                chunk_starts, lo, epoch, task_graph, sid, task_done = job
                if fut is None:
                    walks, gen_s = _run_chunk(
                        task_graph if task_graph is not None else self.graph,
                        self.params,
                        chunk_starts,
                        self.seed,
                        lo,
                    )
                    if isinstance(walks, WalkBatch):
                        walks = walks.walks()
                    stats.inline_chunks += 1
                else:
                    result = _await_chunk(
                        pool, workers, fut, lo, lo + len(chunk_starts)
                    )
                    if sid is not None:
                        # FIFO: a result for sid proves every job of any
                        # lower sid completed → its segment can go
                        store.retire_below(sid)
                    if result[0] == "shm":
                        walks, gen_s = ring.read(slot), result[3]
                    else:
                        _, batch, gen_s = result
                        walks = batch.walks()
                        stats.ipc_walk_bytes += batch.nbytes
                        if slot is not None:  # ragged fallback: slot unused
                            free_slots.append(slot)
                            slot = None
                stats.on_consume(len(walks))
                if fut is not None:
                    # workers keep walking while this chunk trains; behind
                    # an inline chunk nothing was pulled, and nothing is yet
                    _pull()
                yield walks, gen_s, epoch, task_done
                # consumer is done with the slot's views: recycle, and drop
                # our own frame's view ref so the ring can unmap cleanly at
                # shutdown
                if slot is not None:
                    free_slots.append(slot)
                walks = None
        finally:
            if pool is not None:
                pool.terminate()
            stats.snapshot_bytes = store.bytes_shipped
            stats.snapshot_bytes_saved = store.bytes_saved
            store.close()
            if ring is not None:
                ring.close()
                ring.unlink()

    def generate(self, starts: np.ndarray | None = None) -> Iterator[list[np.ndarray]]:
        """Yield the static-corpus task's walk chunks in deterministic chunk
        order, timing stripped (``starts=None`` → the r-walks-per-node start
        list).

        Shm-transport chunks are views with the same lifetime contract as
        :meth:`stream_timed`."""
        tasks = None if starts is None else [WalkTask(starts=starts)]
        for walks, *_ in self.stream_timed(tasks):
            yield walks

    def all_walks(self, starts: np.ndarray | None = None) -> list[np.ndarray]:
        """The whole corpus as a list (chunks materialized, safe to keep)."""
        out: list[np.ndarray] = []
        for chunk in self.generate(starts):
            if self.effective_transport == "shm":
                out.extend(w.copy() for w in chunk)
            else:
                out.extend(chunk)
        return out


def _virtual_segments(
    walks: list[np.ndarray], size: int, consumed: int
) -> Iterator[list[np.ndarray]]:
    """Split one physical chunk so every yielded segment ends on a canonical
    virtual-chunk boundary (a multiple of ``size`` in global consumed-walk
    order) or at the chunk's end.  This is what pins the ``"decayed"``
    fold/rebuild schedule to the virtual chunking instead of the physical
    one: the segment sequence — and hence the sampler state seen by every
    walk — is identical for any physical ``chunk_size``."""
    i, n = 0, len(walks)
    while i < n:
        room = size - (consumed + i) % size
        yield walks[i : i + room]
        i += room


def train_parallel(
    graph: CSRGraph,
    *,
    dim: int = 32,
    model: str | EmbeddingModel = "proposed",
    hyper: Node2VecParams | None = None,
    epochs: int = 1,
    n_workers: int = 0,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    transport: str = "shm",
    negative_source: str | NegativeSource = "corpus",
    negative_power: float = 0.75,
    exec_backend: str | None = None,
    store: Any | None = None,
    tasks: Iterable[WalkTask] | None = None,
    seed: SeedLike = 0,
    **model_kwargs: Any,
) -> TrainingResult:
    """Streaming pipelined counterpart of :func:`repro.embedding.train_on_graph`.

    Walk chunks stream out of the worker pool through a bounded window of
    ``max(2, 2 * n_workers)`` chunks while the main process trains on them —
    chunk *i* trains while workers generate the chunks after it, mirroring
    the PS/PL overlap of the board.  Chunks move through the ``transport``
    of choice (``"shm"`` zero-copy ring, default, falling back to
    ``"pickle"`` when shared memory is unavailable or a chunk outgrows its
    slot).

    ``n_workers`` is a cap, not a promise: a chunk of fewer than
    :data:`POOL_MIN_WALK_STEPS` walk-steps — a dynamic replay's per-event
    chunk — walks in the main process, and the pool is forked only when
    the first larger chunk arrives.  Nothing is pulled from the task stream
    past such an inline chunk before it has trained, so an open-loop
    replay trains each event as it arrives.  Placement changes no bit of
    the result.

    How soon training can start — and how the sampler tracks the stream —
    is governed by ``negative_source``: a name from
    :data:`repro.sampling.sources.SOURCE_REGISTRY` or a pre-constructed
    :class:`~repro.sampling.sources.NegativeSource` (see that module for
    the trade-offs).  ``"corpus"`` buffers the first epoch (paper-exact),
    ``"degree"`` and ``"decayed"`` stream from the first chunk —
    ``"decayed"`` additionally folds each consumed virtual chunk's
    :func:`~repro.sampling.negative.walk_frequencies` into an
    exponentially-decayed count vector and rebuilds its alias table every
    K folds (counted in ``telemetry.sampler_rebuilds``).

    ``tasks`` switches the engine from the static corpus to an iterable
    (possibly a lazy generator) of :class:`~repro.parallel.tasks.WalkTask`
    items, the dynamic-graph replay.  It is streamed once, so ``epochs``
    must be 1.

    ``chunk_size`` is the number of start nodes per chunk.  Because walks
    are seeded by global walk index, the result is bit-identical across
    ``n_workers``, ``transport`` and ``chunk_size`` settings
    for every ``negative_source`` — and bit-identical to itself run
    twice.  (``"decayed"`` keeps all of that but additionally pins its
    fold/rebuild schedule to its canonical ``virtual_chunk``, so only runs
    sharing that value agree.)  Seeds derive from the same 63-bit stream as
    the sequential trainer (:func:`repro.utils.rng.draw_seed`).

    ``exec_backend`` selects the chunk-execution kernel
    (:data:`repro.embedding.kernels.EXEC_REGISTRY`): ``"reference"`` is the
    bit-identical historical per-walk loop; ``"blocked"`` runs the
    vectorized chunk kernels (bulk negative draw, rank-k RLS block solves
    for the OS-ELM ``"proposed"`` model, batched per-walk SGD updates) for
    a large walks/s win at the documented ``BLOCKED_RTOL`` tolerance.
    Because ``"blocked"`` draws each chunk's negatives in one bulk pass,
    its negative stream is pinned to the chunk schedule: results stay
    bit-identical across ``n_workers`` and ``transport``,
    but — like ``"decayed"``'s virtual-chunk contract — change with
    ``chunk_size``.
    ``None`` follows the model's own :attr:`~repro.embedding.base.EmbeddingModel.exec_backend`
    preference (``"reference"`` unless a checkpoint says otherwise).

    ``store`` hooks the run up to the serving layer: pass a
    :data:`repro.store.STORE_REGISTRY` name or a live
    :class:`~repro.store.base.EmbeddingStore` and the pipeline publishes
    versioned epoch snapshots into it as training proceeds — one version
    per training epoch on the static path, one per task epoch on the
    dynamic path, published when its last chunk has trained.  Task epochs
    must strictly increase (:class:`~repro.parallel.tasks.WalkTask`): a
    task whose epoch is not above the previous task's raises
    ``ValueError`` before it trains or publishes.  Publishes read the
    model through its zero-copy
    :meth:`~repro.embedding.base.EmbeddingModel.embedding_view` and write
    only the shards that changed, so a live run ships no full-table
    copies (``telemetry.store_full_copies`` pins this; the per-publish
    accounting lands in the ``store_*`` telemetry fields).  The store
    rides out on ``TrainingResult.store`` — the caller owns it (serve
    from it, then ``close()`` it), and readers pinned to an epoch see
    bit-identical vectors while training publishes behind them.

    Returns a :class:`TrainingResult` whose ``telemetry`` field carries the
    per-stage :class:`PipelineTelemetry`.
    """
    from repro.experiments.hyper import Node2VecParams

    check_positive("n_workers", n_workers, strict=False, integer=True)
    check_positive("epochs", epochs, integer=True)
    check_positive("chunk_size", chunk_size, integer=True)
    check_in_set("transport", transport, TRANSPORTS)
    source = resolve_source(negative_source)
    if tasks is not None and epochs != 1:
        raise ValueError(
            "a task stream is single-pass: epochs must be 1 when tasks is given"
        )
    hp = hyper or Node2VecParams()
    rng = as_generator(seed)

    if isinstance(model, str):
        mdl = make_model(model, graph.n_nodes, dim, seed=draw_seed(rng), **model_kwargs)
    elif model_kwargs:
        raise ValueError("model_kwargs only apply when model is a registry name")
    else:
        mdl = model

    emb_store = None
    if store is not None:
        # lazy: repro.store pulls the shm backend, which imports this package
        from repro.store import resolve_store

        emb_store = resolve_store(store, mdl.n_nodes, mdl.dim)

    # Draw every seed up front, independent of negative_source, so every
    # source trains on the same walks.
    sampler_seed = draw_seed(rng)
    epoch_seeds = [draw_seed(rng) for _ in range(epochs)]

    source.configure(power=negative_power, seed=sampler_seed)
    source.bootstrap(graph)

    def _generator(epoch: int) -> ParallelWalkGenerator:
        return ParallelWalkGenerator(
            graph,
            hp.walk_params(),
            n_workers=n_workers,
            chunk_size=chunk_size,
            seed=epoch_seeds[epoch],
            transport=transport,
        )

    trainer = WalkTrainer(mdl, window=hp.w, ns=hp.ns, exec_backend=exec_backend)
    tele = PipelineTelemetry(
        negative_source=source.name,
        n_workers=int(n_workers),
        epochs=int(epochs),
        exec_backend=trainer.backend.name,
        blas_threads=trainer.blas_threads,
    )
    t_total = time.perf_counter()

    seen_epochs: set[int] = set()
    consumed = 0  # global walk counter pinning the virtual-chunk schedule

    def _chunks(gen: ParallelWalkGenerator) -> Iterator[tuple[list, int, bool]]:
        """Drain one generation pass over the run's walk tasks (the static
        corpus when ``tasks`` is None), yielding ``(walks, task_epoch,
        task_done)`` and folding stall/generation times, the chunk count,
        snapshot accounting, transport and the buffering high-water mark
        into the telemetry."""
        t_wait = time.perf_counter()
        for walks, gen_s, epoch, task_done in gen.stream_timed(tasks):
            stalled = time.perf_counter() - t_wait
            tele.wait_s += stalled
            if epoch not in seen_epochs:
                seen_epochs.add(epoch)
                tele.snapshot_stall_s += stalled
                tele.n_snapshots = len(seen_epochs)
            tele.generation_s += gen_s
            tele.n_chunks += 1
            yield walks, epoch, task_done
            t_wait = time.perf_counter()
        stats = gen.last_stats
        tele.peak_buffered_walks = max(tele.peak_buffered_walks, stats.peak_in_flight)
        tele.ipc_walk_bytes += stats.ipc_walk_bytes
        tele.ipc_snapshot_bytes += stats.snapshot_bytes
        tele.ipc_snapshot_bytes_saved += stats.snapshot_bytes_saved
        tele.inline_chunks += stats.inline_chunks
        tele.transport = gen.effective_transport

    def _train(walks: list) -> None:
        """Train one consumed chunk, feeding each segment's walk
        frequencies back to the source while it wants them.  A source with
        a virtual-chunk schedule sees the chunk split at canonical
        boundaries, so its fold/rebuild points — and therefore the sampler
        every walk trains against — do not depend on the physical
        chunking."""
        nonlocal consumed
        segments = (
            _virtual_segments(walks, source.virtual_chunk, consumed)
            if source.virtual_chunk
            else (walks,)
        )
        for seg in segments:
            t0 = time.perf_counter()
            trainer.train_corpus(seg, source.sampler())
            tele.train_s += time.perf_counter() - t0
            consumed += len(seg)
            if source.wants_frequencies:
                tele.sampler_rebuilds += source.observe(
                    walk_frequencies(seg, graph.n_nodes), len(seg)
                )

    published: int | None = None  # the version the store last received

    def _end_version(version: int) -> None:
        """Close model version ``version`` — a training epoch on the static
        path, a task epoch on a task stream — and publish it into the
        store, unless that version is already published.  Zero-copy: the
        table is read through ``embedding_view`` and only changed shards
        are written; a model without a view falls back to ``.embedding``
        and the copy is counted in the telemetry."""
        nonlocal published
        if emb_store is None or version == published:
            return
        published = version
        t0 = time.perf_counter()
        view = mdl.embedding_view()
        full = view is None
        stats = emb_store.publish(
            version, mdl.embedding if full else view, full_copy=full
        )
        tele.store_publishes += 1
        tele.store_publish_s += time.perf_counter() - t0
        tele.store_publish_bytes += stats.bytes_written
        tele.store_full_copies += stats.full_table_copies

    for epoch in range(epochs):
        if source.pending_bootstrap is not None:
            # Buffer the whole first epoch while the source counts it, then
            # freeze the sampler and train the kept walks in one call — the
            # paper's exact first-epoch semantics.  Shm chunks are slot
            # views that die on slot reuse, so kept walks are materialized.
            gen = _generator(epoch)
            kept: list = []
            for walks, _, _ in _chunks(gen):
                shm = gen.effective_transport == "shm"
                kept.extend(w.copy() if shm else w for w in walks)
                source.observe(walk_frequencies(walks, graph.n_nodes), len(walks))
            source.finalize()
            tele.peak_buffered_walks = max(tele.peak_buffered_walks, len(kept))
            _train(kept)
        else:
            for walks, task_epoch, task_done in _chunks(_generator(epoch)):
                _train(walks)
                # a task's last chunk (source fold included) has trained;
                # epochs strictly increase, so its epoch is complete and
                # closes now, not when the next task's first chunk arrives
                if tasks is not None and task_done:
                    _end_version(task_epoch)

        if tasks is None:
            _end_version(epoch)

    # the last task epoch always publishes: a no-op when its own close
    # already did; a buffered run trains every epoch at once, so this is
    # its only publish
    if tasks is not None and seen_epochs:
        _end_version(max(seen_epochs))

    tele.total_s = time.perf_counter() - t_total
    tele.train_walks = trainer.n_walks
    tele.train_contexts = trainer.n_contexts
    return trainer.result(hyper=hp, telemetry=tele, store=emb_store)
