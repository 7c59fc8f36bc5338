"""Publish-once snapshot transport for dynamic-graph task streams.

The dynamic replay tags every :class:`~repro.parallel.tasks.WalkTask` with
its post-insertion :class:`~repro.graph.csr.CSRGraph` snapshot.  Before this
module, that snapshot rode the pool's pickle channel inside *every chunk
job* — for a task of J chunks the same O(n + m) graph payload crossed the
pipe J times and was deserialized J times (the "per-job snapshot pickling"
cost the ROADMAP flagged after PR 3).

:class:`SnapshotStore` ships each snapshot **once**: the consumer pickles
the graph a single time into a ``multiprocessing.shared_memory`` segment,
and chunk jobs carry only a tiny ``("shm", sid, spec)`` reference.  Each
worker attaches, deserializes once, and caches the graph by snapshot id —
so a snapshot reaches a worker once per epoch tag no matter how many chunk
jobs it spans.  When shared memory is unavailable the store degrades to a
``("bytes", sid, payload)`` reference carrying the pre-pickled payload per
job (bytes still cross per job, but the consumer-side pickling and the
worker-side deserialization stay once-per-snapshot thanks to the same
caches).

Delta transport
---------------
High-rate streams (one edge insertion per event) make even publish-once
O(n + m) per event: every event is a new snapshot.  When a task carries a
``delta`` (the new-edge batch such that its graph equals the previous
snapshot with those edges inserted — see
:meth:`repro.graph.dynamic.DynamicGraph.walk_tasks`), the store publishes
the chain *base* snapshot once in full and thereafter ships
``("delta", sid, base_ref, payload)`` references whose payload is only the
pickled edge array **cumulative since the base** — O(delta) bytes per
event.  Workers rebuild the snapshot by patching their cached base through
:meth:`~repro.graph.csr.CSRGraph.insert_edges` (the same vectorized merge
the consumer ran), so the patched graph is bit-identical to what a full
pickle would have delivered.

Deltas are cumulative from the base — not relative to the immediately
preceding sid — because a worker may never see intermediate sids (other
workers took those jobs).  Any single delta ref therefore suffices to
materialize its snapshot from the base alone.

Every ``rebase_every``-th snapshot is published in full again (the re-base
knob): chains stay short, so worker caches and the consumer's retire
protocol never hold more than one full snapshot per chain, and a late
joiner is at most ``rebase_every - 1`` cheap patches behind.
``rebase_every=1`` disables deltas entirely (every snapshot full).  A
cheap arc-count invariant guards the chain: if an offered delta does not
account exactly for the snapshot's arc growth (e.g. a hand-built task
stream with overlapping batches), the store falls back to a full publish
for that snapshot rather than risk a wrong graph.

Segment lifecycle (create → close → unlink) is statically enforced by the
``shm-lifecycle`` rule of ``tools/reprolint`` (README "Static analysis &
typing").

Lifecycle
---------
Snapshot ids (``sid``) are assigned per task in submission order, so they
are monotonically non-decreasing along both the consumer's FIFO result
channel and each worker's job sequence.  That ordering is the whole
protocol:

* the consumer retires (unlinks) a segment as soon as a *result* for a
  higher sid arrives — FIFO consumption guarantees every job of the lower
  sid has completed — **except the live chain base**, which outstanding
  delta refs still point at (it retires after the next re-base, once a
  result passes the new base's sid);
* a worker evicts cached snapshots with a lower sid than the job it is
  running — it can never see them again — keeping the job's own sid and,
  for delta jobs, the chain base's sid.

``bytes_shipped`` / ``bytes_saved`` feed ``PipelineTelemetry``:
``bytes_saved`` counts the payload bytes that the per-job scheme would have
pushed through the pickle channel but the store did not.
``delta_bytes_shipped`` / ``delta_refs`` / ``rebase_count`` are the delta
extension's counters (→ ``ipc_delta_bytes`` / ``delta_applies`` /
``rebase_count`` in the telemetry).
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.parallel.shm_ring import _open_untracked

__all__ = ["DEFAULT_REBASE_EVERY", "SnapshotStore", "resolve_snapshot_ref"]

#: Full-snapshot re-base period for delta chains: 1 full publish followed by
#: up to ``DEFAULT_REBASE_EVERY - 1`` delta publishes.  16 keeps worst-case
#: worker catch-up at 15 vectorized patches while amortizing the full O(n+m)
#: publish to ~1/16 of events; ``rebase_every=1`` disables deltas.
DEFAULT_REBASE_EVERY = 16


def _sym_arcs(edges: np.ndarray) -> int:
    """Stored-arc count a canonical new-edge batch adds to an undirected
    CSR: two arcs per proper edge, one per self-loop."""
    return int(2 * edges.shape[0] - np.count_nonzero(edges[:, 0] == edges[:, 1]))


class SnapshotStore:
    """Consumer-side snapshot publisher (one instance per generation pass).

    ``ref_for(sid, graph, delta=...)`` returns the picklable job reference
    for a snapshot, publishing it on first call — in full, or as an
    O(delta) edge payload chained to the last full publish;
    ``retire_below(sid)`` unlinks segments every job of which has provably
    completed; ``close()`` unlinks everything at pass end.
    """

    def __init__(self, *, rebase_every: int = DEFAULT_REBASE_EVERY):
        if not isinstance(rebase_every, int) or rebase_every < 1:
            raise ValueError("rebase_every must be a positive integer")
        self.rebase_every = rebase_every
        self._segments: dict[int, object] = {}
        self._refs: dict[int, tuple] = {}
        self._payload_len: dict[int, int] = {}
        # live delta chain: base sid, per-snapshot new-edge batches since the
        # base, and the expected arc count (the delta-consistency guard)
        self._chain_base: int | None = None
        self._chain_edges: list[np.ndarray] = []
        self._chain_arcs = 0
        self.bytes_shipped = 0
        self.bytes_saved = 0
        self.delta_bytes_shipped = 0
        self.delta_refs = 0
        self.rebase_count = 0

    def ref_for(self, sid: int, graph, delta: np.ndarray | None = None) -> tuple:
        """The job reference for snapshot ``sid``, publishing on first use.

        ``delta``, when given, is the new-edge batch turning the *previous*
        snapshot into ``graph``; the store ships it instead of the graph
        whenever a chain base is live, the chain is shorter than
        ``rebase_every``, and the arc-count guard confirms the delta fully
        explains the snapshot's growth.
        """
        ref = self._refs.get(sid)
        if ref is not None:
            # every job after the first rides for free (shm) or re-ships the
            # pre-pickled payload (bytes fallback); a delta job re-ships its
            # O(delta) payload (plus the base payload iff the base itself is
            # in the bytes fallback — the base ref rides inside the delta ref)
            if ref[0] == "shm":
                self.bytes_saved += self._payload_len[sid]
            elif ref[0] == "bytes":
                self.bytes_shipped += self._payload_len[sid]
            else:
                self.delta_bytes_shipped += self._payload_len[sid]
                if ref[2][0] == "bytes":
                    self.bytes_shipped += self._payload_len[ref[2][1]]
            return ref
        if delta is not None and self._usable_delta(graph, delta):
            return self._publish_delta(sid, delta)
        return self._publish_full(sid, graph)

    def _usable_delta(self, graph, delta: np.ndarray) -> bool:
        if self.rebase_every == 1 or self._chain_base is None:
            return False
        if 1 + len(self._chain_edges) >= self.rebase_every:
            return False  # chain at length limit → re-base now
        # guard: the delta must account exactly for the arc growth since the
        # chain's last snapshot, else workers would patch to a wrong graph
        return graph.n_arcs == self._chain_arcs + _sym_arcs(delta)

    def _publish_delta(self, sid: int, delta: np.ndarray) -> tuple:
        self._chain_edges.append(np.asarray(delta, dtype=np.int64).reshape(-1, 2))
        self._chain_arcs += _sym_arcs(delta)
        cumulative = (
            self._chain_edges[0]
            if len(self._chain_edges) == 1
            else np.concatenate(self._chain_edges)
        )
        payload = pickle.dumps(cumulative, protocol=pickle.HIGHEST_PROTOCOL)
        base_ref = self._refs[self._chain_base]
        ref = ("delta", sid, base_ref, payload)
        self._refs[sid] = ref
        self._payload_len[sid] = len(payload)
        self.delta_bytes_shipped += len(payload)
        self.delta_refs += 1
        if base_ref[0] == "bytes":
            self.bytes_shipped += self._payload_len[self._chain_base]
        return ref

    def _publish_full(self, sid: int, graph) -> tuple:
        payload = pickle.dumps(graph, protocol=pickle.HIGHEST_PROTOCOL)
        self._payload_len[sid] = len(payload)
        shm = self._create_segment(len(payload))
        if shm is not None:
            shm.buf[: len(payload)] = payload
            self._segments[sid] = shm
            ref = ("shm", sid, {"name": shm.name, "size": len(payload)})
        else:
            ref = ("bytes", sid, payload)
        self._refs[sid] = ref
        self.bytes_shipped += len(payload)
        if self._chain_edges:
            self.rebase_count += 1  # this full publish ends a live delta chain
        self._chain_base = sid
        self._chain_edges = []
        self._chain_arcs = graph.n_arcs
        return ref

    def _create_segment(self, size: int):
        from multiprocessing import shared_memory

        try:
            return shared_memory.SharedMemory(create=True, size=size)
        except Exception:
            # no /dev/shm, size limits, … → bytes fallback for THIS
            # snapshot only: one oversized snapshot (or a transient limit)
            # must not degrade every later snapshot to per-job payloads
            return None

    def retire_below(self, sid: int) -> None:
        """Retire every snapshot with id < ``sid``: a result for ``sid``
        proves, via FIFO consumption, that their jobs all completed (and
        submission sids are non-decreasing, so no further ``ref_for`` can
        ask for them).  Unlinks the shm segment and drops the cached
        ref/payload — in the bytes fallback the ref *is* the full pickled
        payload, so eviction here is what keeps the consumer's working set
        O(live snapshots) instead of O(all snapshots).

        The live chain base is exempt even when its sid is below ``sid``:
        delta refs yet to be published (and already-published ones still in
        flight) embed it, so it survives until a re-base starts a new chain
        and a result passes the *new* base's sid."""
        for old in [s for s in self._refs if s < sid and s != self._chain_base]:
            self._retire(old)

    def close(self) -> None:
        """Retire everything (pass teardown; never raises)."""
        for sid in list(self._refs):
            self._retire(sid)

    def _retire(self, sid: int) -> None:
        self._refs.pop(sid, None)
        self._payload_len.pop(sid, None)
        shm = self._segments.pop(sid, None)
        if shm is not None:
            try:
                shm.close()
                shm.unlink()
            except Exception:
                pass


#: Worker-side cache: sid → deserialized graph.  Populated only inside pool
#: worker processes (forked children start with the parent's — empty — dict;
#: chunks walked in the consumer never touch snapshot refs).
_WORKER_SNAPSHOTS: dict[int, object] = {}


def _load_full(ref):
    """Deserialize a full ``("shm" | "bytes", sid, payload)`` reference."""
    kind, _sid, payload = ref
    if kind == "shm":
        shm = _open_untracked(payload["name"])
        try:
            return pickle.loads(bytes(shm.buf[: payload["size"]]))
        finally:
            shm.close()
    return pickle.loads(payload)


def resolve_snapshot_ref(ref):
    """Worker side: the graph a job reference points at, deserializing at
    most once per (worker, sid) and evicting sids this worker has moved
    past (per-worker job sids are non-decreasing).

    A ``("delta", sid, base_ref, payload)`` reference materializes by
    patching the chain base — cache hit, or one ``_load_full`` if this
    worker never saw a base job — with the cumulative edge batch via
    :meth:`~repro.graph.csr.CSRGraph.insert_edges`; the result is
    bit-identical to unpickling a full snapshot.  Eviction then keeps the
    base alongside the patched graph: later deltas of the same chain reuse
    it, and re-patching from it is how a worker skips sids it never ran."""
    kind, sid = ref[0], ref[1]
    graph = _WORKER_SNAPSHOTS.get(sid)
    if graph is not None:
        return graph
    if kind == "delta":
        base_ref, payload = ref[2], ref[3]
        base_sid = base_ref[1]
        base = _WORKER_SNAPSHOTS.get(base_sid)
        if base is None:
            base = _load_full(base_ref)
        graph = base.insert_edges(pickle.loads(payload))
        keep = {sid, base_sid}
        for old in [s for s in _WORKER_SNAPSHOTS if s < sid and s not in keep]:
            del _WORKER_SNAPSHOTS[old]
        _WORKER_SNAPSHOTS[base_sid] = base
    else:
        graph = _load_full(ref)
        for old in [s for s in _WORKER_SNAPSHOTS if s < sid]:
            del _WORKER_SNAPSHOTS[old]
    _WORKER_SNAPSHOTS[sid] = graph
    return graph
