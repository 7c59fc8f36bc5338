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

Only pooled chunks resolve snapshots: a chunk under
:data:`~repro.parallel.pipeline.POOL_MIN_WALK_STEPS` walk-steps (a replay
event's few walks) walks in the consumer on the task's own graph object
and ships nothing.

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
  sid has completed;
* a worker evicts cached snapshots with a lower sid than the job it is
  running — it can never see them again.

``bytes_shipped`` / ``bytes_saved`` feed ``PipelineTelemetry``:
``bytes_saved`` counts the payload bytes that the per-job scheme would have
pushed through the pickle channel but the store did not.
"""

from __future__ import annotations

import pickle

from repro.parallel.shm_ring import _open_untracked

__all__ = ["SnapshotStore", "resolve_snapshot_ref"]


class SnapshotStore:
    """Consumer-side snapshot publisher (one instance per generation pass).

    ``ref_for(sid, graph)`` returns the picklable job reference for a
    snapshot, publishing it in full on first call; ``retire_below(sid)``
    unlinks segments every job of which has provably completed;
    ``close()`` unlinks everything at pass end.
    """

    def __init__(self) -> None:
        self._segments: dict[int, object] = {}
        self._refs: dict[int, tuple] = {}
        self._payload_len: dict[int, int] = {}
        self.bytes_shipped = 0
        self.bytes_saved = 0

    def ref_for(self, sid: int, graph) -> tuple:
        """The job reference for snapshot ``sid``, publishing on first use."""
        ref = self._refs.get(sid)
        if ref is None:
            return self._publish(sid, graph)
        # every job after the first rides for free (shm) or re-ships the
        # pre-pickled payload (bytes fallback)
        if ref[0] == "shm":
            self.bytes_saved += self._payload_len[sid]
        else:
            self.bytes_shipped += self._payload_len[sid]
        return ref

    def _publish(self, sid: int, graph) -> tuple:
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
        O(live snapshots) instead of O(all snapshots)."""
        for old in [s for s in self._refs if s < sid]:
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


def resolve_snapshot_ref(ref):
    """Worker side: the graph a ``("shm" | "bytes", sid, payload)`` job
    reference points at, deserializing at most once per (worker, sid) and
    evicting sids this worker has moved past (per-worker job sids are
    non-decreasing).  Any other ref kind raises ``ValueError``."""
    kind, sid, payload = ref
    graph = _WORKER_SNAPSHOTS.get(sid)
    if graph is not None:
        return graph
    if kind == "shm":
        shm = _open_untracked(payload["name"])
        try:
            graph = pickle.loads(bytes(shm.buf[: payload["size"]]))
        finally:
            shm.close()
    elif kind == "bytes":
        graph = pickle.loads(payload)
    else:
        raise ValueError(f"unknown snapshot ref kind {kind!r}")
    for old in [s for s in _WORKER_SNAPSHOTS if s < sid]:
        del _WORKER_SNAPSHOTS[old]
    _WORKER_SNAPSHOTS[sid] = graph
    return graph
