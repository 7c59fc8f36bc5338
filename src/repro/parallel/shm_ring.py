"""Fixed-capacity shared-memory ring for zero-copy walk transport.

The board keeps walk traffic on-chip (BRAM) instead of round-tripping it
through host DRAM; the host-side analogue of that bottleneck is the pickle
channel between walk workers and the trainer — every chunk serialized in the
worker, copied through a pipe, deserialized in the parent.  LightRW and
GraphACT both identify this transport channel (not the walk computation) as
the scaling limiter.  :class:`ShmWalkRing` removes it: workers write walk
chunks straight into a ``multiprocessing.shared_memory`` segment and the
trainer reads NumPy *views* out of it, so the only bytes that still cross
the pickle channel are a three-int control tuple per chunk.

Segment lifecycle (create → close → unlink) is statically enforced by the
``shm-lifecycle`` rule of ``tools/reprolint`` (README "Static analysis &
typing").

Layout
------
The segment is one int64 array carved into ``n_slots`` identical slots::

    counts  : (n_slots,)                         walks currently in each slot
    lengths : (n_slots, walks_per_slot)          per-walk lengths (ragged walks)
    data    : (n_slots, walks_per_slot, walk_length)   the walk node ids

Walks are ragged (they truncate at dangling nodes) but never *longer* than
``walk_length``; the per-walk ``lengths`` row recovers the ragged shape on
the read side without copying.

Free/ready accounting
---------------------
The ring itself is only storage — slot states are owned by the two ends of
the pipeline:

* *free* slots live in a consumer-side free list.  A slot is assigned to a
  job at submission, and returns to the free list only after the consumer
  has finished with the views read from it.
* *ready* slots travel through the pool's ordinary FIFO result channel as
  ``(slot, n_walks, seconds)`` control tuples, which preserves the
  deterministic chunk order without any shared counters or locks.

Because submission is consumer-driven (one fresh submission per consumed
chunk), a slot can never be rewritten while the consumer still reads from
it as long as the ring has at least one slot more than the number of
in-flight jobs.

Lifetime
--------
The creating process owns the segment: ``close()`` + ``unlink()`` in a
``finally`` (or via the context manager).  Attaching processes must not
leave the segment registered with the ``resource_tracker`` — Python < 3.13
registers *attachments* too, which produces spurious "leaked shared_memory"
warnings and a double unlink at shutdown; :func:`attach` undoes that
(``track=False`` on 3.13+).
"""

from __future__ import annotations

import os

import numpy as np

from repro.sampling.lockstep import WalkBatch
from repro.utils.validation import check_positive

__all__ = ["ShmWalkRing"]

_INT64 = np.dtype(np.int64)


def _open_untracked(name: str):
    """Attach to an existing segment without taking tracker ownership.

    Python >= 3.13 supports this directly (``track=False``).  On older
    versions attaching registers the name with the resource tracker too —
    but our workers are *forked* children sharing the parent's tracker
    process, so that registration is an idempotent set-add of a name the
    owner already registered, and the owner's ``unlink`` retires it exactly
    once.  (Explicitly unregistering here would instead delete the owner's
    registration out from under it.)
    """
    from multiprocessing import shared_memory

    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        return shared_memory.SharedMemory(name=name)


class ShmWalkRing:
    """``n_slots`` reusable chunk slots in one shared int64 segment.

    Construct with :meth:`create` (owner side) or :meth:`attach` (worker
    side); the owner's :meth:`spec` dict is what travels to workers.
    """

    def __init__(self, shm, *, n_slots: int, walks_per_slot: int, walk_length: int,
                 owner: bool):
        self.shm = shm
        self.n_slots = int(n_slots)
        self.walks_per_slot = int(walks_per_slot)
        self.walk_length = int(walk_length)
        self.owner = bool(owner)
        n, wps, wl = self.n_slots, self.walks_per_slot, self.walk_length
        arr = np.frombuffer(shm.buf, dtype=_INT64, count=n * (1 + wps + wps * wl))
        self._counts = arr[:n]
        self._lengths = arr[n : n + n * wps].reshape(n, wps)
        self._data = arr[n + n * wps :].reshape(n, wps, wl)

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def create(cls, n_slots: int, walks_per_slot: int, walk_length: int) -> "ShmWalkRing":
        from multiprocessing import shared_memory

        check_positive("n_slots", n_slots, integer=True)
        check_positive("walks_per_slot", walks_per_slot, integer=True)
        check_positive("walk_length", walk_length, integer=True)
        words = n_slots * (1 + walks_per_slot + walks_per_slot * walk_length)
        shm = shared_memory.SharedMemory(create=True, size=words * _INT64.itemsize)
        ring = cls(shm, n_slots=n_slots, walks_per_slot=walks_per_slot,
                   walk_length=walk_length, owner=True)
        ring._counts[:] = 0
        return ring

    @classmethod
    def attach(cls, spec: dict) -> "ShmWalkRing":
        shm = _open_untracked(spec["name"])
        return cls(shm, n_slots=spec["n_slots"], walks_per_slot=spec["walks_per_slot"],
                   walk_length=spec["walk_length"], owner=False)

    @property
    def spec(self) -> dict:
        """Everything a worker needs to attach (picklable)."""
        return {
            "name": self.shm.name,
            "n_slots": self.n_slots,
            "walks_per_slot": self.walks_per_slot,
            "walk_length": self.walk_length,
        }

    @property
    def nbytes(self) -> int:
        return self.shm.size

    # ------------------------------------------------------------------ #
    # Slot I/O
    # ------------------------------------------------------------------ #

    def write(self, slot: int, batch: WalkBatch) -> bool:
        """Copy a chunk's padded :class:`~repro.sampling.lockstep.WalkBatch`
        into ``slot`` in one block.  False (slot untouched) if it has more
        walks or wider rows than the slot — the caller then falls back to
        the pickle channel for this chunk."""
        n, width = batch.data.shape
        if n > self.walks_per_slot or width > self.walk_length:
            return False
        self._data[slot, :n, :width] = batch.data
        self._lengths[slot, :n] = batch.lengths
        self._counts[slot] = n
        return True

    def read(self, slot: int) -> list:
        """The chunk in ``slot`` as ragged int64 *views* (zero-copy).

        Views alias the slot: they stay valid only until the slot is handed
        back to the free list (i.e. until the next chunk is requested).
        Callers that retain walks past that point must copy.
        """
        count = int(self._counts[slot])
        lengths = self._lengths[slot]
        data = self._data[slot]
        return [data[i, : int(lengths[i])] for i in range(count)]

    # ------------------------------------------------------------------ #
    # Lifetime
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Drop this process's mapping (never raises).

        The consumer may still hold walk views into the segment (``read``
        is zero-copy); ``mmap`` refuses to unmap while such exported
        pointers exist.  In that case we detach the ``SharedMemory``
        handles instead: the file descriptor closes now, the mapping is
        released when the last view is garbage-collected, and the
        ``SharedMemory`` destructor becomes a no-op rather than raising an
        unraisable ``BufferError`` at GC time.  ``unlink`` does not need
        the mapping gone, so the segment itself is still removed either
        way.
        """
        self._counts = self._lengths = self._data = None
        try:
            self.shm.close()
        except BufferError:
            # Best-effort detach via SharedMemory internals (stable since
            # 3.8, but guarded: if a future CPython renames them we degrade
            # to the unraisable-warning behavior rather than breaking).
            shm = self.shm
            if hasattr(shm, "_buf"):
                shm._buf = None  # the last walk view keeps the buffer alive
            if hasattr(shm, "_mmap"):
                shm._mmap = None  # unmapped when that view dies
            fd = getattr(shm, "_fd", -1)
            if fd >= 0:
                try:
                    os.close(fd)
                except OSError:
                    pass
                shm._fd = -1

    def unlink(self) -> None:
        """Remove the segment (owner side)."""
        if self.owner:
            self.shm.unlink()

    def __enter__(self) -> "ShmWalkRing":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
        self.unlink()

    def __repr__(self) -> str:
        return (
            f"ShmWalkRing(n_slots={self.n_slots}, "
            f"walks_per_slot={self.walks_per_slot}, "
            f"walk_length={self.walk_length}, nbytes={self.nbytes})"
        )
