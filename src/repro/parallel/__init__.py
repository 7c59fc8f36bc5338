"""Host-side parallelism: multiprocess walk generation, the zero-copy walk
transport and the streaming pipelined training loop mirroring the board's
PS/PL overlap."""

from repro.parallel.pipeline import (
    DEFAULT_CHUNK_SIZE,
    NEGATIVE_SOURCES,
    TRANSPORTS,
    ParallelWalkGenerator,
    PipelineTelemetry,
    WorkerDiedError,
    train_parallel,
)
from repro.parallel.shm_ring import ShmWalkRing
from repro.parallel.snapshots import SnapshotStore
from repro.parallel.tasks import WalkTask

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "NEGATIVE_SOURCES",
    "ParallelWalkGenerator",
    "PipelineTelemetry",
    "ShmWalkRing",
    "SnapshotStore",
    "TRANSPORTS",
    "WalkTask",
    "WorkerDiedError",
    "train_parallel",
]
