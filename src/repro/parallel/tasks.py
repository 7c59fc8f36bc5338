"""Walk tasks: the unit of work the streaming engine consumes.

The static corpus path is one big task ("walk from these starts on the base
graph"); the dynamic-graph replay is a *stream* of tasks, each tagged with
the graph snapshot epoch it belongs to and (optionally) carrying that
snapshot.  Tagging tasks instead of rebuilding the pipeline per snapshot is
what lets scenario replay flow through the same bounded-prefetch engine as
static training — mirroring LightRW's dynamic-walk framing, where graph
mutation events and walk requests share one streaming substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # import kept type-only: tasks sit below the graph layer users
    from repro.graph.csr import CSRGraph

__all__ = ["WalkTask"]


@dataclass(frozen=True)
class WalkTask:
    """One batch of walk starts against one graph snapshot.

    Parameters
    ----------
    starts:
        start-node ids; the engine chunks them internally (``chunk_size``),
        so a task may be any size, and walk seeds stay pinned to the
        *global* walk index across the whole task stream.
    epoch:
        snapshot epoch tag (e.g. the edge-event step).  Consecutive tasks
        with distinct epochs mark snapshot boundaries in the telemetry
        (``n_snapshots``, ``snapshot_stall_s``).
    graph:
        the snapshot to walk on, or ``None`` for the engine's base graph.
        Chunks of a task never mix snapshots.
    """

    starts: np.ndarray = field(repr=False)
    epoch: int = 0
    graph: "CSRGraph | None" = field(default=None, repr=False)

    def __post_init__(self):
        starts = np.asarray(self.starts, dtype=np.int64).reshape(-1)
        object.__setattr__(self, "starts", starts)

    @property
    def n_walks(self) -> int:
        return int(self.starts.shape[0])

    def __repr__(self) -> str:
        where = "base" if self.graph is None else repr(self.graph)
        return f"WalkTask(n_walks={self.n_walks}, epoch={self.epoch}, graph={where})"
