"""Tracing from outside the program: an in-memory span recorder and the
subclasses the benchmark passes through the program's public parameters
(``exec_backend=``, ``negative_source=``, ``store=``).  Each subclass times
the calls into one layer and defers to the real implementation, so a traced
run trains bit-identical embeddings.

A span is ``[name, start, end, parent, rid]``: ``parent`` is the index of
the enclosing span (-1 at the root) and ``rid`` the request it belongs to
(rep, event/epoch or query index).  The program is single-threaded on the
consumer side and the service never suspends mid-query, so one stack of
open spans gives every span its parent.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any

from repro.embedding.kernels import EXEC_REGISTRY, ExecBackend
from repro.sampling.sources import DecayedSource
from repro.store import LocalEmbeddingStore

SPAN_FIELDS = ("name", "start", "end", "parent", "rid")


class Tracer:
    """Spans and counters kept in memory, written out when the run ends."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._open: list[int] = []

    def begin(self, name: str, rid: int = -1) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, int(rid)])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._open.pop()

    def __deepcopy__(self, memo: dict) -> Tracer:
        # the pipeline trains against a deep copy of a source instance
        # (resolve_source); the copy must report into this same tracer
        return self

    def write(self, path: Path, meta: dict) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        spans = [[n, s - t0, e - t0, p, r] for n, s, e, p, r in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "span_fields": SPAN_FIELDS, "spans": spans}))


def durations(spans: list[list[Any]], name: str) -> list[float]:
    return [s[2] - s[1] for s in spans if s[0] == name]


class _TracedKernel:
    """Mixin over a registered backend class: times the three chunk stages
    and counts the chunk's exact op profile."""

    tracer: Tracer

    def train_chunk(self, model, walks, sampler, **kw):
        i = self.tracer.begin("embedding.train_chunk")
        stats = super().train_chunk(model, walks, sampler, **kw)
        self.tracer.end(i)
        c = self.tracer.counters
        c["embedding.mac"] += stats.ops.mac
        c["embedding.win"] += stats.ops.win
        return stats

    def draw_negatives(self, *args, **kw):
        i = self.tracer.begin("embedding.draw")
        out = super().draw_negatives(*args, **kw)
        self.tracer.end(i)
        return out

    def train_prepared(self, *args, **kw):
        i = self.tracer.begin("embedding.arith")
        super().train_prepared(*args, **kw)
        self.tracer.end(i)


def traced_backend(name: str, tracer: Tracer) -> ExecBackend:
    """An instance of a subclass of the registered backend ``name``; it
    keeps the registry name, so telemetry reports the backend that ran."""
    base = EXEC_REGISTRY[name]
    cls = type(f"Traced{base.__name__}", (_TracedKernel, base), {})
    backend = cls()
    backend.tracer = tracer
    return backend


class TracedDecayedSource(DecayedSource):
    """The ``"decayed"`` source with its default knobs, timing each fold."""

    def __init__(self, tracer: Tracer, **kw: Any) -> None:
        super().__init__(**kw)
        self.tracer = tracer

    def observe(self, chunk_frequencies, n_walks):
        i = self.tracer.begin("sampling.observe")
        rebuilt = super().observe(chunk_frequencies, n_walks)
        self.tracer.end(i)
        return rebuilt


class StampedStore(LocalEmbeddingStore):
    """The ``"local"`` store, remembering when each publish returned: the
    client's clock for freshness (update due -> queryable)."""

    def __init__(self, n_nodes: int, dim: int, **kw: Any) -> None:
        super().__init__(n_nodes, dim, **kw)
        self.published: list[tuple[int, float]] = []

    def publish(self, epoch, vectors, *, full_copy=False):
        stats = super().publish(epoch, vectors, full_copy=full_copy)
        self.published.append((int(epoch), perf_counter()))
        return stats


class TracedStore(StampedStore):
    """:class:`StampedStore` with a span around every publish and read."""

    def __init__(self, n_nodes: int, dim: int, tracer: Tracer, **kw: Any) -> None:
        super().__init__(n_nodes, dim, **kw)
        self.tracer = tracer

    def publish(self, epoch, vectors, *, full_copy=False):
        i = self.tracer.begin("store.publish", epoch)
        stats = super().publish(epoch, vectors, full_copy=full_copy)
        self.tracer.end(i)
        c = self.tracer.counters
        c["store.bytes_written"] += stats.bytes_written
        c["store.shards_written"] += stats.shards_written
        c["store.shards_reused"] += stats.shards_reused
        return stats

    def get_one(self, node, *, epoch=None):
        i = self.tracer.begin("store.get_one")
        out = super().get_one(node, epoch=epoch)
        self.tracer.end(i)
        return out

    def get(self, nodes, *, epoch=None):
        i = self.tracer.begin("store.get")
        out = super().get(nodes, epoch=epoch)
        self.tracer.end(i)
        return out

    def shard_view(self, shard, *, epoch=None):
        i = self.tracer.begin("store.shard_view")
        out = super().shard_view(shard, epoch=epoch)
        self.tracer.end(i)
        return out
