"""The pipeline's bit-identity contract as one differential property.

Walk *j* is seeded by its global index and chunks are consumed in order, so
a run trains the same bits as the inline ``n_workers=0`` run for any worker
count, transport and chunk size, under every negative source, on the static
corpus and on a one-edge-per-event replay (each pooled event publishing its
snapshot in full).  ``"blocked"`` draws one bulk negative batch per chunk,
so its contract holds at a fixed ``chunk_size``: its inline run uses the
drawn one.
"""

import functools

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.dynamic import run_seq_scenario
from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.parallel import NEGATIVE_SOURCES, TRANSPORTS, train_parallel

HP = Node2VecParams(r=2, l=12, w=4, ns=3)
GRAPH = ring_of_cliques(4, 8, seed=0)
#: the chunk size of the inline run a ``"reference"`` run is held against
INLINE_CHUNK = 16

# the chunks here are tiny; send them all to the pool
pytestmark = pytest.mark.usefixtures("pooled")


def _train(stream, n_workers, chunk_size, transport, source, backend):
    kw = dict(
        dim=8, hyper=HP, n_workers=n_workers, chunk_size=chunk_size,
        transport=transport, negative_source=source, exec_backend=backend,
    )
    if stream == "static":
        return train_parallel(GRAPH, seed=5, **kw)
    return run_seq_scenario(GRAPH, seed=3, edges_per_event=1, max_events=40, **kw)


@functools.cache
def _inline(stream, chunk_size, source, backend):
    return _train(stream, 0, chunk_size, "shm", source, backend).embedding


@given(
    stream=st.sampled_from(("static", "one_edge")),
    n_workers=st.sampled_from((0, 2, 4)),
    transport=st.sampled_from(TRANSPORTS),
    chunk_size=st.sampled_from((3, 8, 64)),
    source=st.sampled_from(NEGATIVE_SOURCES),
    backend=st.sampled_from(("reference", "blocked")),
)
@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_bit_identical_to_the_inline_run(
    stream, n_workers, transport, chunk_size, source, backend
):
    res = _train(stream, n_workers, chunk_size, transport, source, backend)
    inline_chunk = chunk_size if backend == "blocked" else INLINE_CHUNK
    want = _inline(stream, inline_chunk, source, backend)
    assert np.array_equal(want, res.embedding)
    if stream == "one_edge" and n_workers >= 2:
        # every event went to the pool and shipped its snapshot
        assert res.extras["telemetry"].ipc_snapshot_bytes > 0
