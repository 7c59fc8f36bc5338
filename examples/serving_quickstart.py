#!/usr/bin/env python3
"""Serving quickstart: query a live-training embedding store.

The paper's sequential-training premise (§1) is that the embedding is
usable *while* training proceeds — on the board, the PS reads the table the
PL is still updating.  The host-side analogue is the ``repro.store`` +
``repro.serving`` pair:

1. train through the pipeline with ``store=`` — every epoch publishes a
   versioned, sharded snapshot of the live table (per-shard incremental:
   unchanged shards are shared by reference, zero full-table copies);
2. point an asyncio :class:`repro.serving.EmbeddingService` at the store
   and answer get-vector / link-score / top-k queries, each resolved
   against a published epoch (latest by default, or a pinned older one);
3. for cross-process serving, use ``store="shm"``: a reader process
   attaches to a pinned epoch's shared-memory shards zero-copy.

Run:  python examples/serving_quickstart.py
"""

import asyncio

import numpy as np

from repro import serve_embedding, train_embedding
from repro.experiments.hyper import Node2VecParams
from repro.graph import cora_like
from repro.serving import EmbeddingService
from repro.store import ShmEpochReader


async def main() -> None:
    graph = cora_like(scale=0.2, seed=0)
    hyper = Node2VecParams(r=2, l=20, w=6, ns=3)
    print(f"graph: {graph}")

    # -- train with live publishing ------------------------------------- #
    # store= hooks a sharded store into the training loop: each of the 3
    # epochs publishes a version
    res = train_embedding(
        graph, dim=32, hyper=hyper, seed=7, epochs=3,
        n_workers=0, negative_source="degree", store="shm",
    )
    store = res.store
    t = res.telemetry
    print(
        f"published epochs {store.epochs()} in {t.store_publish_s * 1e3:.1f}ms "
        f"({t.store_publish_bytes:,} bytes written, "
        f"{t.store_full_copies} full-table copies)"
    )

    # -- serve ----------------------------------------------------------- #
    service = EmbeddingService(store, cache_capacity=1024)

    vec = await service.get_vector(0)
    print(f"get_vector(0): dim {vec.shape[0]}, ||v|| = {np.linalg.norm(vec):.3f}")

    pairs = np.array([[0, 1], [0, graph.n_nodes - 1]])
    scores = await service.score_links(pairs)
    print(f"link scores {pairs.tolist()}: {np.round(scores, 3).tolist()}")

    neighbors = await service.top_k(0, k=5, metric="cosine")
    print(f"top-5 cosine neighbors of node 0: {[n for n, _ in neighbors]}")

    # -- epoch pinning ---------------------------------------------------- #
    # a reader pinned to an old epoch keeps serving it bit-identically no
    # matter how many newer versions retire around it
    with service.reader(epoch=0) as reader:
        then = await service.get_vector(0, epoch=reader.epoch)
        now = await service.get_vector(0)
        drift = float(np.linalg.norm(np.asarray(now) - np.asarray(then)))
        print(f"node 0 moved {drift:.4f} between epoch 0 and epoch 2")

    # -- cross-process attach (the "shm" backend's point) ----------------- #
    store.pin(store.latest_epoch)
    spec = store.manifest_spec()  # plain data: ships over any transport
    with ShmEpochReader.attach(spec) as remote:
        same = np.array_equal(remote.get_one(0), await service.get_vector(0))
        print(f"shm reader attached to epoch {remote.epoch}: bit-identical = {same}")
    store.unpin(spec["epoch"])

    stats = service.telemetry.as_dict()
    print(
        f"telemetry: {stats['get']['n']} gets "
        f"(p50 {stats['get']['p50_s'] * 1e6:.1f}µs), "
        f"cache hit rate {stats['cache_hit_rate']:.0%}"
    )

    # serve_embedding() is the one-call version of the above: it wraps a
    # finished result (or a bare table) in a store + service
    quick = serve_embedding(res.embedding, store="local")
    print(f"serve_embedding snapshot: {quick.store!r}")
    quick.store.close()
    store.close()


if __name__ == "__main__":
    asyncio.run(main())
