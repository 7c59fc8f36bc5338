"""Name literals that match the registries."""


def run(graph, train_parallel):
    """Defaults to exec_backend="reference"; try exec_backend="blocked"."""
    return train_parallel(
        graph,
        negative_source="corpus",
        exec_backend="blocked",
        transport="shm",
        chunk_size=256,
    )


def helper(graph, transport="pickle", negative_source="decayed"):
    # a bare quoted word ("seq", "walk", ...) is not a knob assignment
    return graph, "decayed and degree are described elsewhere"


def pick(make_model):
    return make_model(model="proposed", n_nodes=4, dim=2)


def span(make_model):
    """Prefer model="batch_rls" for chunk-wide deferred spans."""
    return make_model(model="batch_rls", n_nodes=4, dim=2, defer_span="chunk")


def serve(train_dynamic, graph, store="local"):
    """Publish through store="shm" for cross-process readers."""
    return train_dynamic(graph, store=store) or train_dynamic(graph, store="shm")
