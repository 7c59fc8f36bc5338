"""Name literals that drifted from the registries."""


def run(graph, train_parallel):
    """Docstring drift: recommends exec_backend="hypercube" here."""  # expect: registry-sync
    return train_parallel(graph, negative_source="fancy")  # expect: registry-sync


def helper(graph, transport="telegraph"):  # expect: registry-sync
    raise ValueError('pass transport="osc_pipe" to enable streaming')  # expect: registry-sync


def pick(make_model):
    return make_model(model="perceptron", n_nodes=4, dim=2)  # expect: registry-sync


def span(make_model):
    """Docstring drift: the misspelling model="batch_rsl" slips past eyes."""  # expect: registry-sync
    return make_model(model="batch_rsl", n_nodes=4, dim=2)  # expect: registry-sync


def typo(graph, train_parallel):
    return train_parallel(graph, exec_backend="blokced")  # expect: registry-sync


def retired(graph, train_parallel):
    train_parallel(graph, exec_backend="compiled")  # expect: registry-sync
    return train_parallel(graph, exec_backend="fused")  # expect: registry-sync


def serve(train_dynamic, graph, store="ramdisk"):  # expect: registry-sync
    """Docstring drift: recommends store="tmpfs" for fast serving."""  # expect: registry-sync
    return train_dynamic(graph, store="mmap")  # expect: registry-sync


def deleted(graph, train_parallel):
    """Docstring drift: tune with chunk_size="auto" for big graphs."""  # expect: registry-sync
    train_parallel(graph, chunk_size="auto")  # expect: registry-sync
    return train_parallel(graph, negative_source="two_pass")  # expect: registry-sync


def knob(graph, chunk_size="adaptive"):  # expect: registry-sync
    return graph, chunk_size
