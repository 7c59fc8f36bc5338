"""Execution knobs as kwargs: the wrappers validate them, forward them to
the pipeline unchanged, and keep sequential-only knobs off the pipeline."""

import numpy as np
import pytest

from repro import train_embedding
from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.parallel import train_parallel

HP = Node2VecParams(r=1, l=10, w=4, ns=2)


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(3, 6, seed=0)


class TestDataclass:
    def test_validation(self, graph):
        with pytest.raises(ValueError, match="n_workers"):
            train_embedding(graph, dim=8, hyper=HP, seed=1, n_workers=-1)
        with pytest.raises(TypeError, match="chunk_size"):
            # reprolint: disable=registry-sync(a chunk schedule name that no longer exists)
            train_embedding(graph, dim=8, hyper=HP, seed=1, chunk_size="auto")
        with pytest.raises(TypeError, match="snapshot_rebase_every"):
            train_parallel(graph, dim=8, hyper=HP, seed=1, snapshot_rebase_every=1)
        as_int = train_parallel(graph, dim=8, hyper=HP, seed=1, negative_power=1)
        as_float = train_parallel(graph, dim=8, hyper=HP, seed=1, negative_power=1.0)
        assert np.array_equal(as_int.embedding, as_float.embedding)


class TestEndToEndPrecedence:
    def test_config_routes_train_embedding_to_pipeline(self, graph):
        res = train_embedding(graph, dim=8, hyper=HP, seed=2, n_workers=0)
        assert res.telemetry is not None  # the pipelined path ran
        direct = train_parallel(graph, dim=8, hyper=HP, seed=2, n_workers=0)
        assert np.array_equal(res.embedding, direct.embedding)

    def test_sequential_config_knobs_apply_without_pipelining(self, graph):
        res = train_embedding(graph, dim=8, hyper=HP, seed=2, negative_power=0.5)
        assert res.telemetry is None  # still the sequential path
        default = train_embedding(graph, dim=8, hyper=HP, seed=2)
        assert not np.array_equal(res.embedding, default.embedding)
