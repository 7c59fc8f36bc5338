"""Tests for the top-level convenience API (repro.api)."""

import asyncio

import numpy as np
import pytest

import repro
from repro import quick_embedding, serve_embedding, train_embedding
from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques

HP = Node2VecParams(r=1, l=10, w=4, ns=2)


class TestPackage:
    def test_version_string(self):
        assert isinstance(repro.__version__, str)
        assert repro.__version__.count(".") == 2

    def test_public_names(self):
        assert set(repro.__all__) >= {
            "train_embedding", "quick_embedding", "serve_embedding",
        }

    def test_store_backends_rendered_into_docs(self):
        from repro.api import train_dynamic

        for fn in (train_embedding, train_dynamic, serve_embedding):
            assert '"local"' in fn.__doc__ and '"shm"' in fn.__doc__


class TestTrainEmbedding:
    @pytest.fixture(scope="class")
    def graph(self):
        return ring_of_cliques(3, 6, seed=0)

    def test_default_model_is_proposed(self, graph):
        from repro.embedding import OSELMSkipGram

        res = train_embedding(graph, dim=8, hyper=HP, seed=0)
        assert type(res.model) is OSELMSkipGram

    @pytest.mark.parametrize("name", ["original", "proposed", "dataflow", "block"])
    def test_all_registry_models(self, graph, name):
        res = train_embedding(graph, dim=8, model=name, hyper=HP, seed=0)
        assert res.embedding.shape == (graph.n_nodes, 8)

    def test_unknown_model(self, graph):
        with pytest.raises(ValueError):
            # reprolint: disable=registry-sync(deliberately invalid name for the error path)
            train_embedding(graph, model="gnn", hyper=HP, seed=0)

    def test_ops_telemetry_attached(self, graph):
        res = train_embedding(graph, dim=8, hyper=HP, seed=0)
        assert res.ops.mac > 0
        assert res.ops.walk == res.n_walks
        assert res.telemetry.train_walks == res.n_walks

    def test_quick_embedding_matches_train(self, graph):
        a = quick_embedding(graph, dim=8, seed=4)
        b = train_embedding(graph, dim=8, model="proposed", seed=4).embedding
        assert a.shape == (graph.n_nodes, 8)
        assert np.array_equal(a, b)

    def test_store_kwarg_attaches_store(self, graph):
        res = train_embedding(graph, dim=8, hyper=HP, seed=0, store="local")
        try:
            assert res.store is not None
            assert np.array_equal(
                res.store.get(np.arange(graph.n_nodes)), res.embedding
            )
        finally:
            res.store.close()


class TestServeEmbedding:
    @pytest.fixture(scope="class")
    def graph(self):
        return ring_of_cliques(3, 6, seed=0)

    def test_snapshot_from_training_result(self, graph):
        res = train_embedding(graph, dim=8, hyper=HP, seed=0)
        service = serve_embedding(res, store="shm", n_shards=4)
        try:
            vec = asyncio.run(service.get_vector(3))
            assert np.array_equal(vec, res.embedding[3])
        finally:
            service.store.close()

    def test_snapshot_from_bare_array(self):
        rng = np.random.default_rng(0)
        t = rng.standard_normal((10, 4))
        service = serve_embedding(t)
        assert np.array_equal(asyncio.run(service.get_vector(7)), t[7])
        assert service.store.latest_epoch == 0
        service.store.close()

    def test_live_store_served_as_is(self, graph):
        res = train_embedding(graph, dim=8, hyper=HP, seed=0, store="local")
        try:
            service = serve_embedding(res)
            assert service.store is res.store
            with pytest.raises(ValueError, match="already"):
                serve_embedding(res, store="shm")
        finally:
            res.store.close()

    def test_non_table_source_rejected(self):
        with pytest.raises(ValueError):
            serve_embedding(np.zeros(5))
