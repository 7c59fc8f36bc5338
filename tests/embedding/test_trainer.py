"""Tests for repro.embedding.trainer (training loops + registry)."""

import numpy as np
import pytest

from repro.embedding import (
    DataflowOSELMSkipGram,
    OSELMSkipGram,
    SkipGramSGD,
    WalkTrainer,
    make_model,
)
from repro.sampling import NegativeSampler


class TestMakeModel:
    def test_registry_names(self):
        assert isinstance(make_model("original", 10, 4, seed=0), SkipGramSGD)
        assert isinstance(make_model("proposed", 10, 4, seed=0), OSELMSkipGram)
        assert isinstance(make_model("dataflow", 10, 4, seed=0), DataflowOSELMSkipGram)

    def test_dataflow_is_subclass_but_distinct(self):
        m = make_model("proposed", 10, 4, seed=0)
        assert not isinstance(m, DataflowOSELMSkipGram)

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_model("transformer", 10, 4)

    def test_kwargs_forwarded(self):
        m = make_model("proposed", 10, 4, seed=0, mu=0.123)
        assert m.mu == 0.123


class TestWalkTrainer:
    def test_default_reuse_policies(self):
        assert WalkTrainer(make_model("original", 10, 4, seed=0)).negative_reuse == "per_context"
        assert WalkTrainer(make_model("proposed", 10, 4, seed=0)).negative_reuse == "per_context"
        assert WalkTrainer(make_model("dataflow", 10, 4, seed=0)).negative_reuse == "per_walk"

    def test_short_walk_skipped(self):
        trainer = WalkTrainer(make_model("proposed", 10, 4, seed=0), window=5, ns=2)
        sampler = NegativeSampler(np.ones(10), seed=0)
        n = trainer.train_walk(np.array([0, 1]), sampler)
        assert n == 0
        assert trainer.n_walks == 0

    def test_counts_accumulate(self):
        trainer = WalkTrainer(make_model("proposed", 20, 4, seed=0), window=3, ns=2)
        sampler = NegativeSampler(np.ones(20), seed=0)
        trainer.train_walk(np.arange(10), sampler)
        trainer.train_walk(np.arange(8), sampler)
        assert trainer.n_walks == 2
        assert trainer.n_contexts == 8 + 6
        assert trainer.ops.walk == 2

    def test_window_validation(self):
        with pytest.raises(ValueError):
            WalkTrainer(make_model("proposed", 10, 4, seed=0), window=1)

    def test_result_snapshot(self):
        trainer = WalkTrainer(make_model("proposed", 20, 4, seed=0), window=3, ns=2)
        sampler = NegativeSampler(np.ones(20), seed=0)
        trainer.train_walk(np.arange(10), sampler)
        res = trainer.result()
        assert res.embedding.shape == (20, 4)
        assert res.n_walks == 1

