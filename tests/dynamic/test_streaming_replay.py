"""Scenario replay through the streaming engine (the acceptance surface):
run_seq_scenario / run_drift_scenario training via train_parallel with
workers >= 2 and both transports, telemetry attached, every negative_source
including "decayed" — with worker/transport bit-identity."""

import numpy as np
import pytest

from repro import train_dynamic
from repro.dynamic import run_drift_scenario, run_seq_scenario
from repro.experiments.hyper import Node2VecParams
from repro.graph import ring_of_cliques
from repro.parallel import NEGATIVE_SOURCES, PipelineTelemetry
from repro.sampling.sources import DecayedSource

HP = Node2VecParams(r=2, l=16, w=4, ns=3)


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(5, 8, seed=0)


# the replay's event chunks are tiny; keep these tests on the pool
@pytest.mark.usefixtures("pooled")
class TestSeqThroughPipeline:
    def test_workers_and_transports_bit_identical(self, graph):
        base = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0, walks_per_endpoint=1
        )
        for nw, tr in ((2, "shm"), (2, "pickle"), (4, "shm")):
            res = run_seq_scenario(
                graph, model="proposed", dim=8, hyper=HP, seed=0,
                walks_per_endpoint=1, n_workers=nw, transport=tr,
            )
            assert np.array_equal(base.embedding, res.embedding), (nw, tr)
            assert res.n_events == base.n_events
            assert res.n_walks == base.n_walks

    def test_telemetry_attached_with_snapshot_accounting(self, graph):
        res = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0,
            walks_per_endpoint=1, n_workers=2,
        )
        t = res.extras["telemetry"]
        assert isinstance(t, PipelineTelemetry)
        assert t.negative_source == "decayed"  # the scenario default
        assert t.n_workers == 2
        assert t.n_snapshots == res.n_events  # one snapshot per edge event
        assert t.snapshot_stall_s >= 0.0
        assert t.snapshot_stall_s <= t.wait_s + 1e-9
        assert t.transport in ("shm", "pickle")

    @pytest.mark.parametrize("source", NEGATIVE_SOURCES)
    def test_every_source_replays_and_matches_inline(self, graph, source):
        a = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=1, max_events=12,
            walks_per_endpoint=1, negative_source=source, n_workers=0,
        )
        b = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=1, max_events=12,
            walks_per_endpoint=1, negative_source=source, n_workers=2,
        )
        assert a.n_events == b.n_events == 12
        assert np.array_equal(a.embedding, b.embedding)

    def test_decayed_rebuilds_fire_on_the_replay(self, graph):
        src = DecayedSource(decay=0.9, rebuild_every=2, virtual_chunk=8)
        res = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0,
            walks_per_endpoint=2, negative_source=src, n_workers=2,
        )
        assert res.extras["telemetry"].sampler_rebuilds > 0

    def test_initial_training_streams_forest_corpus(self, graph):
        res = run_seq_scenario(
            graph, model="proposed", dim=8, hyper=HP, seed=0,
            walks_per_endpoint=1, max_events=3, initial_training=True, n_workers=2,
        )
        # the forest corpus rides the stream as its own epoch=-1 snapshot
        assert res.extras["telemetry"].n_snapshots == res.n_events + 1
        assert res.n_walks >= HP.r * graph.n_nodes


class TestDriftThroughPipeline:
    def test_workers_and_transports_bit_identical(self, graph):
        base = run_drift_scenario(
            graph, model="proposed", dim=16, hyper=HP, drift_fraction=0.25,
            seed=0, model_kwargs={"mu": 0.05},
        )
        for nw, tr in ((2, "shm"), (2, "pickle")):
            res = run_drift_scenario(
                graph, model="proposed", dim=16, hyper=HP, drift_fraction=0.25,
                seed=0, model_kwargs={"mu": 0.05}, n_workers=nw, transport=tr,
            )
            assert res.f1_before == base.f1_before, (nw, tr)
            assert res.f1_after_drift == base.f1_after_drift, (nw, tr)
            assert res.f1_recovered == base.f1_recovered, (nw, tr)

    def test_telemetry_pair_attached(self, graph):
        res = run_drift_scenario(
            graph, model="proposed", dim=16, hyper=HP, seed=0, n_workers=2
        )
        t_before, t_after = res.extras["telemetry"]
        assert isinstance(t_before, PipelineTelemetry)
        assert isinstance(t_after, PipelineTelemetry)
        assert t_before.n_workers == t_after.n_workers == 2

    def test_decayed_source_recovers(self, graph):
        """Recovery is a property of the source, not of one stream: over
        five fixed seeds, training on the drifted graph raises the mean F1
        above its post-drift mean."""
        recovered, after_drift = [], []
        for seed in range(5):
            res = run_drift_scenario(
                graph, model="proposed", dim=16, hyper=HP, drift_fraction=0.3,
                seed=seed, model_kwargs={"mu": 0.05},
                negative_source=DecayedSource(decay=0.9, rebuild_every=2,
                                              virtual_chunk=16),
            )
            recovered.append(res.f1_recovered)
            after_drift.append(res.f1_after_drift)
        assert np.mean(recovered) > np.mean(after_drift)


class TestTrainDynamicApi:
    def test_wraps_seq_scenario(self, graph):
        a = train_dynamic(
            graph, dim=8, hyper=HP, seed=2, max_events=5, walks_per_endpoint=1,
            n_workers=2,
        )
        b = run_seq_scenario(
            graph, dim=8, hyper=HP, seed=2, max_events=5, walks_per_endpoint=1,
            n_workers=2,
        )
        assert a.scenario == "seq"
        assert np.array_equal(a.embedding, b.embedding)
        assert a.extras["telemetry"] is not None

    def test_model_kwargs_forwarded(self, graph):
        res = train_dynamic(
            graph, dim=8, hyper=HP, seed=2, max_events=3, walks_per_endpoint=1,
            mu=0.123,
        )
        assert res.model.mu == 0.123

    def test_final_graph_full_even_truncated(self, graph):
        res = train_dynamic(graph, dim=8, hyper=HP, seed=2, max_events=2,
                            walks_per_endpoint=1)
        assert res.extras["final_graph"] == graph
