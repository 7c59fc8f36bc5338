"""Tests for repro.sampling.sources — the pluggable negative-source layer.

Covers protocol conformance across the registry, the corpus source's
equivalence with the direct NegativeSampler construction it replaced,
and the DecayedSource fold/rebuild math (decay factor, K, virtual-chunk
accumulation, decay-aware floor, persistent RNG across rebuilds).
"""

import numpy as np
import pytest

from repro.graph.generators import ring_of_cliques
from repro.sampling.negative import NegativeSampler, walk_frequencies
from repro.sampling.sources import (
    NEGATIVE_SOURCES,
    SOURCE_REGISTRY,
    CorpusSource,
    DecayedSource,
    DegreeSource,
    NegativeSource,
    make_source,
    resolve_source,
)


@pytest.fixture(scope="module")
def graph():
    return ring_of_cliques(3, 5, seed=0)


class TestRegistry:
    def test_names_render_from_registry(self):
        assert NEGATIVE_SOURCES == tuple(SOURCE_REGISTRY)
        assert set(NEGATIVE_SOURCES) == {"corpus", "degree", "decayed"}

    def test_registry_keys_match_class_names(self):
        for name, cls in SOURCE_REGISTRY.items():
            assert cls.name == name
            assert cls.summary  # every source documents its trade-off

    def test_make_source_unknown_name_lists_registry(self):
        with pytest.raises(ValueError, match="decayed"):
            make_source("oracle")

    def test_resolve_source_copies_instances(self):
        """A user instance parameterizes runs without being mutated: the
        pipeline always trains against a fresh copy."""
        src = DecayedSource(decay=0.5, rebuild_every=7)
        out = resolve_source(src)
        assert out is not src
        assert (out.decay, out.rebuild_every) == (0.5, 7)
        out.bootstrap(ring_of_cliques(3, 5, seed=0))
        assert not src._bootstrapped  # original untouched, reusable
        assert isinstance(resolve_source("degree"), DegreeSource)
        with pytest.raises(TypeError):
            resolve_source(123)

    def test_resolve_source_rejects_bootstrapped_instance(self):
        src = DegreeSource(seed=0)
        src.bootstrap(ring_of_cliques(3, 5, seed=0))
        with pytest.raises(RuntimeError):
            resolve_source(src)


class TestProtocol:
    @pytest.mark.parametrize("name", NEGATIVE_SOURCES)
    def test_conformance(self, graph, name):
        src = make_source(name)
        assert isinstance(src, NegativeSource)
        src.configure(power=0.75, seed=0)
        src.bootstrap(graph)
        if src.pending_bootstrap is None:
            assert src.sampler() is not None
        else:
            assert src.sampler() is None
        # observe never raises and reports 0-or-1 rebuilds per call
        freq = np.ones(graph.n_nodes, dtype=np.int64)
        assert src.observe(freq, 4) in (0, 1)

    @pytest.mark.parametrize("name", NEGATIVE_SOURCES)
    def test_single_use(self, graph, name):
        src = make_source(name, seed=0)
        src.bootstrap(graph)
        with pytest.raises(RuntimeError):
            src.bootstrap(graph)

    def test_configure_fills_only_unset(self):
        src = DecayedSource(power=1.0, seed=7)
        src.configure(power=0.75, seed=99)
        assert src.power == 1.0 and src.seed == 7
        other = DegreeSource()
        other.configure(power=0.75, seed=99)
        assert other.power == 0.75 and other.seed == 99

    def test_bootstrap_modes(self):
        assert CorpusSource.bootstrap_mode == "buffer"
        assert DegreeSource.bootstrap_mode is None
        assert DecayedSource.bootstrap_mode is None


class TestDegreeSource:
    def test_matches_from_degrees(self, graph):
        src = resolve_source("degree").configure(power=0.75, seed=3)
        src.bootstrap(graph)
        ref = NegativeSampler.from_degrees(graph, power=0.75, seed=3)
        assert np.allclose(src.sampler().probabilities(), ref.probabilities())
        assert np.array_equal(src.sampler().sample(64), ref.sample(64))


class TestCountingSources:
    def test_chunked_counts_match_from_walks(self, graph):
        """Per-chunk observes must sum to the whole-corpus construction —
        the equivalence the strategy refactor's bit-identity rests on."""
        rng = np.random.default_rng(0)
        walks = [rng.integers(0, graph.n_nodes, size=rng.integers(1, 9))
                 for _ in range(20)]
        src = CorpusSource(power=0.75, seed=5)
        src.bootstrap(graph)
        assert src.wants_frequencies
        for lo in range(0, len(walks), 6):
            chunk = walks[lo:lo + 6]
            src.observe(walk_frequencies(chunk, graph.n_nodes), len(chunk))
        src.finalize()
        assert not src.wants_frequencies
        assert src.pending_bootstrap is None
        ref = NegativeSampler.from_walks(walks, graph.n_nodes, power=0.75, seed=5)
        assert np.allclose(src.sampler().probabilities(), ref.probabilities())
        assert np.array_equal(src.sampler().sample(64), ref.sample(64))

    def test_observe_after_finalize_is_frozen(self, graph):
        src = CorpusSource(seed=0)
        src.bootstrap(graph)
        src.observe(np.ones(graph.n_nodes, dtype=np.int64), 1)
        src.finalize()
        frozen = src.sampler()
        probs = frozen.probabilities().copy()
        src.observe(1000 * np.ones(graph.n_nodes, dtype=np.int64), 1)
        assert src.sampler() is frozen
        assert np.array_equal(src.sampler().probabilities(), probs)


class TestDecayedSource:
    def make(self, graph, **kw):
        kw.setdefault("decay", 0.5)
        kw.setdefault("rebuild_every", 2)
        kw.setdefault("virtual_chunk", 4)
        src = DecayedSource(power=1.0, seed=0, **kw)
        src.bootstrap(graph)
        return src

    def test_bootstrap_is_degree_distribution(self, graph):
        src = self.make(graph)
        ref = NegativeSampler.from_degrees(graph, power=1.0, seed=0)
        assert np.allclose(src.sampler().probabilities(), ref.probabilities())

    def test_fold_math(self, graph):
        """counts <- decay * counts + chunk frequencies, per virtual chunk."""
        src = self.make(graph, rebuild_every=1)
        deg = graph.degree().astype(np.float64)
        f1 = np.arange(graph.n_nodes, dtype=np.int64)
        src.observe(f1, 4)  # exactly one virtual chunk -> one fold
        assert src.folds == 1
        expect = 0.5 * deg + f1
        assert np.allclose(src._counts, expect)
        f2 = np.ones(graph.n_nodes, dtype=np.int64)
        src.observe(f2, 4)
        assert np.allclose(src._counts, 0.5 * expect + f2)

    def test_rebuild_every_k_folds(self, graph):
        src = self.make(graph, rebuild_every=3)
        freq = np.ones(graph.n_nodes, dtype=np.int64)
        rebuilds = [src.observe(freq, 4) for _ in range(7)]
        # folds 1..7 -> rebuilds at folds 3 and 6
        assert rebuilds == [0, 0, 1, 0, 0, 1, 0]
        assert src.rebuilds == 2
        assert src.folds == 7

    def test_partial_observes_accumulate_to_virtual_chunk(self, graph):
        src = self.make(graph, rebuild_every=1, virtual_chunk=8)
        freq = np.ones(graph.n_nodes, dtype=np.int64)
        assert src.observe(freq, 3) == 0
        assert src.observe(freq, 3) == 0
        assert src.folds == 0
        assert src.observe(freq, 2) == 1  # completes the 8-walk chunk
        assert src.folds == 1
        assert np.allclose(
            src._counts, 0.5 * graph.degree().astype(float) + 3 * freq
        )

    def test_sampler_object_swaps_only_on_rebuild(self, graph):
        src = self.make(graph, rebuild_every=2)
        first = src.sampler()
        freq = np.ones(graph.n_nodes, dtype=np.int64)
        src.observe(freq, 4)  # fold 1: no rebuild
        assert src.sampler() is first
        src.observe(freq, 4)  # fold 2: rebuild
        assert src.sampler() is not first

    def test_decayed_weight_below_one_not_refloored(self, graph):
        """The decay-aware floor: a weight that decayed below 1 keeps its
        value (only exact zeros are floored, and only to the smallest
        positive weight, never above it)."""
        src = self.make(graph, decay=0.125, rebuild_every=1, virtual_chunk=4)
        zero = np.zeros(graph.n_nodes, dtype=np.int64)
        src.observe(zero, 4)  # counts = 0.125 * degree: every weight < 1
        probs = src.sampler().probabilities()
        deg = graph.degree().astype(np.float64)
        # pure decay rescales every weight equally -> degree distribution,
        # which np.maximum(w, 1)-style flooring would have flattened
        assert np.allclose(probs, deg / deg.sum())

    def test_zero_weight_floor_is_min_positive(self):
        from repro.graph import CSRGraph

        g = CSRGraph.from_edges(3, [(0, 1)])  # node 2 isolated, degree 0
        src = DecayedSource(
            decay=0.5, rebuild_every=1, virtual_chunk=2, power=1.0, seed=0
        )
        src.bootstrap(g)
        src.observe(np.zeros(3, dtype=np.int64), 2)  # counts = [.5, .5, 0]
        probs = src.sampler().probabilities()
        # isolated node floored to the smallest positive weight (0.5), not 1:
        # it stays sample-able without outranking visited nodes
        assert np.allclose(probs, [1 / 3, 1 / 3, 1 / 3])

    def test_rng_persists_across_rebuilds(self, graph):
        """Rebuilt samplers continue one deterministic negative stream."""
        def draws(n_rebuilds):
            src = self.make(graph, rebuild_every=1)
            out = [src.sampler().sample(8)]
            freq = np.ones(graph.n_nodes, dtype=np.int64)
            for _ in range(n_rebuilds):
                src.observe(freq, 4)
                out.append(src.sampler().sample(8))
            return np.concatenate(out)

        assert np.array_equal(draws(3), draws(3))
        # and the stream really advances (a rebuild must not rewind it)
        a = draws(1)
        assert not np.array_equal(a[:8], a[8:])

    def test_invalid_knobs(self):
        with pytest.raises(ValueError):
            DecayedSource(decay=0.0)
        with pytest.raises(ValueError):
            DecayedSource(decay=1.5)
        with pytest.raises((ValueError, TypeError)):
            DecayedSource(rebuild_every=0)
        with pytest.raises((ValueError, TypeError)):
            DecayedSource(virtual_chunk=0)


class TestWalkFrequenciesBincount:
    """The bincount rewrite must preserve the indexed-add semantics."""

    def test_dtype_is_int64(self):
        out = walk_frequencies([np.array([0, 1, 1])], 3)
        assert out.dtype == np.int64

    def test_zero_rows_preserved(self):
        assert np.array_equal(walk_frequencies([np.array([2])], 5),
                              [0, 0, 1, 0, 0])

    def test_empty_walks_mixed_in(self):
        out = walk_frequencies([np.array([], dtype=np.int64), np.array([1])], 2)
        assert np.array_equal(out, [0, 1])

    def test_out_of_range_raises(self):
        with pytest.raises(IndexError):
            walk_frequencies([np.array([5])], 3)

    def test_negative_id_raises(self):
        with pytest.raises(ValueError):
            walk_frequencies([np.array([-1])], 3)

    def test_matches_indexed_add_reference(self):
        rng = np.random.default_rng(3)
        walks = [rng.integers(0, 17, size=rng.integers(0, 12)) for _ in range(40)]
        ref = np.zeros(17, dtype=np.int64)
        for w in walks:
            np.add.at(ref, np.asarray(w, dtype=np.int64), 1)
        assert np.array_equal(walk_frequencies(walks, 17), ref)
