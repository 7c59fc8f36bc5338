"""Kernel-layer tests: the execution-backend registry, reference
bit-identity, bounded staging and the bulk-draw contract (the blocked
arithmetic under shared negatives is pinned in ``test_blocked.py``)."""

import copy

import numpy as np
import pytest

from repro.embedding import make_model
from repro.embedding.kernels import (
    EXEC_BACKENDS,
    EXEC_REGISTRY,
    BlockedKernel,
    ChunkStats,
    ReferenceKernel,
    default_negative_reuse,
    make_backend,
    prepare_contexts,
    resolve_backend,
)
from repro.embedding.trainer import MODEL_REGISTRY, WalkTrainer
from repro.sampling.corpus import contexts_from_walk
from repro.sampling.negative import NegativeSampler

MODELS = tuple(MODEL_REGISTRY)
WINDOW, NS = 5, 4


def make_sampler(n_nodes, seed=11):
    return NegativeSampler(np.ones(n_nodes), seed=seed)


def make_chunk(rng, n_nodes, n_walks=4, max_len=18):
    """A ragged chunk, including the occasional too-short walk."""
    walks = []
    for _ in range(n_walks):
        length = int(rng.integers(2, max_len + 1))
        walks.append(rng.integers(0, n_nodes, size=length))
    return walks


def reuse_for(name):
    return default_negative_reuse(make_model(name, 4, 2))


def manual_per_walk_loop(model, walks, sampler, reuse):
    """The pre-kernel trainer, verbatim: per walk, one ``sample_for_walk``
    draw and one ``train_walk`` call.  Returns (walks, contexts) trained."""
    n_walks = n_contexts = 0
    for walk in walks:
        ctx = contexts_from_walk(walk, WINDOW)
        if ctx.n == 0:
            continue
        negs = sampler.sample_for_walk(ctx.n, NS, reuse=reuse)
        model.train_walk(ctx, negs)
        n_walks += 1
        n_contexts += ctx.n
    return n_walks, n_contexts


class TestRegistry:
    def test_names(self):
        assert EXEC_BACKENDS == ("reference", "blocked")
        for name, cls in EXEC_REGISTRY.items():
            assert cls.name == name
            assert cls.summary

    def test_make_backend_invalid(self):
        with pytest.raises(ValueError, match="exec_backend"):
            make_backend("turbo")

    def test_resolve_backend(self):
        backend = BlockedKernel()
        assert resolve_backend(backend) is backend
        assert isinstance(resolve_backend("reference"), ReferenceKernel)
        with pytest.raises(TypeError):
            resolve_backend(42)

    @pytest.mark.parametrize("name", EXEC_BACKENDS)
    def test_resolve_backend_name_and_subclass_instance(self, name):
        """A registry name resolves to a fresh instance of its class; an
        instance of a subclass (a tracer, a test double) passes through
        as-is and keeps the registry name it inherits."""
        cls = EXEC_REGISTRY[name]
        first, second = resolve_backend(name), resolve_backend(name)
        assert type(first) is cls and type(second) is cls
        assert first is not second
        sub = type(f"Traced{cls.__name__}", (cls,), {})()
        assert resolve_backend(sub) is sub
        assert sub.name == name

    def test_api_docs_render_backends(self):
        from repro import train_embedding

        for name in EXEC_BACKENDS:
            assert f'"{name}"' in train_embedding.__doc__


class TestReferenceBitIdentity:
    """The reference backend must reproduce the historical per-walk loop
    bit-for-bit — this is what keeps the golden sha256 regressions valid."""

    @pytest.mark.parametrize("name", MODELS)
    def test_matches_manual_per_walk_loop(self, name):
        rng = np.random.default_rng(0)
        n_nodes = 30
        walks = make_chunk(rng, n_nodes, n_walks=6)
        a = make_model(name, n_nodes, 8, seed=3)
        b = make_model(name, n_nodes, 8, seed=3)

        trainer = WalkTrainer(a, window=WINDOW, ns=NS, exec_backend="reference")
        trainer.train_corpus(walks, make_sampler(n_nodes))

        n_walks, n_contexts = manual_per_walk_loop(
            b, walks, make_sampler(n_nodes), reuse_for(name)
        )

        assert np.array_equal(a.embedding, b.embedding)
        assert trainer.n_walks == n_walks
        assert trainer.n_contexts == n_contexts

    @pytest.mark.parametrize("tying", ("beta", "alpha"))
    @pytest.mark.parametrize("denominator", ("standard", "paper"))
    @pytest.mark.parametrize("policy", ("batched", "sequential"))
    @pytest.mark.parametrize("lam", (1.0, 0.97))
    def test_every_oselm_variant_matches_manual_loop(
        self, tying, denominator, policy, lam
    ):
        """Every OS-ELM variant the goldens can name trains through the
        reference kernel exactly like the historical loop: same B, same
        P, same walk count."""
        from repro.embedding.sequential import OSELMSkipGram

        rng = np.random.default_rng(2)
        n_nodes = 25
        walks = make_chunk(rng, n_nodes, n_walks=4)
        kwargs = dict(
            weight_tying=tying, denominator=denominator,
            duplicate_policy=policy, forgetting_factor=lam, seed=3,
        )
        a = OSELMSkipGram(n_nodes, 8, **kwargs)
        b = OSELMSkipGram(n_nodes, 8, **kwargs)
        ReferenceKernel().train_chunk(
            a, walks, make_sampler(n_nodes), window=WINDOW, ns=NS
        )
        manual_per_walk_loop(
            b, walks, make_sampler(n_nodes), default_negative_reuse(b)
        )
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.P, b.P)
        assert a.n_walks_trained == b.n_walks_trained

    @pytest.mark.parametrize("reuse", ("per_context", "per_walk"))
    def test_draw_order_is_one_sample_for_walk_per_walk(self, reuse):
        """The reference negative stream is one ``sample_for_walk`` call
        per staged walk, in corpus order — the goldens' draw order."""
        rng = np.random.default_rng(0)
        walks = make_chunk(rng, 20, n_walks=5)
        contexts = prepare_contexts(walks, WINDOW)
        drawn = ReferenceKernel().draw_negatives(
            make_sampler(20), contexts, NS, reuse
        )
        sampler = make_sampler(20)
        assert len(drawn) == len(contexts)
        for ctx, negs in zip(contexts, drawn, strict=True):
            expect = sampler.sample_for_walk(ctx.n, NS, reuse=reuse)
            assert np.array_equal(negs, expect)

    @pytest.mark.parametrize("name", MODELS)
    def test_chunking_invariant(self, name):
        """reference: one call over the corpus == per-chunk calls."""
        rng = np.random.default_rng(1)
        walks = make_chunk(rng, 25, n_walks=8)
        a = make_model(name, 25, 8, seed=2)
        b = make_model(name, 25, 8, seed=2)
        ta = WalkTrainer(a, window=WINDOW, ns=NS)
        tb = WalkTrainer(b, window=WINDOW, ns=NS)
        ta.train_corpus(walks, make_sampler(25))
        sb = make_sampler(25)
        for lo in range(0, len(walks), 3):
            tb.train_corpus(walks[lo : lo + 3], sb)
        assert np.array_equal(a.embedding, b.embedding)

    @pytest.mark.parametrize("name", MODELS)
    def test_block_staging_does_not_change_results(self, name):
        """Staging width is a memory knob only on the reference backend:
        per-walk draws keep the sampler stream independent of
        ``block_walks``."""
        rng = np.random.default_rng(4)
        walks = make_chunk(rng, 20, n_walks=6)
        a = make_model(name, 20, 8, seed=1)
        b = make_model(name, 20, 8, seed=1)
        wide = ReferenceKernel()
        wide.block_walks = 4
        sa = wide.train_chunk(a, walks, make_sampler(20), window=WINDOW, ns=NS)
        sb = ReferenceKernel().train_chunk(
            b, walks, make_sampler(20), window=WINDOW, ns=NS
        )
        assert np.array_equal(a.embedding, b.embedding)
        assert (sa.n_walks, sa.n_contexts) == (sb.n_walks, sb.n_contexts)


class TestBlockedStaging:
    """train_chunk stages contexts+negatives in bounded blocks: a buffered
    epoch corpus handed over in one call must never materialize its whole
    (window+ns)× expansion at once."""

    def test_reference_stages_one_walk(self):
        assert ReferenceKernel.block_walks == 1

    def test_context_blocks_bounded_and_lazy(self):
        from repro.embedding.kernels import _context_blocks

        rng = np.random.default_rng(0)
        walks = iter([rng.integers(0, 10, size=12) for _ in range(7)])
        blocks = list(_context_blocks(walks, WINDOW, 3))
        assert [len(b) for b in blocks] == [3, 3, 1]

    @pytest.mark.parametrize("ragged", [False, True])
    def test_staged_windows_equal_per_walk_windows(self, ragged):
        """Equal-length chunks (one (walks, length) block) and ragged ones
        (one pass over the concatenation) stage every walk's own sliding
        windows, as contiguous arrays."""
        rng = np.random.default_rng(5)
        lengths = [20, 7, 5, 13] if ragged else [20] * 4
        walks = [rng.integers(0, 30, size=n) for n in lengths]
        contexts = prepare_contexts(walks, WINDOW)
        assert contexts.centers.flags.c_contiguous
        assert contexts.positives.flags.c_contiguous
        assert contexts.counts.tolist() == [n - WINDOW + 1 for n in lengths]
        for walk, got in zip(walks, contexts, strict=True):
            want = contexts_from_walk(walk, WINDOW)
            assert np.array_equal(got.centers, want.centers)
            assert np.array_equal(got.positives, want.positives)

    def test_bulk_draws_per_block(self):
        """A call spanning multiple blocks draws one bulk pass per block —
        equivalent to splitting the call at block boundaries."""
        rng = np.random.default_rng(1)
        n_nodes = 20
        walks = [rng.integers(0, n_nodes, size=10) for _ in range(5)]
        small = BlockedKernel()
        small.block_walks = 2  # force 3 blocks
        a = make_model("proposed", n_nodes, 8, seed=3)
        b = make_model("proposed", n_nodes, 8, seed=3)
        sa, sb = make_sampler(n_nodes), make_sampler(n_nodes)
        small.train_chunk(a, walks, sa, window=WINDOW, ns=NS)
        whole = BlockedKernel()
        for lo in range(0, len(walks), 2):
            whole.train_chunk(b, walks[lo : lo + 2], sb, window=WINDOW, ns=NS)
        assert np.array_equal(a.embedding, b.embedding)

    def test_stats_accumulate_across_blocks(self):
        rng = np.random.default_rng(2)
        walks = [rng.integers(0, 15, size=10) for _ in range(5)]
        backend = BlockedKernel()
        backend.block_walks = 2
        model = make_model("original", 15, 8, seed=0)
        stats = backend.train_chunk(model, walks, make_sampler(15),
                                    window=WINDOW, ns=NS)
        assert stats.n_walks == 5
        assert stats.n_contexts == 5 * (10 - WINDOW + 1)


class TestBulkDrawContract:
    """The blocked backend's *negative stream* is one bulk alias pass per
    chunk — same distribution, different RNG call pattern."""

    def test_draw_batch_shape_and_range(self):
        sampler = make_sampler(20)
        batch = sampler.draw_batch(7, 3)
        assert batch.shape == (7, 3)
        assert batch.dtype == np.int64
        assert batch.min() >= 0 and batch.max() < 20
        with pytest.raises((ValueError, TypeError)):
            sampler.draw_batch(0, 3)

    @pytest.mark.parametrize("name", MODELS)
    def test_backends_agree_on_accounting_not_stream(self, name):
        """Full train_chunk: identical walk/context/op accounting, but a
        different negative stream (hence embedding) per backend."""
        rng = np.random.default_rng(3)
        n_nodes = 30
        walks = make_chunk(rng, n_nodes, n_walks=5)
        results = {}
        for backend in EXEC_BACKENDS:
            model = make_model(name, n_nodes, 8, seed=4)
            trainer = WalkTrainer(model, window=WINDOW, ns=NS, exec_backend=backend)
            trainer.train_corpus(walks, make_sampler(n_nodes))
            results[backend] = (trainer, model.embedding)
        ref, blk = results["reference"][0], results["blocked"][0]
        assert ref.n_walks == blk.n_walks
        assert ref.n_contexts == blk.n_contexts
        assert ref.ops.as_dict() == pytest.approx(blk.ops.as_dict())
        assert not np.array_equal(results["reference"][1], results["blocked"][1])

    def test_per_walk_reuse_broadcasts_one_row_per_walk(self):
        """per_walk reuse under blocked: one bulk (n_walks, ns) draw, each
        walk's contexts sharing its row — mirroring the FPGA policy."""
        rng = np.random.default_rng(9)
        walks = [rng.integers(0, 15, size=12) for _ in range(3)]
        contexts = prepare_contexts(walks, WINDOW)
        negs = BlockedKernel().draw_negatives(make_sampler(15), contexts, NS, "per_walk")
        assert len(negs) == 3
        for ctx, n in zip(contexts, negs, strict=True):
            assert n.shape == (ctx.n, NS)
            assert (n == n[0]).all()

    def test_per_context_reuse_is_one_bulk_draw(self):
        """per_context reuse under blocked: one bulk (C, ns) draw over the
        whole chunk, split at walk boundaries in context order."""
        rng = np.random.default_rng(10)
        walks = [rng.integers(0, 15, size=n) for n in (12, 3, 9)]
        contexts = prepare_contexts(walks, WINDOW)
        negs = BlockedKernel().draw_negatives(
            make_sampler(15), contexts, NS, "per_context"
        )
        assert [n.shape for n in negs] == [(ctx.n, NS) for ctx in contexts]
        expect = make_sampler(15).draw_batch(contexts.n, NS)
        assert np.array_equal(np.concatenate(negs), expect)


class TestChunkStats:
    def test_ops_match_per_walk_profiles(self):
        rng = np.random.default_rng(2)
        n_nodes = 25
        walks = make_chunk(rng, n_nodes, n_walks=6)
        model = make_model("block", n_nodes, 8, seed=1)
        trainer = WalkTrainer(model, window=WINDOW, ns=NS, exec_backend="blocked")
        trainer.train_corpus(walks, make_sampler(n_nodes))
        expected = None
        for walk in walks:
            ctx = contexts_from_walk(walk, WINDOW)
            if ctx.n == 0:
                continue
            prof = type(model).op_profile(model.dim, ctx.n, WINDOW - 1, NS)
            expected = prof if expected is None else expected + prof
        assert trainer.ops.as_dict() == pytest.approx(expected.as_dict())

    def test_empty_chunk_is_a_noop(self):
        """No contexts → zero stats AND no sampler RNG consumed."""
        model = make_model("proposed", 10, 4, seed=0)
        sampler = make_sampler(10)
        state = copy.deepcopy(sampler.rng.bit_generator.state)
        for backend in EXEC_BACKENDS:
            stats = model.train_chunk(
                [np.array([1, 2])], sampler, window=WINDOW, ns=NS, backend=backend
            )
            assert isinstance(stats, ChunkStats)
            assert stats.n_walks == 0 and stats.n_contexts == 0
            assert stats.ops.total_arithmetic == 0.0
        assert sampler.rng.bit_generator.state == state


class TestBackendSelection:
    def test_model_preference_default(self):
        model = make_model("proposed", 12, 4, seed=0, exec_backend="blocked")
        trainer = WalkTrainer(model, window=WINDOW, ns=NS)
        assert trainer.exec_backend == "blocked"

    def test_trainer_override_records_on_model(self):
        model = make_model("proposed", 12, 4, seed=0)
        assert model.exec_backend == "reference"
        trainer = WalkTrainer(model, window=WINDOW, ns=NS, exec_backend="blocked")
        assert trainer.exec_backend == "blocked"
        assert model.exec_backend == "blocked"  # checkpoints record the run

    def test_train_chunk_backend_arg_leaves_preference(self):
        model = make_model("proposed", 12, 4, seed=0)
        walks = [np.arange(10)]
        model.train_chunk(walks, make_sampler(12), window=WINDOW, ns=NS,
                          backend="blocked")
        assert model.exec_backend == "reference"

    def test_custom_instance_does_not_poison_model_preference(self):
        """A custom (unregistered) ExecBackend trains the run but must not
        become the model preference — the registry and checkpoint loader
        could never resolve its name."""

        class MyKernel(ReferenceKernel):
            name = "mykernel"

        model = make_model("proposed", 12, 4, seed=0)
        trainer = WalkTrainer(model, window=WINDOW, ns=NS, exec_backend=MyKernel())
        assert trainer.exec_backend == "mykernel"
        assert model.exec_backend == "reference"
        # the model stays usable and checkpointable
        model.train_chunk([np.arange(10)], make_sampler(12), window=WINDOW, ns=NS)

    # "fused" and "compiled" were backends once: only checkpoints still
    # map them
    @pytest.mark.parametrize("bad", ("warp", "fused", "compiled"))
    def test_invalid_backend_everywhere(self, bad):
        with pytest.raises(ValueError, match="exec_backend"):
            make_model("proposed", 12, 4, seed=0, exec_backend=bad)
        model = make_model("proposed", 12, 4, seed=0)
        with pytest.raises(ValueError, match="exec_backend"):
            WalkTrainer(model, exec_backend=bad)


class TestFallbackDispatch:
    def test_unknown_model_falls_back_to_train_walk(self):
        """A custom EmbeddingModel without a chunk kernel still trains
        through the blocked backend via its own train_walk."""
        from repro.embedding.base import EmbeddingModel
        from repro.hw.opcount import OpCount

        class Recorder(EmbeddingModel):
            n_nodes, dim = 15, 4
            exec_backend = "reference"

            def __init__(self):
                self.calls = 0

            @property
            def embedding(self):
                return np.zeros((self.n_nodes, self.dim))

            def train_walk(self, contexts, negatives):
                self.calls += 1

            @classmethod
            def op_profile(cls, dim, n_contexts, n_positives, n_negatives):
                return OpCount(walk=1.0)

            def state_bytes(self, *, weight_bytes=None):
                return 0

        model = Recorder()
        walks = [np.arange(10), np.arange(8)]
        stats = model.train_chunk(
            walks, make_sampler(15), window=WINDOW, ns=NS, backend="blocked"
        )
        assert model.calls == 2
        assert stats.n_walks == 2

