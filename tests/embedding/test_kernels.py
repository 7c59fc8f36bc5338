"""Kernel-layer tests: the execution-backend registry, reference and
compiled bit-identity, bounded staging and the bulk-draw contract (the
blocked arithmetic under shared negatives is pinned in
``test_blocked.py``)."""

import copy

import numpy as np
import pytest

from repro.embedding import make_model
from repro.embedding import compiled as compiled_mod
from repro.embedding.kernels import (
    EXEC_BACKENDS,
    EXEC_REGISTRY,
    BlockedKernel,
    ChunkStats,
    CompiledKernel,
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


class TestRegistry:
    def test_names(self):
        assert EXEC_BACKENDS == ("reference", "blocked", "compiled")
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

        # the pre-kernel trainer, verbatim
        sampler = make_sampler(n_nodes)
        reuse = reuse_for(name)
        n_walks = n_contexts = 0
        for walk in walks:
            ctx = contexts_from_walk(walk, WINDOW)
            if ctx.n == 0:
                continue
            negs = sampler.sample_for_walk(ctx.n, NS, reuse=reuse)
            b.train_walk(ctx, negs)
            n_walks += 1
            n_contexts += ctx.n

        assert np.array_equal(a.embedding, b.embedding)
        assert trainer.n_walks == n_walks
        assert trainer.n_contexts == n_contexts

    def test_chunking_invariant(self):
        """reference: one call over the corpus == per-chunk calls."""
        rng = np.random.default_rng(1)
        walks = make_chunk(rng, 25, n_walks=8)
        a = make_model("proposed", 25, 8, seed=2)
        b = make_model("proposed", 25, 8, seed=2)
        ta = WalkTrainer(a, window=WINDOW, ns=NS)
        tb = WalkTrainer(b, window=WINDOW, ns=NS)
        ta.train_corpus(walks, make_sampler(25))
        sb = make_sampler(25)
        for lo in range(0, len(walks), 3):
            tb.train_corpus(walks[lo : lo + 3], sb)
        assert np.array_equal(a.embedding, b.embedding)


class TestBlockedStaging:
    """train_chunk stages contexts+negatives in bounded blocks: an epoch
    corpus handed to the sequential trainer must never materialize its
    whole (window+ns)× expansion at once."""

    def test_reference_stages_one_walk(self):
        assert ReferenceKernel.block_walks == 1

    def test_context_blocks_bounded_and_lazy(self):
        from repro.embedding.kernels import _context_blocks

        rng = np.random.default_rng(0)
        walks = iter([rng.integers(0, 10, size=12) for _ in range(7)])
        blocks = list(_context_blocks(walks, WINDOW, 3))
        assert [len(b) for b in blocks] == [3, 3, 1]

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

    # "fused" was a backend once: only checkpoints still map it
    @pytest.mark.parametrize("bad", ("warp", "fused"))
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


def active_compiled_kernel():
    """A CompiledKernel that genuinely exercises the kernel arithmetic on
    this host: JIT when numba is importable, the kernels' pure-Python form
    otherwise — never the reference fallback.  Both forms run the same
    source, so the bit-identity assertions below pin the arithmetic either
    way (and the numba CI leg pins the JIT's BLAS/libm against the same
    goldens)."""
    return CompiledKernel(
        mode="jit" if compiled_mod.NUMBA_AVAILABLE else "python"
    )


class TestCompiledBitIdentity:
    """``"compiled"`` must be **bit-identical** to ``"reference"`` — same
    negative draw order, same float64 update order — for every registry
    model and every OS-ELM variant; this is what lets the golden sha256
    regressions pass under ``exec_backend="compiled"`` verbatim."""

    def test_eps_matches_the_model_layer(self):
        from repro.embedding.sequential import _EPS

        assert compiled_mod._EPS == _EPS

    def test_draw_order_matches_reference(self):
        rng = np.random.default_rng(0)
        walks = make_chunk(rng, 20, n_walks=5)
        contexts = prepare_contexts(walks, WINDOW)
        for reuse in ("per_context", "per_walk"):
            a = ReferenceKernel().draw_negatives(
                make_sampler(20), contexts, NS, reuse
            )
            b = active_compiled_kernel().draw_negatives(
                make_sampler(20), contexts, NS, reuse
            )
            for x, y in zip(a, b, strict=True):
                assert np.array_equal(x, y)

    @pytest.mark.parametrize("name", MODELS)
    def test_every_registry_model_exact(self, name):
        rng = np.random.default_rng(1)
        n_nodes = 30
        walks = make_chunk(rng, n_nodes, n_walks=6)
        a = make_model(name, n_nodes, 8, seed=3)
        b = make_model(name, n_nodes, 8, seed=3)
        contexts = prepare_contexts(walks, WINDOW)
        negatives = ReferenceKernel().draw_negatives(
            make_sampler(n_nodes), contexts, NS, reuse_for(name)
        )
        ReferenceKernel().train_prepared(a, contexts, negatives)
        active_compiled_kernel().train_prepared(b, contexts, negatives)
        assert np.array_equal(a.embedding, b.embedding)

    @pytest.mark.parametrize("tying", ("beta", "alpha"))
    @pytest.mark.parametrize("denominator", ("standard", "paper"))
    @pytest.mark.parametrize("policy", ("batched", "sequential"))
    @pytest.mark.parametrize("lam", (1.0, 0.97))
    def test_every_oselm_variant_exact(self, tying, denominator, policy, lam):
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
        contexts = prepare_contexts(walks, WINDOW)
        negatives = ReferenceKernel().draw_negatives(
            make_sampler(n_nodes), contexts, NS, "per_context"
        )
        ReferenceKernel().train_prepared(a, contexts, negatives)
        active_compiled_kernel().train_prepared(b, contexts, negatives)
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.P, b.P)
        assert a.n_walks_trained == b.n_walks_trained

    def test_chunking_invariant(self):
        """compiled draws per walk like reference, so chunk splits cannot
        move the sampler stream — unlike blocked."""
        assert CompiledKernel.chunk_invariant is True
        rng = np.random.default_rng(3)
        walks = make_chunk(rng, 25, n_walks=8)
        a = make_model("proposed", 25, 8, seed=2)
        b = make_model("proposed", 25, 8, seed=2)
        ka, kb = active_compiled_kernel(), active_compiled_kernel()
        sa, sb = make_sampler(25), make_sampler(25)
        ka.train_chunk(a, walks, sa, window=WINDOW, ns=NS)
        for lo in range(0, len(walks), 3):
            kb.train_chunk(b, walks[lo : lo + 3], sb, window=WINDOW, ns=NS)
        assert np.array_equal(a.embedding, b.embedding)

    def test_block_staging_does_not_change_results(self):
        """Staging width is a memory knob only: per-walk draws mean the
        sampler stream is independent of block_walks."""
        rng = np.random.default_rng(4)
        walks = make_chunk(rng, 20, n_walks=6)
        a = make_model("proposed", 20, 8, seed=1)
        b = make_model("proposed", 20, 8, seed=1)
        narrow = active_compiled_kernel()
        narrow.block_walks = 2
        narrow.train_chunk(a, walks, make_sampler(20), window=WINDOW, ns=NS)
        active_compiled_kernel().train_chunk(
            b, walks, make_sampler(20), window=WINDOW, ns=NS
        )
        assert np.array_equal(a.embedding, b.embedding)


class TestCompiledFallback:
    """Without numba the registry entry still constructs — as a warned,
    bit-identical fallback to the reference path (ISSUE: prove the
    DeprecationWarning-free, single-warning behavior)."""

    needs_no_numba = pytest.mark.skipif(
        compiled_mod.NUMBA_AVAILABLE,
        reason="fallback path only exists without numba",
    )

    def test_mode_validation(self):
        with pytest.raises(ValueError, match="mode"):
            CompiledKernel(mode="warp")

    def test_python_mode_is_silent_and_active(self):
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            k = CompiledKernel(mode="python")
        assert caught == []
        assert not k.fallback
        assert k.telemetry_name == "compiled"
        assert k.block_walks == CompiledKernel.block_walks

    @needs_no_numba
    def test_auto_warns_once_with_runtime_warning(self, monkeypatch):
        import warnings

        monkeypatch.setattr(compiled_mod, "_FALLBACK_WARNED", False)
        with pytest.warns(RuntimeWarning, match="numba"):
            k = CompiledKernel()
        assert k.fallback
        assert k.telemetry_name == "compiled[fallback=reference]"
        assert k.block_walks == 1  # the reference memory profile
        # second construction: the warning already fired for this process
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            CompiledKernel()
        assert caught == []

    @needs_no_numba
    def test_fallback_warning_is_not_a_deprecation(self, monkeypatch):
        import warnings

        monkeypatch.setattr(compiled_mod, "_FALLBACK_WARNED", False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            CompiledKernel()
        assert len(caught) == 1
        assert issubclass(caught[0].category, RuntimeWarning)
        assert not issubclass(caught[0].category, DeprecationWarning)

    @needs_no_numba
    def test_jit_mode_requires_numba(self):
        with pytest.raises(RuntimeError, match="numba"):
            CompiledKernel(mode="jit")

    @needs_no_numba
    def test_fallback_trains_bit_identical_to_reference(self):
        rng = np.random.default_rng(5)
        walks = make_chunk(rng, 20, n_walks=5)
        a = make_model("proposed", 20, 8, seed=1)
        b = make_model("proposed", 20, 8, seed=1)
        ReferenceKernel().train_chunk(
            a, walks, make_sampler(20), window=WINDOW, ns=NS
        )
        CompiledKernel().train_chunk(
            b, walks, make_sampler(20), window=WINDOW, ns=NS
        )
        assert np.array_equal(a.embedding, b.embedding)

    def test_registry_backends_report_their_own_name(self):
        """telemetry_name == name for every backend that runs what its
        name says; only the degraded compiled fallback decorates it."""
        for name in ("reference", "blocked"):
            assert make_backend(name).telemetry_name == name
