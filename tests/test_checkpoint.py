"""Tests for repro.checkpoint (model persistence)."""

import numpy as np
import pytest

from repro.checkpoint import load_model, save_model
from repro.embedding import (
    BatchRLSSkipGram,
    DataflowOSELMSkipGram,
    MODEL_REGISTRY,
    OSELM,
    OSELMSkipGram,
    SkipGramSGD,
    WalkTrainer,
    make_model,
)
from repro.sampling.corpus import contexts_from_walk
from repro.sampling.negative import NegativeSampler


def trained_proposed(cls=OSELMSkipGram, **kw):
    m = cls(20, 8, mu=0.05, seed=3, **kw)
    rng = np.random.default_rng(0)
    for s in range(5):
        walk = rng.integers(0, 20, size=10)
        ctx = contexts_from_walk(walk, 4)
        m.train_walk(ctx, rng.integers(0, 20, size=(ctx.n, 3)))
    return m


def rewrite_config(path, **changes):
    """Rewrite a saved checkpoint's config in place (``None`` deletes a
    field): hand-built files in older formats."""
    import json

    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != "__meta__"}
        meta = json.loads(bytes(data["__meta__"].tobytes()).decode())
    for key, value in changes.items():
        if value is None:
            del meta["config"][key]
        else:
            meta["config"][key] = value
    np.savez(
        path,
        __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
        **arrays,
    )


class TestRoundTrip:
    def test_proposed_roundtrip(self, tmp_path):
        m = trained_proposed()
        path = str(tmp_path / "m.npz")
        save_model(m, path)
        m2 = load_model(path)
        assert type(m2) is OSELMSkipGram
        assert np.array_equal(m.B, m2.B)
        assert np.array_equal(m.P, m2.P)
        assert m2.mu == m.mu
        assert m2.n_walks_trained == m.n_walks_trained

    def test_dataflow_kind_preserved(self, tmp_path):
        m = trained_proposed(cls=DataflowOSELMSkipGram)
        path = str(tmp_path / "m.npz")
        save_model(m, path)
        assert type(load_model(path)) is DataflowOSELMSkipGram

    def test_alpha_mode_roundtrip(self, tmp_path):
        m = trained_proposed(weight_tying="alpha")
        path = str(tmp_path / "m.npz")
        save_model(m, path)
        m2 = load_model(path)
        assert np.array_equal(m._alpha, m2._alpha)

    def test_original_roundtrip(self, tmp_path):
        m = SkipGramSGD(15, 6, lr=0.02, seed=0)
        m.train_pair(0, np.array([1, 2]), np.array([1.0, 0.0]))
        path = str(tmp_path / "sg.npz")
        save_model(m, path)
        m2 = load_model(path)
        assert np.array_equal(m.w_in, m2.w_in)
        assert np.array_equal(m.w_out, m2.w_out)
        assert m2.lr == 0.02

    def test_training_resumes_identically(self, tmp_path):
        """Checkpoint/restore mid-stream must not perturb the trajectory."""
        a = trained_proposed()
        path = str(tmp_path / "mid.npz")
        save_model(a, path)
        b = load_model(path)
        rng_a, rng_b = np.random.default_rng(7), np.random.default_rng(7)
        for rng, m in ((rng_a, a), (rng_b, b)):
            walk = rng.integers(0, 20, size=10)
            ctx = contexts_from_walk(walk, 4)
            m.train_walk(ctx, rng.integers(0, 20, size=(ctx.n, 3)))
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.P, b.P)

    def test_unsupported_model(self, tmp_path):
        with pytest.raises(TypeError):
            save_model(OSELM(3, 4, 2, seed=0), str(tmp_path / "x.npz"))

    def test_forgetting_factor_preserved(self, tmp_path):
        m = trained_proposed(forgetting_factor=0.999)
        path = str(tmp_path / "f.npz")
        save_model(m, path)
        assert load_model(path).forgetting_factor == 0.999


class TestExecBackendConfig:
    """The exec-backend config rides the checkpoint: a restored model keeps
    training through the kernel it was trained with."""

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    @pytest.mark.parametrize("backend", ("reference", "blocked"))
    def test_backend_round_trips(self, tmp_path, name, backend):
        m = make_model(name, 20, 8, seed=3, exec_backend=backend)
        path = str(tmp_path / "b.npz")
        save_model(m, path)
        assert load_model(path).exec_backend == backend

    def test_trainer_recorded_backend_round_trips(self, tmp_path):
        """WalkTrainer(exec_backend=...) sets the model preference, so the
        checkpoint records the backend that actually trained it."""
        m = make_model("proposed", 20, 8, seed=3)
        WalkTrainer(m, window=4, ns=3, exec_backend="blocked")
        path = str(tmp_path / "t.npz")
        save_model(m, path)
        assert load_model(path).exec_backend == "blocked"

    def test_legacy_checkpoint_defaults_to_reference(self, tmp_path):
        """Checkpoints written before the kernel layer carry no backend
        field and must load as the bit-identical reference backend."""
        m = trained_proposed()
        path = str(tmp_path / "legacy.npz")
        save_model(m, path)
        rewrite_config(path, exec_backend=None)
        assert load_model(path).exec_backend == "reference"

    @pytest.mark.parametrize(
        "name, kw",
        [pytest.param(name, {}, id=name) for name in sorted(MODEL_REGISTRY)]
        + [
            # cross-walk spans need a backend that stages whole blocks
            pytest.param("batch_rls", {"defer_span": 16}, id="batch_rls-16"),
            pytest.param("batch_rls", {"defer_span": "chunk"}, id="batch_rls-chunk"),
        ],
    )
    def test_fused_checkpoint_loads_as_blocked(self, tmp_path, name, kw):
        """The retired "fused" backend was "blocked" without the OS-ELM
        block kernel: its checkpoints load, and keep training, as
        "blocked" — bit-for-bit like a "blocked" checkpoint."""
        rng = np.random.default_rng(5)
        more = [rng.integers(0, 20, size=10) for _ in range(4)]
        m = make_model(name, 20, 8, seed=3, exec_backend="blocked", **kw)
        legacy, current = str(tmp_path / "fused.npz"), str(tmp_path / "b.npz")
        save_model(m, legacy)
        save_model(m, current)
        # reprolint: disable=registry-sync(the retired name an old checkpoint carries)
        rewrite_config(legacy, exec_backend="fused")
        a, b = load_model(legacy), load_model(current)
        assert a.exec_backend == "blocked"
        ta = WalkTrainer(a, window=4, ns=3)
        assert ta.exec_backend == "blocked"
        ta.train_corpus(more, NegativeSampler(np.ones(20), seed=2))
        WalkTrainer(b, window=4, ns=3).train_corpus(
            more, NegativeSampler(np.ones(20), seed=2)
        )
        assert np.array_equal(a.embedding, b.embedding)

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_compiled_checkpoint_loads_as_reference(self, tmp_path, name):
        """The retired "compiled" backend ran the reference loops as numba
        kernels, bit-identical to "reference": its checkpoints load, and
        keep training, as "reference" — bit-for-bit like a "reference"
        checkpoint, for every registry model."""
        rng = np.random.default_rng(6)
        warmup = [rng.integers(0, 20, size=10) for _ in range(4)]
        more = [rng.integers(0, 20, size=10) for _ in range(4)]
        m = make_model(name, 20, 8, seed=3)
        WalkTrainer(m, window=4, ns=3).train_corpus(
            warmup, NegativeSampler(np.ones(20), seed=1)
        )
        legacy, current = str(tmp_path / "compiled.npz"), str(tmp_path / "r.npz")
        save_model(m, legacy)
        save_model(m, current)
        # reprolint: disable=registry-sync(the retired name an old checkpoint carries)
        rewrite_config(legacy, exec_backend="compiled")
        a, b = load_model(legacy), load_model(current)
        assert a.exec_backend == b.exec_backend == "reference"
        WalkTrainer(a, window=4, ns=3).train_corpus(
            more, NegativeSampler(np.ones(20), seed=2)
        )
        WalkTrainer(b, window=4, ns=3).train_corpus(
            more, NegativeSampler(np.ones(20), seed=2)
        )
        assert np.array_equal(a.embedding, b.embedding)
        if hasattr(a, "P"):
            assert np.array_equal(a.P, b.P)

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    @pytest.mark.parametrize("backend", ("reference", "blocked"))
    def test_save_load_continue_training(self, tmp_path, name, backend):
        """save → load → continue: the restored model's trajectory through
        the kernel layer must match the uninterrupted one bit-for-bit, for
        every registry model × backend."""
        rng = np.random.default_rng(4)
        warmup = [rng.integers(0, 20, size=10) for _ in range(4)]
        more = [rng.integers(0, 20, size=10) for _ in range(4)]

        a = make_model(name, 20, 8, seed=3)
        ta = WalkTrainer(a, window=4, ns=3, exec_backend=backend)
        ta.train_corpus(warmup, NegativeSampler(np.ones(20), seed=1))

        path = str(tmp_path / "mid.npz")
        save_model(a, path)
        b = load_model(path)
        assert type(b) is type(a)
        assert b.exec_backend == backend

        # continue both from the checkpoint with identical streams; the
        # restored model picks its recorded backend by default
        sa = NegativeSampler(np.ones(20), seed=2)
        sb = NegativeSampler(np.ones(20), seed=2)
        ta2 = WalkTrainer(a, window=4, ns=3)
        tb2 = WalkTrainer(b, window=4, ns=3)
        assert tb2.exec_backend == backend
        ta2.train_corpus(more, sa)
        tb2.train_corpus(more, sb)
        assert np.array_equal(a.embedding, b.embedding)


class TestBatchRLSCheckpoint:
    """batch_rls persistence: the deferral unit is model state — a restored
    model must keep the spans (and span-aware backend) it trained with."""

    @pytest.mark.parametrize("defer_span", ("walk", 1, 16, "chunk"))
    def test_defer_span_round_trips(self, tmp_path, defer_span):
        m = make_model("batch_rls", 20, 8, seed=3, defer_span=defer_span)
        path = str(tmp_path / "span.npz")
        save_model(m, path)
        m2 = load_model(path)
        assert type(m2) is type(m)
        assert m2.defer_span == defer_span
        assert m2.exec_backend == m.exec_backend

    def test_legacy_batch_rls_defaults_to_walk_span(self, tmp_path):
        """A batch_rls checkpoint missing the defer_span field (hand-edited
        or future-proofing) loads at the universally-accepted default."""
        m = make_model("batch_rls", 20, 8, seed=3, defer_span=16)
        path = str(tmp_path / "nospan.npz")
        save_model(m, path)
        rewrite_config(path, defer_span=None, exec_backend="reference")
        assert load_model(path).defer_span == "walk"

    @pytest.mark.parametrize(
        "backend,defer_span",
        [
            ("reference", "walk"),
            ("blocked", "walk"),
            ("blocked", 16),
            ("blocked", "chunk"),
        ],
    )
    def test_save_load_continue_training(self, tmp_path, backend, defer_span):
        """save → load → continue across every accepting backend × span:
        the restored trajectory must match the uninterrupted one
        bit-for-bit, spans included (the chunk schedule pins the spans)."""
        rng = np.random.default_rng(4)
        warmup = [rng.integers(0, 20, size=10) for _ in range(4)]
        more = [rng.integers(0, 20, size=10) for _ in range(4)]

        a = make_model(
            "batch_rls", 20, 8, seed=3, defer_span=defer_span,
            exec_backend=backend,
        )
        ta = WalkTrainer(a, window=4, ns=3)
        assert ta.exec_backend == backend
        ta.train_corpus(warmup, NegativeSampler(np.ones(20), seed=1))

        path = str(tmp_path / "mid.npz")
        save_model(a, path)
        b = load_model(path)
        assert b.defer_span == defer_span
        assert b.exec_backend == backend

        sa = NegativeSampler(np.ones(20), seed=2)
        sb = NegativeSampler(np.ones(20), seed=2)
        WalkTrainer(a, window=4, ns=3).train_corpus(more, sa)
        WalkTrainer(b, window=4, ns=3).train_corpus(more, sb)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.P, b.P)


class TestBlockCheckpoint:
    """"block" is batch_rls at defer_span="walk": it saves as "batch_rls",
    and files of kind "block" (written before the alias) still load."""

    @staticmethod
    def read_meta(path):
        import json

        with np.load(path) as data:
            return json.loads(bytes(data["__meta__"].tobytes()).decode())

    def test_block_saves_as_batch_rls(self, tmp_path):
        path = str(tmp_path / "block.npz")
        save_model(make_model("block", 20, 8, seed=3), path)
        config = self.read_meta(path)["config"]
        assert config["kind"] == "batch_rls"
        assert config["defer_span"] == "walk"

    def test_block_kind_file_loads_and_trains_bitwise(self, tmp_path):
        """A hand-built file in the older format — kind "block", no
        defer_span field — loads as BatchRLSSkipGram at walk spans and then
        trains bit-identically to the model it was written from."""
        import json

        a = trained_proposed(cls=MODEL_REGISTRY["block"], forgetting_factor=0.99)
        config = {
            "kind": "block",
            "n_nodes": a.n_nodes,
            "dim": a.dim,
            "mu": a.mu,
            "p0": a.p0,
            "weight_tying": a.weight_tying,
            "denominator": a.denominator,
            "duplicate_policy": a.duplicate_policy,
            "forgetting_factor": a.forgetting_factor,
            "n_walks_trained": a.n_walks_trained,
            "exec_backend": "reference",
        }
        path = str(tmp_path / "old_block.npz")
        np.savez(
            path,
            __meta__=np.frombuffer(
                json.dumps({"version": 1, "config": config}).encode(),
                dtype=np.uint8,
            ),
            B=a.B,
            P=a.P,
        )
        b = load_model(path)
        assert type(b) is BatchRLSSkipGram
        assert b.defer_span == "walk"
        assert b.n_walks_trained == a.n_walks_trained
        assert b.forgetting_factor == 0.99

        rng = np.random.default_rng(4)
        more = [rng.integers(0, 20, size=10) for _ in range(4)]
        for m in (a, b):
            WalkTrainer(m, window=4, ns=3).train_corpus(
                more, NegativeSampler(np.ones(20), seed=2)
            )
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.P, b.P)
