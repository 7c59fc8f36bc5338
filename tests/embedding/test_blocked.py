"""The ``"blocked"`` execution backend's contract: rank-k RLS block solves
with *sequential* gains, walk-batched SGD and the models' own walk updates
(repro.embedding.kernels.BlockedKernel).

Pinned here, under shared pre-drawn negatives (the bulk draw is pinned in
``test_kernels.py``):

* alpha-tied duplicate-free blocks are exact in exact arithmetic (only
  Cholesky/GEMM float reassociation remains — ``BLOCKED_EXACT_RTOL``);
* one-context blocks degenerate to the scalar recursion for *every* tying
  (the staleness terms of the documented O(µ²·k) bound all vanish) — the
  backend always blocks per walk, so the sub-walk analysis runs through
  the private ``_train_oselm_blocked(..., block_contexts)`` entry point;
* real walks at the paper's µ = 0.01 stay inside ``BLOCKED_RTOL`` across
  models × duplicate policies (hypothesis property tests, shared
  pre-drawn negatives isolating the arithmetic), and the SGD drift is
  O(lr²);
* ``denominator="paper"`` (no SPD block form) trains exactly like
  ``"reference"``;
* P stays exactly symmetric (the square-root downdate + per-walk
  re-symmetrization);
* chunk staging is invisible: a chunk trains bit-for-bit like one call per
  walk in both error-branch regimes and both tyings, and an out-of-range
  id anywhere in a chunk raises before any walk is trained.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import make_model
from repro.embedding.kernels import (
    BLOCKED_EXACT_RTOL,
    BLOCKED_RTOL,
    EXEC_BACKENDS,
    BlockedKernel,
    ReferenceKernel,
    _train_oselm_blocked,
    default_negative_reuse,
    make_backend,
    prepare_contexts,
    resolve_backend,
)
from repro.embedding.trainer import MODEL_REGISTRY, WalkTrainer
from repro.sampling.negative import NegativeSampler

WINDOW, NS = 5, 4


def make_sampler(n_nodes, seed=11):
    return NegativeSampler(np.ones(n_nodes), seed=seed)


def make_chunk(rng, n_nodes, n_walks=4, max_len=18):
    walks = []
    for _ in range(n_walks):
        length = int(rng.integers(2, max_len + 1))
        walks.append(rng.integers(0, n_nodes, size=length))
    return walks


def reuse_for(name):
    return default_negative_reuse(make_model(name, 4, 2))


class SubWalkBlocks:
    """Blocks of ``block_contexts`` contexts within each walk, through the
    blocked kernel's private chunk entry point — the seam that pins the
    O(µ²·k) analysis at block sizes the backend itself never runs."""

    def __init__(self, block_contexts):
        self.block_contexts = block_contexts

    def train_prepared(self, model, contexts, negatives):
        _train_oselm_blocked(model, contexts, negatives, self.block_contexts)


def run_pair(name, walks, n_nodes, other, *, window=WINDOW, dim=8, seed=7,
             reuse=None, **kw):
    """Train two identically-initialized models on the SAME pre-drawn
    negatives (``reuse`` defaults to the model's own policy) through
    ``ReferenceKernel`` and ``other``; returns (ref_model, other_model)."""
    a = make_model(name, n_nodes, dim, seed=seed, **kw)
    b = make_model(name, n_nodes, dim, seed=seed, **kw)
    ref = ReferenceKernel()
    contexts = prepare_contexts(walks, window)
    negatives = ref.draw_negatives(
        make_sampler(n_nodes), contexts, NS, reuse or reuse_for(name)
    )
    ref.train_prepared(a, contexts, negatives)
    other.train_prepared(b, contexts, negatives)
    return a, b


def duplicate_free_case(rng, n_nodes=300, length=12):
    """A walk whose blocks are duplicate-free: window 2 (one positive per
    context, no sliding-window overlap), all walk nodes distinct, negatives
    distinct and disjoint from the walk — the construction under which the
    alpha-tied kernel is exact in exact arithmetic (module docstring)."""
    perm = rng.permutation(n_nodes)
    walks = [perm[:length]]
    contexts = prepare_contexts(walks, 2)
    (ctx,) = contexts
    negatives = [perm[length : length + ctx.n * NS].reshape(ctx.n, NS)]
    return walks, contexts, negatives


class TestRegistryAndKnobs:
    def test_registered(self):
        assert "blocked" in EXEC_BACKENDS
        backend = make_backend("blocked")
        assert isinstance(backend, BlockedKernel)
        assert repr(backend) == "BlockedKernel()"

    def test_tolerance_table_covers_every_model(self):
        assert set(BLOCKED_RTOL) == set(MODEL_REGISTRY)
        # the SGD model carries its walk-deferral drift, the
        # proposed model carries the rank-k staleness, the deferred models
        # train through their own (unchanged) walk updates
        assert BLOCKED_RTOL["original"] > 0
        assert BLOCKED_RTOL["proposed"] > 0
        assert BLOCKED_RTOL["dataflow"] == BLOCKED_RTOL["block"] == 0.0
        assert 0 < BLOCKED_EXACT_RTOL < min(
            v for v in BLOCKED_RTOL.values() if v
        )

    def test_configured_instance_resolves_as_is(self):
        backend = BlockedKernel()
        assert resolve_backend(backend) is backend

    def test_api_docs_render_blocked(self):
        from repro import train_embedding

        assert '"blocked"' in train_embedding.__doc__


class TestAlphaTiedExactness:
    """Untied input weights + duplicate-free blocks ⇒ the rank-k solve
    reproduces the sequential recursion exactly in exact arithmetic; only
    floating-point reassociation of the factorization remains."""

    @pytest.mark.parametrize(
        "kernel",
        (
            pytest.param(BlockedKernel(), id="walk"),
            pytest.param(SubWalkBlocks(4), id="4"),
            pytest.param(SubWalkBlocks(1), id="1"),
        ),
    )
    def test_exact_on_duplicate_free_blocks(self, kernel):
        rng = np.random.default_rng(0)
        walks, contexts, negatives = duplicate_free_case(rng)
        del walks  # the constructed (duplicate-free) negatives are the point
        a = make_model("proposed", 300, 8, seed=7, weight_tying="alpha")
        b = make_model("proposed", 300, 8, seed=7, weight_tying="alpha")
        ReferenceKernel().train_prepared(a, contexts, negatives)
        kernel.train_prepared(b, contexts, negatives)
        scale = max(np.abs(a.embedding).max(), 1.0)
        assert np.abs(a.embedding - b.embedding).max() <= BLOCKED_EXACT_RTOL * scale
        assert np.abs(a.P - b.P).max() <= BLOCKED_EXACT_RTOL

    def test_duplicates_are_what_breaks_exactness(self):
        """Sanity check on the construction: the SAME case with sampler
        negatives (duplicates across contexts) drifts above eps — the
        duplicate-free condition is load-bearing, not incidental."""
        rng = np.random.default_rng(0)
        walks, _, _ = duplicate_free_case(rng)
        a, b = run_pair(
            "proposed", walks, 300, BlockedKernel(),
            window=2, weight_tying="alpha",
        )
        drift = np.abs(a.embedding - b.embedding).max()
        assert drift > BLOCKED_EXACT_RTOL  # duplicates: genuine staleness

    def test_sequential_gains_are_load_bearing(self):
        """The same solve with *batch* gains (plain K = P Hᵀ S⁻¹) would NOT
        be sequential-exact: K_batch = K_seq·L̃⁻¹ with L̃ unit lower
        triangular, so only the LAST column coincides — scattering with the
        batch gain would couple every earlier step through S⁻¹."""
        from repro.embedding.oselm import rank_k_update

        rng = np.random.default_rng(1)
        P0 = np.eye(6) * 0.7
        H = rng.normal(size=(5, 6))
        seq = rank_k_update(P0.copy(), H, gain="sequential")
        batch = rank_k_update(P0.copy(), H, gain="batch")
        assert np.allclose(seq[:, -1], batch[:, -1])
        assert np.abs(seq[:, :-1] - batch[:, :-1]).max() > 1e-3
        # and the sequential gains really are the rank-1 recursion's gains
        P = P0.copy()
        for i in range(H.shape[0]):
            h = H[i]
            Ph = P @ h
            k1 = Ph / (1.0 + h @ Ph)
            P -= np.outer(k1, Ph)
            assert np.allclose(seq[:, i], k1)


class TestBlockContextsKnob:
    """Sub-walk block sizes of ``_train_oselm_blocked`` (the backend itself
    always runs one block per walk)."""

    def test_block_of_one_degenerates_to_reference_any_tying(self):
        """With one-context blocks every staleness term of the O(µ²·k)
        analysis vanishes — the solve IS the scalar recursion, for beta
        tying too."""
        rng = np.random.default_rng(2)
        walks = make_chunk(rng, 40, n_walks=4)
        a, b = run_pair("proposed", walks, 40, SubWalkBlocks(1))
        scale = max(np.abs(a.embedding).max(), 1.0)
        assert np.abs(a.embedding - b.embedding).max() <= BLOCKED_EXACT_RTOL * scale
        assert np.abs(a.P - b.P).max() <= BLOCKED_EXACT_RTOL

    def test_oversized_block_equals_walk_blocks(self):
        """Ints beyond any walk's context count clip at the walk boundary —
        bit-identical to the default one-walk blocks."""
        rng = np.random.default_rng(3)
        walks = make_chunk(rng, 30, n_walks=4)
        contexts = prepare_contexts(walks, WINDOW)
        negs = ReferenceKernel().draw_negatives(
            make_sampler(30), contexts, NS, "per_context"
        )
        a = make_model("proposed", 30, 8, seed=5)
        b = make_model("proposed", 30, 8, seed=5)
        BlockedKernel().train_prepared(a, contexts, negs)
        SubWalkBlocks(10_000).train_prepared(b, contexts, negs)
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.P, b.P)

    def test_sub_walk_blocks_stay_in_tolerance(self):
        rng = np.random.default_rng(4)
        walks = make_chunk(rng, 40, n_walks=4)
        for bc in (2, 3, 7):
            a, b = run_pair("proposed", walks, 40, SubWalkBlocks(bc))
            scale = max(np.abs(a.embedding).max(), 1e-12)
            drift = np.abs(a.embedding - b.embedding).max() / scale
            assert drift <= BLOCKED_RTOL["proposed"], bc


@st.composite
def chunk_case(draw):
    n_nodes = draw(st.integers(min_value=12, max_value=40))
    n_walks = draw(st.integers(min_value=1, max_value=4))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = np.random.default_rng(seed)
    return n_nodes, make_chunk(rng, n_nodes, n_walks=n_walks), seed


class TestBlockedToleranceContract:
    """Property-style: given the SAME negatives, ``"blocked"`` matches
    ``"reference"`` within ``BLOCKED_RTOL`` per model — at the paper's
    hyper-parameters (µ = 0.01 is the model default) across duplicate
    policies; the models that train through their own ``train_walk``
    must match bit-for-bit."""

    @pytest.mark.parametrize("policy", ("batched", "sequential"))
    @given(case=chunk_case())
    @settings(max_examples=12, deadline=None)
    def test_proposed_within_documented_rtol(self, policy, case):
        n_nodes, walks, seed = case
        a, b = run_pair(
            "proposed", walks, n_nodes, BlockedKernel(),
            seed=seed, duplicate_policy=policy,
        )
        scale = max(np.abs(a.embedding).max(), 1e-12)
        drift = np.abs(a.embedding - b.embedding).max()
        assert drift <= BLOCKED_RTOL["proposed"] * scale
        assert a.n_walks_trained == b.n_walks_trained

    @pytest.mark.parametrize("policy", ("batched", "sequential"))
    @pytest.mark.parametrize("name", ("dataflow", "block", "batch_rls"))
    @given(case=chunk_case())
    @settings(max_examples=8, deadline=None)
    def test_deferred_models_bit_identical(self, name, policy, case):
        """The deferred models are already walk-vectorized: blocked trains
        them through their own train_walk, exactly like reference — under
        either duplicate policy (the model's own, never substituted)."""
        n_nodes, walks, seed = case
        a, b = run_pair(
            name, walks, n_nodes, BlockedKernel(),
            seed=seed, duplicate_policy=policy,
        )
        assert np.array_equal(a.embedding, b.embedding)
        assert np.array_equal(a.P, b.P)
        assert a.n_walks_trained == b.n_walks_trained

    @given(case=chunk_case())
    @settings(max_examples=12, deadline=None)
    def test_original_within_documented_rtol(self, case):
        """No RLS recursion to block: SkipGramSGD freezes its weights per
        walk, an O(lr²)-per-window drift bounded by BLOCKED_RTOL."""
        n_nodes, walks, seed = case
        a, b = run_pair("original", walks, n_nodes, BlockedKernel(), seed=seed)
        scale = max(np.abs(a.embedding).max(), 1e-12)
        drift = np.abs(a.embedding - b.embedding).max()
        assert drift <= BLOCKED_RTOL["original"] * scale

    def test_original_drift_shrinks_quadratically_with_lr(self):
        """The SGD tolerance is O(lr²) per window: shrinking lr 10× must
        shrink the blocked-vs-reference drift far more than 10×."""
        rng = np.random.default_rng(5)
        walks = make_chunk(rng, 30, n_walks=4)
        drifts = {}
        for lr in (0.01, 0.001):
            a, b = run_pair("original", walks, 30, BlockedKernel(), lr=lr)
            drifts[lr] = np.abs(a.embedding - b.embedding).max()
        assert drifts[0.001] < drifts[0.01] / 8

    @pytest.mark.parametrize("reuse", ("per_context", "per_walk"))
    @pytest.mark.parametrize("policy", ("batched", "sequential"))
    @pytest.mark.parametrize("lam", (1.0, 0.97))
    @pytest.mark.parametrize("tying", ("beta", "alpha"))
    def test_paper_denominator_matches_reference(self, tying, lam, policy, reuse):
        """Literal Algorithm 1 line 5 has no SPD block form — those models
        train through their own per-context recursion, bit-for-bit, whether
        each context draws its own negatives or a walk shares one row."""
        rng = np.random.default_rng(6)
        walks = make_chunk(rng, 30, n_walks=3)
        a, b = run_pair(
            "proposed", walks, 30, BlockedKernel(), seed=2, reuse=reuse,
            denominator="paper", weight_tying=tying, forgetting_factor=lam,
            duplicate_policy=policy,
        )
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.P, b.P)
        assert a.n_walks_trained == b.n_walks_trained

    def test_forgetting_factor_block_of_one_matches_reference(self):
        """λ < 1: the 1/λ rescaling is per block, so one-context blocks
        reproduce the per-context FOS-ELM recursion."""
        rng = np.random.default_rng(7)
        walks = make_chunk(rng, 30, n_walks=3)
        a, b = run_pair(
            "proposed", walks, 30, SubWalkBlocks(1),
            forgetting_factor=0.99,
        )
        scale = max(np.abs(a.embedding).max(), 1.0)
        assert np.abs(a.embedding - b.embedding).max() <= BLOCKED_EXACT_RTOL * scale


@st.composite
def ragged_walks(draw, n_nodes):
    """Up to six walks of 1–24 nodes: some shorter than the window, which
    must drop out of the chunk."""
    n_walks = draw(st.integers(min_value=1, max_value=6))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = np.random.default_rng(seed)
    lengths = rng.integers(1, 25, size=n_walks)
    return [rng.integers(0, n_nodes, size=n) for n in lengths], seed


#: (n_nodes, window) regimes: a small graph makes blocks duplicate-heavy
#: (3R ≤ k·S: errors through the unique-row GEMM); a large graph at window 2
#: makes them duplicate-light (errors contracted per slot)
REGIMES = (
    pytest.param(16, WINDOW, id="duplicate-heavy"),
    pytest.param(20_000, 2, id="duplicate-light"),
)


class TestChunkStaging:
    """``"blocked"`` stages a chunk once (contexts, input checks, sample
    matrix, row remap) and keeps only the recursion per walk: a chunk must
    train exactly like one call per walk."""

    @pytest.mark.parametrize("tying", ("beta", "alpha"))
    @pytest.mark.parametrize("n_nodes, window", REGIMES)
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_chunk_equals_one_call_per_walk(self, tying, n_nodes, window, data):
        walks, seed = data.draw(ragged_walks(n_nodes))
        contexts = prepare_contexts(walks, window)
        assert contexts.counts.tolist() == [
            len(w) - window + 1 for w in walks if len(w) >= window
        ]
        negs = ReferenceKernel().draw_negatives(
            make_sampler(n_nodes), contexts, NS, "per_context"
        )
        a = make_model("proposed", n_nodes, 8, seed=seed, weight_tying=tying)
        b = make_model("proposed", n_nodes, 8, seed=seed, weight_tying=tying)
        BlockedKernel().train_prepared(a, contexts, negs)
        kept = [w for w in walks if len(w) >= window]
        for walk, n in zip(kept, negs, strict=True):
            BlockedKernel().train_prepared(b, prepare_contexts([walk], window), [n])
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.P, b.P)
        assert a.n_walks_trained == b.n_walks_trained == len(contexts)

    @pytest.mark.parametrize(
        "n_nodes, window, heavy",
        ((16, WINDOW, True), (20_000, 2, False)),
    )
    def test_regimes_reach_both_error_branches(self, n_nodes, window, heavy):
        """The kernel's error branch is ``3R ≤ k·S`` (R distinct rows among
        a walk's k·S sample slots); the two regimes land on either side."""
        rng = np.random.default_rng(0)
        contexts = prepare_contexts([rng.integers(0, n_nodes, size=20)], window)
        (negs,) = ReferenceKernel().draw_negatives(
            make_sampler(n_nodes), contexts, NS, "per_context"
        )
        (ctx,) = contexts
        J = window - 1
        samples = np.concatenate([ctx.positives, np.tile(negs, (1, J))], axis=1)
        assert (3 * np.unique(samples).size <= samples.size) == heavy

    @pytest.mark.parametrize("where", ("centers", "positives", "negatives"))
    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_out_of_range_id_anywhere_leaves_model_untouched(self, where, data):
        n_nodes = 30
        walks, seed = data.draw(ragged_walks(n_nodes))
        contexts = prepare_contexts(walks, WINDOW)
        if not contexts:
            return
        negs = ReferenceKernel().draw_negatives(
            make_sampler(n_nodes), contexts, NS, "per_context"
        )
        target = {
            "centers": contexts.centers,
            "positives": contexts.positives,
            "negatives": negs[data.draw(st.integers(0, len(negs) - 1))],
        }[where].reshape(-1)
        target[data.draw(st.integers(0, target.size - 1))] = data.draw(
            st.sampled_from((-1, n_nodes))
        )
        model = make_model("proposed", n_nodes, 8, seed=seed)
        B, P = model.B.copy(), model.P.copy()
        with pytest.raises(ValueError, match=f"{where} contain out-of-range"):
            BlockedKernel().train_prepared(model, contexts, negs)
        assert np.array_equal(model.B, B)
        assert np.array_equal(model.P, P)
        assert model.n_walks_trained == 0


class TestChunkBehavior:
    def test_accounting_matches_reference(self):
        rng = np.random.default_rng(8)
        n_nodes = 30
        walks = make_chunk(rng, n_nodes, n_walks=5)
        results = {}
        for backend in ("reference", "blocked"):
            model = make_model("proposed", n_nodes, 8, seed=4)
            trainer = WalkTrainer(model, window=WINDOW, ns=NS, exec_backend=backend)
            trainer.train_corpus(walks, make_sampler(n_nodes))
            results[backend] = trainer
        ref, blk = results["reference"], results["blocked"]
        assert ref.n_walks == blk.n_walks
        assert ref.n_contexts == blk.n_contexts
        assert ref.ops.as_dict() == pytest.approx(blk.ops.as_dict())

    def test_p_stays_exactly_symmetric(self):
        """Square-root downdates + the per-walk re-symmetrization leave P
        bitwise symmetric after any amount of blocked training."""
        rng = np.random.default_rng(10)
        walks = make_chunk(rng, 40, n_walks=12)
        model = make_model("proposed", 40, 8, seed=1)
        trainer = WalkTrainer(model, window=WINDOW, ns=NS, exec_backend="blocked")
        trainer.train_corpus(walks, make_sampler(40))
        assert np.array_equal(model.P, model.P.T)
        assert np.isfinite(model.P).all()

    def test_preference_recorded_and_checkpointable(self, tmp_path):
        from repro.checkpoint import load_model, save_model

        model = make_model("proposed", 20, 8, seed=0)
        WalkTrainer(model, window=WINDOW, ns=NS, exec_backend="blocked")
        assert model.exec_backend == "blocked"
        path = str(tmp_path / "b.npz")
        save_model(model, path)
        assert load_model(path).exec_backend == "blocked"
