"""Tests for the "block" model: exact per-walk block RLS, which is
``batch_rls`` at its default ``defer_span="walk"``."""

import numpy as np
import pytest

from repro.embedding.batch_rls import BatchRLSSkipGram
from repro.embedding.dataflow import DataflowOSELMSkipGram
from repro.embedding.sequential import OSELMSkipGram
from repro.embedding.trainer import MODEL_REGISTRY, make_model
from repro.sampling.corpus import WalkContexts, contexts_from_walk


def block_model(n_nodes, dim, **kw):
    return make_model("block", n_nodes, dim, **kw)


def walk_inputs(n_nodes=40, length=12, window=4, ns=3, seed=0):
    rng = np.random.default_rng(seed)
    walk = rng.integers(0, n_nodes, size=length)
    ctx = contexts_from_walk(walk, window)
    negs = np.broadcast_to(rng.integers(0, n_nodes, size=ns), (ctx.n, ns)).copy()
    return ctx, negs


class TestExactness:
    def test_block_is_batch_rls_at_walk_spans(self):
        assert MODEL_REGISTRY["block"] is BatchRLSSkipGram
        assert block_model(10, 4, seed=0).defer_span == "walk"

    def test_single_context_matches_rank1(self):
        """With one context the block step IS the rank-1 step."""
        ctx = WalkContexts(centers=np.array([3]), positives=np.array([[4, 5, 6]]))
        negs = np.array([[7, 8]])
        a = OSELMSkipGram(10, 6, seed=9)
        b = block_model(10, 6, seed=9)
        a.train_walk(ctx, negs)
        b.train_walk(ctx, negs)
        assert np.allclose(a.B, b.B, atol=1e-10)
        assert np.allclose(a.P, b.P, atol=1e-10)

    def test_p_update_is_exact_block_rls(self):
        """P_new must equal (P0⁻¹ + HᵀH)⁻¹ — the Woodbury identity."""
        ctx, negs = walk_inputs(seed=2)
        m = block_model(40, 8, seed=2)
        P0 = m.P.copy()
        H = m.mu * m.B[ctx.centers]
        m.train_walk(ctx, negs)
        expected = np.linalg.inv(np.linalg.inv(P0) + H.T @ H)
        assert np.allclose(m.P, expected, atol=1e-10)

    def test_p_stays_positive_definite(self):
        m = block_model(40, 8, seed=0)
        for s in range(30):
            ctx, negs = walk_inputs(seed=s)
            m.train_walk(ctx, negs)
        assert np.linalg.eigvalsh(m.P).min() > 0

    def test_differs_from_dataflow(self):
        # large hph regime so the S-matrix cross terms actually matter
        ctx, negs = walk_inputs(seed=1)
        kw = dict(mu=0.5, p0=10.0, init_scale=1.0, seed=4)
        a = DataflowOSELMSkipGram(40, 8, **kw)
        b = block_model(40, 8, **kw)
        a.train_walk(ctx, negs)
        b.train_walk(ctx, negs)
        assert not np.allclose(a.P, b.P, atol=1e-6)

    def test_train_context_disabled(self):
        m = block_model(10, 4, seed=0)
        with pytest.raises(NotImplementedError):
            m.train_context(0, np.array([1]), np.array([2]))

    def test_empty_walk_noop(self):
        m = block_model(10, 4, seed=0)
        B = m.B.copy()
        ctx = contexts_from_walk(np.array([1]), 4)
        m.train_walk(ctx, np.zeros((0, 2), dtype=np.int64))
        assert np.array_equal(m.B, B)


class TestStability:
    def test_stable_where_dataflow_diverges(self):
        """The clique stress case: walks revisit the same few nodes, the
        summed rank-1 deflations of Algorithm 2 overshoot and P goes
        indefinite → divergence.  The exact block solve keeps P positive
        definite and the embedding bounded on the identical stream.

        Divergence depends on the stream, so the claim is stated over five
        fixed seeds: dataflow diverges on most of them, and block stays
        bounded with P positive definite on every one.  The overshoot needs
        a large hᵀPh ≈ μ²·dim·init_scale²·p0 per context: at μ = 0.01
        (0.016) dataflow stays bounded on all five seeds, at μ = 0.03
        (0.14) it diverges on all five."""
        from repro.graph import ring_of_cliques
        from repro.sampling import NegativeSampler, Node2VecWalker, WalkParams

        g = ring_of_cliques(6, 8, seed=0)
        n_diverged = 0
        for seed in range(5):
            kw = dict(mu=0.03, p0=10.0, init_scale=1.0, seed=seed)
            dataflow = DataflowOSELMSkipGram(g.n_nodes, 16, **kw)
            block = block_model(g.n_nodes, 16, **kw)
            walker = Node2VecWalker(g, WalkParams(0.5, 1.0, 30, 5), seed=seed)
            walks = walker.simulate()
            sampler = NegativeSampler.from_walks(walks, g.n_nodes, seed=seed)
            dataflow_diverged = False
            with np.errstate(all="ignore"):
                for w in walks:
                    ctx = contexts_from_walk(w, 5)
                    if ctx.n == 0:
                        continue
                    negs = sampler.sample_for_walk(ctx.n, 5, reuse="per_walk")
                    block.train_walk(ctx, negs)
                    if not dataflow_diverged:
                        dataflow.train_walk(ctx, negs)
                        dataflow_diverged = (
                            not np.isfinite(dataflow.B).all()
                            or np.abs(dataflow.B).max() > 1e6
                        )
            n_diverged += dataflow_diverged
            assert np.isfinite(block.B).all(), seed
            assert np.abs(block.B).max() < 1e3, seed
            assert np.linalg.eigvalsh(block.P).min() > 0, seed
        assert n_diverged >= 3

    def test_large_mu_breaks_b_before_p(self):
        """At μ = 0.1 the same stress case breaks block RLS too, and B goes
        first: on the seeds that raise LinAlgError (the information form's
        Cholesky of P, or of A = λ·P⁻¹ + HᵀH), max|B| has already passed
        1e6 — P has collapsed toward zero with it, so the failed
        factorization is a symptom of the divergence, not a numerical loss
        of definiteness in a bounded run."""
        from repro.graph import ring_of_cliques
        from repro.sampling import NegativeSampler, Node2VecWalker, WalkParams

        g = ring_of_cliques(6, 8, seed=0)
        n_raised = 0
        for seed in range(5):
            block = block_model(
                g.n_nodes, 16, mu=0.1, p0=10.0, init_scale=1.0, seed=seed
            )
            walker = Node2VecWalker(g, WalkParams(0.5, 1.0, 30, 5), seed=seed)
            walks = walker.simulate()
            sampler = NegativeSampler.from_walks(walks, g.n_nodes, seed=seed)
            peak = np.abs(block.B).max()
            with np.errstate(all="ignore"):
                for w in walks:
                    ctx = contexts_from_walk(w, 5)
                    if ctx.n == 0:
                        continue
                    negs = sampler.sample_for_walk(ctx.n, 5, reuse="per_walk")
                    try:
                        block.train_walk(ctx, negs)
                    except np.linalg.LinAlgError:
                        assert peak > 1e6, (seed, peak)
                        n_raised += 1
                        break
                    peak = max(peak, np.abs(block.B).max())
        assert n_raised >= 1

    def test_learns_communities(self):
        rng = np.random.default_rng(0)
        m = block_model(6, 8, mu=0.05, seed=0)
        for _ in range(300):
            block_base = int(rng.choice([0, 3]))
            walk = block_base + rng.integers(0, 3, size=6)
            ctx = contexts_from_walk(walk, 3)
            m.train_walk(ctx, rng.integers(0, 6, size=(ctx.n, 2)))
        e = m.embedding
        e = e / np.linalg.norm(e, axis=1, keepdims=True)
        assert (e[0] @ e[1] + e[3] @ e[4]) / 2 > (e[0] @ e[3] + e[1] @ e[4]) / 2
