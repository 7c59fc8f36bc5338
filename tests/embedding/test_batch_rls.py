"""The ``"batch_rls"`` model's contract (repro.embedding.batch_rls).

Pinned here, mirroring the backend contracts in ``test_kernels.py`` /
``test_blocked.py``:

* ``defer_span=1`` degenerates to Algorithm 1 **bit-identically** — same
  B, same P, same negative stream as the ``"proposed"`` goldens;
* ``defer_span="walk"`` is the per-walk block RLS the ``"block"`` registry
  name trains (its own contract lives in ``test_block.py``);
* cross-walk spans stay within ``BATCH_RLS_RTOL`` of the ``"walk"``
  degeneration under shared negatives (hypothesis property tests);
* walk-feeding consumers reject cross-walk spans up front with the
  registry-rendered error, at construction and at train time;
* one shared negative batch per span (the GraphACT amortization);
* span scratch reuse (the hoisted ``hidden_batch(out=...)`` seam) is
  bit-identical to fresh allocations across span-shape collisions.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding import BatchRLSSkipGram, make_model
from repro.embedding.kernels import (
    BATCH_RLS_RTOL,
    BlockedKernel,
    ReferenceKernel,
    cross_walk_span_error,
    default_negative_reuse,
    prepare_contexts,
)
from repro.embedding.oselm import (
    _rank_k_information,
    _rank_k_woodbury,
    rank_k_update,
)
from repro.embedding.trainer import MODEL_REGISTRY, WalkTrainer
from repro.sampling.corpus import contexts_from_walk
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


def span_pair(walks, n_nodes, span_a, span_b, *, dim=8, seed=7):
    """Train two identically-initialized batch_rls models (``defer_span`` =
    ``span_a`` vs ``span_b``) through the blocked kernel on the SAME
    pre-drawn per-context negatives; returns (model_a, model_b)."""
    a = make_model("batch_rls", n_nodes, dim, seed=seed, defer_span=span_a)
    b = make_model("batch_rls", n_nodes, dim, seed=seed, defer_span=span_b)
    blocked = BlockedKernel()
    contexts = prepare_contexts(walks, WINDOW)
    # per-context draws, shared verbatim: isolates the span-staleness
    # arithmetic from the per-span draw policy
    negatives = ReferenceKernel().draw_negatives(
        make_sampler(n_nodes), contexts, NS, "per_context"
    )
    blocked.train_prepared(a, contexts, negatives)
    blocked.train_prepared(b, contexts, negatives)
    return a, b


def rel_drift(a, b):
    scale = max(np.abs(a.embedding).max(), 1e-12)
    return np.abs(a.embedding - b.embedding).max() / scale


class TestRegistryAndKnobs:
    def test_registered(self):
        assert MODEL_REGISTRY["batch_rls"] is BatchRLSSkipGram
        m = make_model("batch_rls", 20, 8, seed=0)
        assert m.defer_span == "walk"
        assert "defer_span='walk'" in repr(m)

    @pytest.mark.parametrize("bad", ("corpus", 0, -3, 2.5))
    def test_invalid_defer_span(self, bad):
        with pytest.raises((ValueError, TypeError), match="defer_span"):
            make_model("batch_rls", 20, 8, seed=0, defer_span=bad)

    @pytest.mark.parametrize("span", ("chunk", 16))
    def test_paper_denominator_rejected_for_cross_walk_spans(self, span):
        with pytest.raises(ValueError, match="SPD span form"):
            make_model(
                "batch_rls", 20, 8, seed=0, defer_span=span, denominator="paper"
            )

    @pytest.mark.parametrize("span", ("walk", 1))
    def test_paper_denominator_fine_at_walk_spans(self, span):
        m = make_model(
            "batch_rls", 20, 8, seed=0, defer_span=span, denominator="paper"
        )
        assert m.denominator == "paper"

    @pytest.mark.parametrize(
        "span,backend",
        [("walk", "reference"), (1, "reference"), (16, "blocked"), ("chunk", "blocked")],
    )
    def test_default_backend_resolution(self, span, backend):
        m = make_model("batch_rls", 20, 8, seed=0, defer_span=span)
        assert m.exec_backend == backend

    def test_defer_crosses_walks(self):
        crosses = {"walk": False, 1: False, 2: True, 64: True, "chunk": True}
        for span, expect in crosses.items():
            m = make_model("batch_rls", 20, 8, seed=0, defer_span=span)
            assert m.defer_crosses_walks is expect, span

    def test_default_negative_reuse(self):
        assert default_negative_reuse(make_model("batch_rls", 20, 8, seed=0)) == (
            "per_walk"
        )
        assert default_negative_reuse(
            make_model("batch_rls", 20, 8, seed=0, defer_span="chunk")
        ) == "per_walk"
        # span sharing at span=1 IS the per-context policy — the goldens'
        # negative stream
        assert default_negative_reuse(
            make_model("batch_rls", 20, 8, seed=0, defer_span=1)
        ) == "per_context"

    def test_api_docs_render_model(self):
        from repro import train_embedding

        assert '"batch_rls"' in train_embedding.__doc__


class TestCrossWalkRejection:
    """A cross-walk span meeting a walk-feeding consumer fails fast with
    the registry-rendered error, wherever the meeting happens."""

    # every span that crosses a walk boundary: the smallest, a block, the
    # whole chunk
    CROSSING = (2, 8, "chunk")

    @pytest.mark.parametrize("span", CROSSING)
    def test_rejected_at_construction(self, span):
        with pytest.raises(ValueError, match="one walk at a time"):
            make_model(
                "batch_rls", 20, 8, seed=0, defer_span=span,
                exec_backend="reference",
            )

    @pytest.mark.parametrize("span", CROSSING)
    def test_rejected_at_train_chunk(self, span):
        m = make_model("batch_rls", 20, 8, seed=0, defer_span=span)
        with pytest.raises(ValueError, match="reference"):
            ReferenceKernel().train_chunk(
                m, [np.arange(10)], make_sampler(20), window=WINDOW, ns=NS
            )

    def test_rejected_by_walk_feeding_trainer(self):
        m = make_model("batch_rls", 20, 8, seed=0, defer_span="chunk")
        trainer = WalkTrainer(m, window=WINDOW, ns=NS, exec_backend="reference")
        with pytest.raises(ValueError, match="cross-walk span can never form"):
            trainer.train_corpus([np.arange(10)], make_sampler(20))

    def test_direct_train_walk_rejected(self):
        m = make_model("batch_rls", 20, 8, seed=0, defer_span=8)
        ctx = contexts_from_walk(np.arange(10), WINDOW)
        with pytest.raises(ValueError, match="train_walk"):
            m.train_walk(ctx, np.zeros((ctx.n, NS), dtype=np.int64))

    def test_train_context_deferred(self):
        m = make_model("batch_rls", 20, 8, seed=0)
        with pytest.raises(NotImplementedError, match="defer_span"):
            m.train_context(0, np.array([1]), np.array([2]))

    def test_error_renders_from_registry(self):
        msg = cross_walk_span_error("chunk", "reference")
        assert '"blocked"' in msg
        assert ReferenceKernel.summary in msg
        # capable backends never render their own rejection
        assert BlockedKernel.spans_walks
        inst = cross_walk_span_error(8, ReferenceKernel())
        assert 'exec_backend="reference"' in inst
        bare = cross_walk_span_error(8)
        assert "train_walk()" in bare


class TestDegeneration:
    """The two exactness anchors of the module docstring."""

    def test_span_of_one_bit_identical_to_proposed(self):
        """defer_span=1 IS Algorithm 1 — same B, same P, same negative
        stream as the "proposed" goldens, end to end through the trainer."""
        rng = np.random.default_rng(2)
        walks = make_chunk(rng, 30, n_walks=6)
        a = make_model("proposed", 30, 8, seed=5)
        b = make_model("batch_rls", 30, 8, seed=5, defer_span=1)
        for m in (a, b):
            WalkTrainer(m, window=WINDOW, ns=NS).train_corpus(
                walks, make_sampler(30)
            )
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.P, b.P)

    @pytest.mark.parametrize("span", ("walk", 1))
    def test_walk_span_reference_bit_identity(self, span):
        """At spans that clip at walk boundaries every backend executes the
        model's own train_walk — the BLOCKED_RTOL 0.0 entry, pinned
        directly."""
        rng = np.random.default_rng(4)
        walks = make_chunk(rng, 30, n_walks=5)
        a = make_model("batch_rls", 30, 8, seed=5, defer_span=span)
        b = make_model("batch_rls", 30, 8, seed=5, defer_span=span)
        contexts = prepare_contexts(walks, WINDOW)
        negatives = ReferenceKernel().draw_negatives(
            make_sampler(30), contexts, NS, "per_walk"
        )
        ReferenceKernel().train_prepared(a, contexts, negatives)
        BlockedKernel().train_prepared(b, contexts, negatives)
        assert np.array_equal(a.embedding, b.embedding)


@st.composite
def chunk_case(draw):
    n_nodes = draw(st.integers(min_value=12, max_value=40))
    n_walks = draw(st.integers(min_value=2, max_value=5))
    seed = draw(st.integers(min_value=0, max_value=2**20))
    rng = np.random.default_rng(seed)
    return n_nodes, make_chunk(rng, n_nodes, n_walks=n_walks), seed


class TestSpanToleranceContract:
    """Property-style: cross-walk spans drift from the "walk" degeneration
    by the documented O(µ²·k) staleness, bounded by BATCH_RLS_RTOL at the
    paper's µ = 0.01 under shared per-context negatives."""

    @pytest.mark.parametrize("span", (4, 16, "chunk"))
    @given(case=chunk_case())
    @settings(max_examples=10, deadline=None)
    def test_cross_walk_span_within_documented_rtol(self, span, case):
        n_nodes, walks, seed = case
        a, b = span_pair(walks, n_nodes, "walk", span, seed=seed)
        assert rel_drift(a, b) <= BATCH_RLS_RTOL
        assert a.n_walks_trained == b.n_walks_trained

    @given(case=chunk_case())
    @settings(max_examples=8, deadline=None)
    def test_p_stays_exactly_symmetric(self, case):
        n_nodes, walks, seed = case
        m = make_model("batch_rls", n_nodes, 8, seed=seed, defer_span="chunk")
        WalkTrainer(m, window=WINDOW, ns=NS).train_corpus(
            walks, make_sampler(n_nodes)
        )
        assert np.array_equal(m.P, m.P.T)


class TestSharedNegativeBatches:
    """One draw per span: the GraphACT-style amortization of
    NegativeSampler.draw_batch."""

    def test_rows_shared_within_span_fresh_across_spans(self):
        n_nodes, span = 200, 4
        m = make_model("batch_rls", n_nodes, 8, seed=0, defer_span=span)
        rng = np.random.default_rng(6)
        walks = make_chunk(rng, n_nodes, n_walks=3, max_len=14)
        contexts = prepare_contexts(walks, WINDOW)
        negatives = BlockedKernel().draw_negatives(
            make_sampler(n_nodes), contexts, NS, "per_walk", model=m
        )
        flat = np.concatenate(negatives, axis=0)
        spans = [flat[lo : lo + span] for lo in range(0, flat.shape[0], span)]
        for block in spans:
            assert (block == block[0]).all()
        distinct = {tuple(block[0]) for block in spans}
        assert len(distinct) > 1  # fresh draw per span, not one global batch

    def test_draw_count_amortized(self):
        """The sampler RNG advances once per span, not once per context:
        per-span draws equal a direct draw_batch(n_spans) stream."""
        n_nodes, span = 150, 8
        m = make_model("batch_rls", n_nodes, 8, seed=0, defer_span=span)
        walks = [np.arange(20), np.arange(20, 44)]
        contexts = prepare_contexts(walks, WINDOW)
        total = sum(ctx.n for ctx in contexts)
        negatives = BlockedKernel().draw_negatives(
            make_sampler(n_nodes), contexts, NS, "per_walk", model=m
        )
        expect = make_sampler(n_nodes).draw_batch(-(-total // span), NS)
        flat = np.concatenate(negatives, axis=0)
        assert np.array_equal(flat, expect[np.arange(total) // span])


class TestSpanScratchReuse:
    """Reusing the span scratch buffers (``out=`` into the model's work
    dict) must be bit-identical to fresh allocations, including across
    span-shape collisions (grow → shrink → regrow)."""

    def test_shape_collision_bit_identical(self):
        n_nodes, dim = 60, 8
        rng = np.random.default_rng(9)
        spans = [12, 5, 12, 3, 12]  # repeated shapes exercise buffer reuse
        a = make_model("batch_rls", n_nodes, dim, seed=1, defer_span="chunk")
        b = make_model("batch_rls", n_nodes, dim, seed=1, defer_span="chunk")
        for k in spans:
            centers = rng.integers(0, n_nodes, size=k)
            positives = rng.integers(0, n_nodes, size=(k, WINDOW - 1))
            negs = rng.integers(0, n_nodes, size=(k, NS))
            a.train_span(centers, positives, negs)
            # force fresh scratch buffers on b
            b._work = {}
            b.train_span(centers, positives, negs)
        assert np.array_equal(a.B, b.B)
        assert np.array_equal(a.P, b.P)

    def test_hidden_batch_out_seam(self):
        m = make_model("batch_rls", 40, 8, seed=2)
        centers = np.array([3, 7, 7, 11])
        fresh = m.hidden_batch(centers)
        buf = np.empty((4, 8), dtype=np.float64)
        reused = m.hidden_batch(centers, out=buf)
        assert reused is buf
        assert np.array_equal(fresh, reused)

    def test_empty_span_is_noop(self):
        m = make_model("batch_rls", 20, 8, seed=0, defer_span="chunk")
        B0, P0 = m.B.copy(), m.P.copy()
        m.train_span(
            np.empty(0, dtype=np.int64),
            np.empty((0, 2), dtype=np.int64),
            np.empty((0, NS), dtype=np.int64),
        )
        assert np.array_equal(m.B, B0)
        assert np.array_equal(m.P, P0)

    def test_out_of_range_ids_rejected(self):
        m = make_model("batch_rls", 20, 8, seed=0, defer_span="chunk")
        with pytest.raises(ValueError, match="out-of-range"):
            m.train_span(
                np.array([25]), np.array([[1, 2]]), np.array([[3, 4, 5, 6]])
            )


class TestInformationForm:
    """rank_k_update's two solve forms: the d×d information form behind
    chunk-scale spans must be the Woodbury batch gain, reassociated."""

    def test_matches_woodbury(self):
        rng = np.random.default_rng(0)
        d, k = 6, 40  # k > d: the regime "auto" routes to information
        P0 = np.eye(d) * 2.0 + 0.1 * np.ones((d, d))
        H = rng.normal(size=(k, d))
        Pw, Pi = P0.copy(), P0.copy()
        Kw = _rank_k_woodbury(Pw, H, 1.0, "batch", None)
        Ki = _rank_k_information(Pi, H, 1.0, None)
        np.testing.assert_allclose(Pi, Pw, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(Ki, Kw, rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("lam", (1.0, 0.97))
    def test_auto_dispatch(self, lam):
        """The form follows from the inputs: information iff the batch gain
        is asked for and k > d; sequential gains always take Woodbury."""
        rng = np.random.default_rng(1)
        d = 5
        P0 = np.eye(d) * 3.0
        cases = (
            (3, "batch", "woodbury"),
            (5, "batch", "woodbury"),
            (12, "batch", "information"),
            (12, "sequential", "woodbury"),
        )
        for k, gain, form in cases:
            H = rng.normal(size=(k, d))
            Pa, Pe = P0.copy(), P0.copy()
            Ka = rank_k_update(Pa, H, lam=lam, gain=gain)
            if form == "information":
                Ke = _rank_k_information(Pe, H, lam, None)
            else:
                Ke = _rank_k_woodbury(Pe, H, lam, gain, None)
            assert np.array_equal(Pa, Pe), (k, gain)
            assert np.array_equal(Ka, Ke), (k, gain)

    def test_work_reuse_bit_identical(self):
        rng = np.random.default_rng(2)
        d = 6
        work = {}
        for k in (20, 9, 20):
            P0 = np.eye(d) + 0.05 * np.ones((d, d))
            H = rng.normal(size=(k, d))
            Pa, Pb = P0.copy(), P0.copy()
            Ka = rank_k_update(Pa, H, gain="batch", work=work)  # k > d
            Kb = rank_k_update(Pb, H, gain="batch", work={})
            assert np.array_equal(Pa, Pb)
            assert np.array_equal(Ka, Kb)
