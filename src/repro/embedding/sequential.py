"""The proposed model: OS-ELM-based sequentially-trainable skip-gram
(paper §3.1, Algorithm 1).

State
-----
``B`` — an (n_nodes, dim) matrix holding βᵀ.  The paper stores β ∈ R^{N×m}
column-per-node; we store the transpose so node access is a contiguous *row*
(guides: contiguous beats strided).  ``B[v]`` is node v's embedding — the
paper's key trick is that β doubles as the input-side weights ("we utilize
the trainable weights of OS-ELM (i.e., β) to build the input-side weights as
in [15]"), scaled by µ.

``P`` — the (dim, dim) RLS inverse-covariance.

Per-context update (Algorithm 1, one iteration of the outer loop)
-----------------------------------------------------------------
    H   = µ · B[center]                       (line 2)
    Ph  = P H                                 (line 3)
    hph = H·Ph                                (line 4)
    P  ← P − Ph Phᵀ / (δ + hph)               (lines 5–6)
    k   = P H = Ph / (δ + hph)                (line 7)
    for each window (= positive), itr = 1..ns+1:          (lines 8–13)
        s, t = (positive, 1) or (negative, 0)
        e = t − H·B[s]                        (line 14)
        B[s] ← B[s] + k·e                     (line 15)

δ is the RLS regularizer: δ=1 is the standard OS-ELM/RLS form [6, 7]
(``denominator="standard"``, default).  Algorithm 1 line 5 as printed omits
the +1 (``denominator="paper"``); note that under the literal reading
P_i Hᵀ = 0 after the update, so line 15 would never change β — strong
evidence the +1 is a typo.  The "paper" mode therefore interprets line 7's
gain as Ph/hph (pre-deflation), which the ablation bench shows is unstable.

Weight tying
------------
``weight_tying="beta"`` reproduces the proposed model.  ``"alpha"`` keeps a
fixed random input-weight matrix as in original OS-ELM — the baseline curve
of Figure 7 ("alpha").  In both cases the embedding read out is B (= βᵀ).
"""

from __future__ import annotations

# reprolint: kernel-module — hot-loop allocation and dtype discipline are
# enforced here (tools/reprolint; see README "Static analysis & typing")

import numpy as np

from repro.embedding.base import EmbeddingModel, check_exec_backend
from repro.hw.opcount import OpCount
from repro.sampling.corpus import WalkContexts
from repro.utils.rng import as_generator
from repro.utils.validation import check_in_set, check_positive

__all__ = ["OSELMSkipGram"]

_EPS = 1e-12


class OSELMSkipGram(EmbeddingModel):
    """Algorithm 1 — the proposed sequentially-trainable model.

    Parameters
    ----------
    n_nodes, dim:
        geometry; dim is the hidden width N (= embedding dimensions).
    mu:
        scale factor µ transforming β into the input-side weights
        (Figure 7 sweeps it; 0.005–0.1 is the paper's sweet spot).
    p0:
        initial P = p0·I.  This is 1/λ of ridge regression: larger p0 →
        faster early learning, less regularization.
    init_scale:
        std-dev of the random initialization of B.  The tied model needs
        B ≠ 0 (H = µ·B[center] would otherwise be identically zero).
    weight_tying:
        ``"beta"`` (proposed) or ``"alpha"`` (fixed random input weights).
    denominator:
        ``"standard"`` (δ=1) or ``"paper"`` (literal Algorithm 1, unstable).
    duplicate_policy:
        ``"batched"`` — errors of all samples in a context are computed
        against the context's starting β, then scatter-added (vectorized;
        exact unless one node is sampled twice *within* a context);
        ``"sequential"`` — the literal per-sample loop of lines 9–15.
        Tests verify the two agree to float tolerance on duplicate-free
        contexts.
    forgetting_factor:
        λ ∈ (0, 1] — FOS-ELM-style exponential forgetting (RLS with
        forgetting factor): ``denom = λ + H P Hᵀ`` and ``P ← (P − k Phᵀ)/λ``.
        λ = 1 (default) is the paper's Algorithm 1 exactly.  λ < 1 keeps the
        RLS gain from decaying to zero over unbounded deployments — an
        extension for the IoT always-on setting (ablation E-A6 quantifies
        it on the "seq" scenario).
    exec_backend:
        preferred chunk-execution backend
        (:data:`repro.embedding.kernels.EXEC_REGISTRY` name); travels with
        checkpoints.
    """

    def __init__(
        self,
        n_nodes: int,
        dim: int,
        *,
        mu: float = 0.01,
        p0: float = 1.0,
        init_scale: float = 0.1,
        weight_tying: str = "beta",
        denominator: str = "standard",
        duplicate_policy: str = "batched",
        forgetting_factor: float = 1.0,
        exec_backend: str = "reference",
        seed=None,
    ):
        check_positive("n_nodes", n_nodes, integer=True)
        check_positive("dim", dim, integer=True)
        check_positive("mu", mu)
        check_positive("p0", p0)
        check_positive("init_scale", init_scale)
        check_in_set("weight_tying", weight_tying, ("beta", "alpha"))
        check_in_set("denominator", denominator, ("standard", "paper"))
        check_in_set("duplicate_policy", duplicate_policy, ("batched", "sequential"))
        if not 0.0 < forgetting_factor <= 1.0:
            raise ValueError(
                f"forgetting_factor must be in (0, 1], got {forgetting_factor}"
            )
        check_exec_backend(exec_backend)
        self.exec_backend = exec_backend
        self.n_nodes = int(n_nodes)
        self.dim = int(dim)
        self.mu = float(mu)
        self.p0 = float(p0)
        self.weight_tying = weight_tying
        self.denominator = denominator
        self.duplicate_policy = duplicate_policy
        self.forgetting_factor = float(forgetting_factor)

        rng = as_generator(seed)
        self.B = rng.normal(0.0, init_scale, size=(n_nodes, dim))
        self.P = np.eye(dim, dtype=np.float64) * self.p0
        self._alpha = None
        if weight_tying == "alpha":
            # original OS-ELM: fixed random input weights; one row per node
            # because the input is one-hot (H = row of α).
            self._alpha = rng.uniform(-1.0, 1.0, size=(n_nodes, dim))
        self.n_walks_trained = 0
        # reusable per-context buffers (allocation reuse only, never carried
        # state): the gain's outer product lands in _scratch_P, and the
        # batched duplicate policy's sample/target assembly in _ctx_samples /
        # _ctx_targets (keyed by (n_pos, ns) — same m can split differently)
        self._scratch_P = np.empty((dim, dim), dtype=np.float64)
        self._ctx_samples = np.empty(0, dtype=np.int64)
        self._ctx_targets = np.empty(0, dtype=np.float64)
        self._ctx_shape = (0, 0)
        #: named scratch buffers of the chunk kernels and the rank-k solver
        #: (:mod:`repro.embedding.kernels`), reused across chunks
        self._work: dict = {}

    # ------------------------------------------------------------------ #

    @property
    def embedding(self) -> np.ndarray:
        """The graph embedding: βᵀ rows (§3.1 — β is reused as the
        input-side weights, so it *is* the representation)."""
        return self.B.copy()

    def embedding_view(self) -> np.ndarray:
        """β as a read-only zero-copy view (the store publish path)."""
        view = self.B.view()
        view.flags.writeable = False
        return view

    def hidden(self, center: int) -> np.ndarray:
        """H for one center node (Algorithm 1 line 2)."""
        if self.weight_tying == "beta":
            return self.mu * self.B[center]
        return self._alpha[center]

    def hidden_batch(
        self, centers: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """H rows for a batch of center nodes, read against the *current*
        ``B`` — Algorithm 1 line 2 as one ``µ·B[centers]`` gather.

        This is the walk-start (or block-start) hidden gather shared by the
        deferred models (:class:`~repro.embedding.dataflow.DataflowOSELMSkipGram`,
        :class:`~repro.embedding.batch_rls.BatchRLSSkipGram`) and the
        ``"blocked"`` execution kernel: under ``"beta"`` tying the rows go
        stale as ``B`` is updated behind them (the documented drift source),
        under ``"alpha"`` tying they are exact (α is fixed).

        ``out`` (optional, float64, shape ``(len(centers), dim)``) receives
        the gather in place — the span-entry buffer-reuse seam for callers
        that gather once per deferred span
        (:class:`~repro.embedding.batch_rls.BatchRLSSkipGram`): contents are
        fully rewritten, so reuse is bit-identical to a fresh allocation.
        """
        if self.weight_tying == "beta":
            # take(out=...) buffers its output; the plain gather is faster
            return np.multiply(self.B[centers], self.mu, out=out)
        return np.take(self._alpha, centers, axis=0, out=out)

    def _gain(self, H: np.ndarray) -> np.ndarray:
        """Update P in place; return the gain k = P_i Hᵀ (lines 3–7).

        With λ = forgetting_factor < 1 this is RLS-with-forgetting:
        ``k = Ph/(λ + hph)``, ``P ← (P − k Phᵀ)/λ``.
        """
        lam = self.forgetting_factor
        Ph = self.P @ H
        hph = float(H @ Ph)
        if self.denominator == "standard":
            denom = lam + hph
        else:  # literal Algorithm 1 line 5
            denom = hph if abs(hph) > _EPS else _EPS
        k = Ph / denom
        # outer product into preallocated scratch: same bits as
        # ``P -= np.outer(k, Ph)`` without the per-context temporary.  (No
        # periodic re-symmetrization here: the reference path is pinned
        # bit-for-bit by the golden regressions; the generic OSELM and the
        # blocked kernel, which own their tolerance contracts, symmetrize.)
        np.multiply.outer(k, Ph, out=self._scratch_P)
        self.P -= self._scratch_P
        if lam != 1.0:
            self.P /= lam
        return k  # standard mode: equals P_i H exactly (module docstring)

    def train_context(
        self, center: int, positives: np.ndarray, negatives: np.ndarray
    ) -> None:
        """One iteration of Algorithm 1's outer loop."""
        H = self.hidden(int(center))
        k = self._gain(H)
        positives = np.asarray(positives, dtype=np.int64)
        negatives = np.asarray(negatives, dtype=np.int64)
        n_pos, ns = positives.shape[0], negatives.shape[0]

        if self.duplicate_policy == "sequential":
            for pos in positives:
                e = 1.0 - H @ self.B[pos]
                self.B[pos] += k * e
                for neg in negatives:
                    e = 0.0 - H @ self.B[neg]
                    self.B[neg] += k * e
            return

        # batched: all (1 + ns) samples of all windows against the
        # context-start B, scatter-added (duplicates accumulate).  The
        # sample/target assembly is written into reusable buffers (the same
        # hoisting SkipGramSGD's window buffers got): contents are fully
        # rewritten per context, so reuse cannot change any result.
        m = n_pos * (1 + ns)
        if self._ctx_shape != (n_pos, ns):
            self._ctx_shape = (n_pos, ns)
            self._ctx_samples = np.empty(m, dtype=np.int64)
            self._ctx_targets = np.empty(m, dtype=np.float64)
            self._ctx_targets[:n_pos] = 1.0
            self._ctx_targets[n_pos:] = 0.0
        samples = self._ctx_samples
        samples[:n_pos] = positives
        samples[n_pos:].reshape(n_pos, ns)[:] = negatives[None, :]
        errs = self._ctx_targets - self.B[samples] @ H
        np.add.at(self.B, samples, errs[:, None] * k[None, :])

    def train_walk(self, contexts: WalkContexts, negatives: np.ndarray) -> None:
        negatives = self._check_walk_inputs(contexts, negatives)
        for i in range(contexts.n):
            self.train_context(
                int(contexts.centers[i]), contexts.positives[i], negatives[i]
            )
        self.n_walks_trained += 1

    # ------------------------------------------------------------------ #

    @classmethod
    def op_profile(
        cls, dim: int, n_contexts: int, n_positives: int, n_negatives: int
    ) -> OpCount:
        """Per-walk op counts for Algorithm 1.

        Per context: H extraction (d MACs for µ·β), Ph (d² MACs),
        hph (d MACs), gain (1 div + d MACs), P update (d² MACs).
        Per sample: error dot (d MACs) + row update (d MACs).
        """
        samples = n_contexts * n_positives * (1 + n_negatives)
        return OpCount(
            mac=n_contexts * (2.0 * dim * dim + 3.0 * dim) + 2.0 * dim * samples,
            div=float(n_contexts),
            rng=float(n_contexts * n_negatives),
            mem=2.0 * dim * samples + 2.0 * dim * dim * n_contexts,
            ctx=float(n_contexts),
            win=float(n_contexts * n_positives),
            walk=1.0,
        )

    def state_bytes(self, *, weight_bytes: int | None = None) -> int:
        """β (n·d) + P (d²); α only in the untied Figure 7 baseline.

        Table 5's 'Proposed model' stores fixed-point words on the FPGA; the
        default 4 bytes/weight reflects that (vs 8 for the CPU baseline).
        """
        wb = 4 if weight_bytes is None else weight_bytes
        words = self.n_nodes * self.dim + self.dim * self.dim
        if self.weight_tying == "alpha":
            words += self.n_nodes * self.dim
        return words * wb

    def __repr__(self) -> str:
        return (
            f"OSELMSkipGram(n_nodes={self.n_nodes}, dim={self.dim}, mu={self.mu}, "
            f"tying={self.weight_tying!r}, denominator={self.denominator!r})"
        )
