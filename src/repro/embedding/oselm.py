"""OS-ELM — Online Sequential Extreme Learning Machine (Liang et al. [6]).

The substrate the paper's proposed model is built on (§2.3, Figure 3): a
single-hidden-layer network whose input-side weights ``α`` are fixed random
and whose output-side weights ``β`` are the *recursive least squares* (RLS)
solution, updated one sample (or mini-batch) at a time:

    H_i = G(x_i α + b)
    P_i = P_{i-1} − P_{i-1} H_iᵀ (I + H_i P_{i-1} H_iᵀ)^{-1} H_i P_{i-1}
    β_i = β_{i-1} + P_i H_iᵀ (t_i − H_i β_{i-1})

The sequential solution equals the batch ridge-regression solution
``β = (Hᵀ H + λI)^{-1} Hᵀ T`` when ``P_0 = λ^{-1} I`` — the key invariant the
test suite verifies (this is why OS-ELM avoids catastrophic forgetting: every
update is exact w.r.t. *all* data seen so far, not a gradient step).

:func:`rank_k_update` is the one rank-k block step behind the mini-batch
:meth:`OSELM.partial_fit` path, the ``"blocked"`` execution backend
(:mod:`repro.embedding.kernels`) and the span-deferred
:class:`~repro.embedding.batch_rls.BatchRLSSkipGram`.  For walk-sized
blocks it is one Cholesky factorization of the k×k ``S = λI + H P Hᵀ``
with the covariance update applied in square-root form (``P − XᵀX`` stays
symmetric positive semi-definite by construction), and a gain matrix in
either the *batch* form ``K = P Hᵀ S⁻¹`` or the *sequential* form whose
column *i* equals the gain the rank-1 recursion would have produced at
step *i* — the identity the blocked kernel's exactness contract rests on.
Batch-gain blocks wider than the hidden layer take the equivalent d×d
information form instead.
"""

from __future__ import annotations

# reprolint: kernel-module — hot-loop allocation and dtype discipline are
# enforced here (tools/reprolint; see README "Static analysis & typing")

import functools

import numpy as np
from scipy.linalg.lapack import dpotrf, dtrtrs

from repro.utils.rng import as_generator
from repro.utils.validation import check_in_set, check_positive

__all__ = ["OSELM", "rank_k_update"]

#: rank-1 updates between two cheap ``P ← (P + Pᵀ)/2`` re-symmetrizations
#: (exact arithmetic keeps P symmetric; the ``np.outer`` subtraction leaks
#: eps-level asymmetry that compounds over unbounded deployments — the
#: long-run drift test pins the symmetrized recursion)
_SYM_PERIOD = 64


def _work_buf(work: dict | None, key: str, shape: tuple,
              dtype: type = np.float64) -> np.ndarray:
    """A ``shape`` scratch array from ``work``, or a fresh allocation when
    no work dict is supplied.  The buffer is reallocated when a trailing
    dimension changes or ``shape[0]`` outgrows it; a shorter request gets
    its leading rows (chunks vary in context count)."""
    if work is None:
        return np.empty(shape, dtype=dtype)
    buf = work.get(key)
    if buf is None or buf.shape[0] < shape[0] or buf.shape[1:] != shape[1:]:
        buf = np.empty(shape, dtype=dtype)
        work[key] = buf
    return buf[: shape[0]]


@functools.cache
def _eye(d: int) -> np.ndarray:
    """A shared read-only d×d identity (the right-hand side of the
    information form's triangular inversions)."""
    eye = np.eye(d, dtype=np.float64)
    eye.flags.writeable = False
    return eye


def rank_k_update(P: np.ndarray, H: np.ndarray, *, lam: float = 1.0,
                  gain: str = "batch", work: dict | None = None) -> np.ndarray:
    """One rank-k RLS covariance update, in place; returns the (d, k) gain.

    The solve form follows from the inputs: the d×d information form
    (:func:`_rank_k_information`) when ``gain="batch"`` and k > d — the
    crossover where the d×d route wins — and otherwise the k×k Woodbury
    form (:func:`_rank_k_woodbury`).  Both compute the same update; only
    floating-point reassociation differs.

    gain:
        ``"batch"`` — ``K = P Hᵀ S⁻¹`` with ``S = λ·I_k + H P Hᵀ`` (and the
        *pre-update* ``P``): the OS-ELM mini-batch gain of [6], exact when
        every output sees all k targets, i.e. the full ``β += K (T − H β)``
        update of :meth:`OSELM.partial_fit`.

        ``"sequential"`` — column *i* equals the gain ``k_i`` the rank-1
        recursion (Algorithm 1 lines 3–7) would have produced at step *i*.
        Reading ``S = L̃ D L̃ᵀ`` (unit-lower ``L̃``, ``D = diag(L)²``), the
        sequential gains are ``P Hᵀ L̃⁻ᵀ D⁻¹ = Xᵀ / diag(L)``.  This is the
        gain to *scatter* with when each output column sees only its own
        step's target (the skip-gram per-sample update of the ``"blocked"``
        kernel): the batch ``K`` would couple steps through ``S⁻¹``'s
        off-diagonal and break the sequential equivalence.  Sequential
        gains live in the Woodbury factor's diagonal, so they always take
        the Woodbury form.

    work:
        optional dict of named scratch buffers reused across calls
        (span-sized: reallocated only when k or d changes).  The returned
        gain may itself be a ``work`` buffer — it is valid until the next
        call with the same dict.  ``None`` allocates fresh (bit-identical
        results either way).

    With ``lam < 1`` (FOS-ELM forgetting) the ``1/λ`` rescaling is applied
    once per block — callers that need per-step forgetting must use k = 1.
    """
    check_in_set("gain", gain, ("batch", "sequential"))
    if gain == "batch" and H.shape[0] > H.shape[1]:
        return _rank_k_information(P, H, lam, work)
    return _rank_k_woodbury(P, H, lam, gain, work)


def _lapack(result: tuple[np.ndarray, int]) -> np.ndarray:
    """The array of a LAPACK ``(array, info)`` return.  A failed
    factorization raises :class:`numpy.linalg.LinAlgError`, as
    :func:`numpy.linalg.cholesky` does."""
    out, info = result
    if info:
        raise np.linalg.LinAlgError(
            f"LAPACK info={info}: matrix not positive definite or singular"
        )
    return out


def _rank_k_woodbury(P: np.ndarray, H: np.ndarray, lam: float, gain: str,
                     work: dict | None) -> np.ndarray:
    """The Woodbury rank-k step (see :func:`rank_k_update`).

    Factorizes ``S = λ·I_k + H P Hᵀ`` (SPD for ``λ > 0``, ``P ⪰ 0``) by
    Cholesky ``S = L Lᵀ`` and applies the downdate in square-root form —
    ``X = L⁻¹ H P``, ``P ← (P − Xᵀ X)/λ`` — which needs no explicit inverse
    (two triangular solves replace ``inv(S)``) and keeps ``P`` symmetric by
    construction.  O(k³ + k·d²): the right tool while blocks stay
    walk-sized (k ≲ d).  ``X`` and the returned gain live in the ``G``
    buffer.
    """
    k, d = H.shape
    G = _work_buf(work, "G", (d, k))
    np.matmul(P, H.T, out=G)                        # (d, k)
    S = _work_buf(work, "S", (k, k))
    np.matmul(H, G, out=S)
    S.ravel()[:: k + 1] += lam
    L = _lapack(dpotrf(S, lower=1, clean=0))        # upper triangle unused
    X = _lapack(dtrtrs(L, G.T, lower=1, overwrite_b=1))  # (k, d) = L⁻¹ H P
    XtX = _work_buf(work, "XtX", (d, d))
    np.matmul(X.T, X, out=XtX)
    P -= XtX
    if lam != 1.0:
        P /= lam
    if gain == "sequential":
        return np.divide(X.T, L.diagonal(), out=X.T)
    # (L⁻ᵀ X)ᵀ = G S⁻¹
    return _lapack(dtrtrs(L, X, lower=1, trans=1, overwrite_b=1)).T


def _rank_k_information(P: np.ndarray, H: np.ndarray, lam: float,
                        work: dict | None) -> np.ndarray:
    """The information-form rank-k step (see :func:`rank_k_update`).

    ``P ← (λ·P⁻¹ + Hᵀ H)⁻¹`` via two d×d Choleskys, returning the batch
    gain through the identity ``P_pre Hᵀ S⁻¹ = P_post Hᵀ`` (expand
    ``P_post`` by Woodbury to see it).  O(k·d² + d³) with **no** k×k
    matrix — the only tractable route for the chunk-scale spans of
    :class:`~repro.embedding.batch_rls.BatchRLSSkipGram` (k ≫ d, where
    ``S`` alone would be k² floats).

    ``A = λ·P⁻¹ + Hᵀ H`` assembles from one Cholesky of ``P`` (so ``P``
    must be strictly PD — true by construction here: every update writes
    ``P = Zᵀ Z + SPD correction``); ``P ← A⁻¹`` comes out of a second
    Cholesky as ``Zᵀ Z`` (symmetric PD by construction, like the square-root
    downdate); the gain is one (d, k) GEMM ``K = P_post Hᵀ``.

    The two factorizations stay with :func:`numpy.linalg.cholesky`: they
    run once per span, where call overhead is moot, and numpy's and scipy's
    wheels each bundle their own OpenBLAS, whose ``potrf`` results can
    differ in the last bit — numpy's factor keeps span-trained tables
    independent of the scipy build.
    """
    d = P.shape[0]
    eye = _eye(d)
    Y = _lapack(dtrtrs(np.linalg.cholesky(P), eye, lower=1))  # P⁻¹ = Yᵀ Y
    A = _work_buf(work, "A", (d, d))
    np.matmul(Y.T, Y, out=A)
    if lam != 1.0:
        A *= lam
    HtH = _work_buf(work, "HtH", (d, d))
    np.matmul(H.T, H, out=HtH)
    A += HtH
    Z = _lapack(dtrtrs(np.linalg.cholesky(A), eye, lower=1))  # A⁻¹ = Zᵀ Z
    np.matmul(Z.T, Z, out=P)                        # P ← P_post, symmetric
    K = _work_buf(work, "K", (d, H.shape[0]))
    np.matmul(P, H.T, out=K)
    return K

_ACTIVATIONS = {
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-np.clip(x, -60, 60))),
    "tanh": np.tanh,
    "relu": lambda x: np.maximum(x, 0.0),
    "linear": lambda x: x,
}


class OSELM:
    """Generic OS-ELM regressor/classifier.

    Parameters
    ----------
    n_inputs, n_hidden, n_outputs:
        layer dimensions (n, N, m in Figure 3).
    activation:
        hidden activation G: 'sigmoid' | 'tanh' | 'relu' | 'linear'.
    reg:
        ridge parameter λ > 0; ``P_0 = λ^{-1} I``.
    seed:
        stream for the random input weights and biases.
    """

    def __init__(
        self,
        n_inputs: int,
        n_hidden: int,
        n_outputs: int,
        *,
        activation: str = "sigmoid",
        reg: float = 1e-3,
        seed=None,
    ):
        check_positive("n_inputs", n_inputs, integer=True)
        check_positive("n_hidden", n_hidden, integer=True)
        check_positive("n_outputs", n_outputs, integer=True)
        check_positive("reg", reg)
        check_in_set("activation", activation, tuple(_ACTIVATIONS))
        self.n_inputs = int(n_inputs)
        self.n_hidden = int(n_hidden)
        self.n_outputs = int(n_outputs)
        self.activation = activation
        self.reg = float(reg)

        rng = as_generator(seed)
        self.alpha = rng.uniform(-1.0, 1.0, size=(n_inputs, n_hidden))
        self.bias = rng.uniform(-1.0, 1.0, size=n_hidden)
        self.beta = np.zeros((n_hidden, n_outputs), dtype=np.float64)
        self.P = np.eye(n_hidden, dtype=np.float64) / self.reg
        self.n_seen = 0
        # reusable scratch for the rank-1 fast path: the per-sample outer
        # products land here instead of allocating two temporaries per update
        self._scratch_P = np.empty((n_hidden, n_hidden), dtype=np.float64)
        self._scratch_beta = np.empty((n_hidden, n_outputs), dtype=np.float64)
        self._since_sym = 0

    # ------------------------------------------------------------------ #

    def hidden(self, X: np.ndarray) -> np.ndarray:
        """Hidden-layer activations H = G(Xα + b) for a (k, n_inputs) batch."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != self.n_inputs:
            raise ValueError(f"expected {self.n_inputs} input features, got {X.shape[1]}")
        return _ACTIVATIONS[self.activation](X @ self.alpha + self.bias)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Network outputs y = H β (linear output layer, as in [6])."""
        return self.hidden(X) @ self.beta

    # ------------------------------------------------------------------ #

    def init_train(self, X0: np.ndarray, T0: np.ndarray) -> None:
        """Initialization phase of [6] on a batch (must come first if used).

        Computes ``P_0 = (H_0ᵀ H_0 + λI)^{-1}`` and ``β_0 = P_0 H_0ᵀ T_0``.
        Optional: constructing the model already initializes ``P = λ^{-1} I``,
        so purely sequential training works from the first sample.
        """
        if self.n_seen:
            raise RuntimeError("init_train must precede any sequential updates")
        H0 = self.hidden(X0)
        T0 = np.atleast_2d(np.asarray(T0, dtype=np.float64))
        if T0.shape != (H0.shape[0], self.n_outputs):
            raise ValueError(
                f"targets must be ({H0.shape[0]}, {self.n_outputs}), got {T0.shape}"
            )
        A = H0.T @ H0 + self.reg * np.eye(self.n_hidden, dtype=np.float64)
        self.P = np.linalg.inv(A)
        self.beta = self.P @ (H0.T @ T0)
        self.n_seen = H0.shape[0]

    def partial_fit(self, X: np.ndarray, T: np.ndarray) -> None:
        """Sequential phase: one RLS update on a (k, ·) batch (k ≥ 1)."""
        H = self.hidden(X)
        T = np.atleast_2d(np.asarray(T, dtype=np.float64))
        if T.shape != (H.shape[0], self.n_outputs):
            raise ValueError(
                f"targets must be ({H.shape[0]}, {self.n_outputs}), got {T.shape}"
            )
        k = H.shape[0]
        if k == 1:
            # rank-1 fast path — the form the paper's accelerator implements;
            # the outer products write into preallocated scratch (zero
            # per-update temporaries beyond the matvec results)
            h = H[0]
            Ph = self.P @ h
            denom = 1.0 + h @ Ph
            kgain = Ph / denom
            np.multiply.outer(kgain, Ph, out=self._scratch_P)
            self.P -= self._scratch_P
            np.multiply.outer(kgain, T[0] - h @ self.beta, out=self._scratch_beta)
            self.beta += self._scratch_beta
        else:
            # rank-k block step: Cholesky + triangular solves (no explicit
            # inverse), P symmetric by construction; batches wider than
            # n_hidden take the d×d information form
            K = rank_k_update(self.P, H, gain="batch")
            self.beta += K @ (T - H @ self.beta)
        self.n_seen += k
        # the rank-1 outer subtraction leaks eps-level asymmetry into P;
        # re-symmetrize periodically so it cannot compound over unbounded
        # deployments (a bitwise no-op whenever P is already symmetric)
        self._since_sym += 1
        if self._since_sym >= _SYM_PERIOD:
            self._since_sym = 0
            self.P[:] = (self.P + self.P.T) * 0.5

    def fit_sequential(self, X: np.ndarray, T: np.ndarray, *, chunk: int = 1) -> None:
        """Stream a dataset through :meth:`partial_fit` in ``chunk``-sized
        batches (convenience for tests/examples)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        T = np.atleast_2d(np.asarray(T, dtype=np.float64))
        for lo in range(0, X.shape[0], chunk):
            self.partial_fit(X[lo : lo + chunk], T[lo : lo + chunk])

    def batch_solution(self, X: np.ndarray, T: np.ndarray) -> np.ndarray:
        """The closed-form ridge solution on (X, T) — the invariant that
        sequential training must reproduce (used by tests)."""
        H = self.hidden(X)
        T = np.atleast_2d(np.asarray(T, dtype=np.float64))
        A = H.T @ H + self.reg * np.eye(self.n_hidden, dtype=np.float64)
        return np.linalg.solve(A, H.T @ T)

    def __repr__(self) -> str:
        return (
            f"OSELM(n_inputs={self.n_inputs}, n_hidden={self.n_hidden}, "
            f"n_outputs={self.n_outputs}, activation={self.activation!r})"
        )
