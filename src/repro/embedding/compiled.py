"""Compiled (numba-JIT) training kernels — the ``"compiled"`` seam.

The paper's premise is that sequential OS-ELM training is bottlenecked by
software overhead the hardware removes; the execution-backend registry
(:mod:`repro.embedding.kernels`) made that seam explicit, and this module
fills it in software: the ``"reference"`` backend's per-walk loops —
Algorithm 1's per-context RLS recursion and the SGD baseline's per-window
updates — rewritten as ``@njit(cache=True)`` kernels with **no objmode in
the hot path**.

Bit-exactness contract
----------------------
Every training kernel here reproduces the ``"reference"`` semantics
**bit-exactly**: the golden sha256 regressions of
``tests/parallel/test_streaming.py`` must pass verbatim under
``exec_backend="compiled"``.  Two disciplines make that possible:

* **RNG order** — kernels never draw randomness.  Negatives arrive
  pre-drawn from Python in the reference per-walk order
  (:class:`~repro.embedding.kernels.CompiledKernel` inherits
  ``ReferenceKernel.draw_negatives``).
* **float64 update order** — reductions that NumPy routes through BLAS
  (``rows @ h``, ``P @ H``, ``H @ Ph``) stay array-level ``np.dot`` calls
  (numba lowers them to the same BLAS), while everything NumPy executes
  elementwise (sigmoid, outer-product downdate, ordered ``np.add.at``
  scatters) is written as scalar loops in the exact accumulation order
  NumPy documents.  ``np.add.at`` accumulates duplicate indices in index
  order, which is precisely a sequential loop over rows.

The kernels are deliberately written in the numba-compatible subset of
Python/NumPy so that they also *run unchanged as plain Python*
(``py_func(kernel)``): the test suite pins the golden hashes through the
pure-Python forms on numba-free hosts, and the numba CI leg pins the same
hashes through the JIT — so a BLAS/libm divergence on any platform fails
loudly instead of silently drifting.

numba is an optional extra (``pip install .[perf]``, ``numba>=0.59``).
When it is absent, :data:`NUMBA_AVAILABLE` is False, :func:`_jit` is the
identity, and the ``"compiled"`` registry entry falls back to the
bit-identical ``"reference"`` path with a one-time :class:`RuntimeWarning`
(:func:`warn_fallback`).

This module imports nothing from the rest of :mod:`repro` (only numpy and,
optionally, numba) so the kernel registry can import it without cycles.
"""

from __future__ import annotations

# reprolint: kernel-module — hot-loop allocation and dtype discipline are
# enforced here (tools/reprolint; see README "Static analysis & typing")

import warnings

import numpy as np

try:  # optional perf extra: pip install .[perf]
    import numba

    NUMBA_AVAILABLE = True
except ImportError:  # pragma: no cover - exercised on numba-free CI legs
    numba = None  # type: ignore[assignment]
    NUMBA_AVAILABLE = False

__all__ = [
    "NUMBA_AVAILABLE",
    "oselm_walk",
    "py_func",
    "sgd_walk",
    "warn_fallback",
]

#: gain-denominator floor of the literal Algorithm 1 line 5 — must equal
#: ``repro.embedding.sequential._EPS`` (kept as a literal so this module
#: imports nothing from the model layer; a test pins the equality)
_EPS = 1e-12


def _jit(func):
    """``numba.njit(cache=True)`` when numba is importable, else identity.

    Identity (not a stub) on numba-free hosts: the kernels are written in
    the numba subset, so the undecorated Python functions execute the same
    arithmetic — that is what the fallback tests and ``mode="python"`` run.
    """
    if numba is not None:
        return numba.njit(cache=True)(func)
    return func


def py_func(kernel):
    """The pure-Python form of a kernel: ``kernel.py_func`` under numba
    (the Dispatcher keeps the original), the kernel itself otherwise."""
    return getattr(kernel, "py_func", kernel)


_FALLBACK_WARNED = False


def warn_fallback() -> None:
    """One-time (per process) warning that ``"compiled"`` is running as
    ``"reference"`` because numba is absent.

    A :class:`RuntimeWarning` — deliberately not a ``DeprecationWarning``,
    which the config layer reserves for conflicting-knob reports — emitted
    on the first fallback construction only, so a pipeline that builds many
    kernel instances warns exactly once.
    """
    global _FALLBACK_WARNED
    if _FALLBACK_WARNED:
        return
    _FALLBACK_WARNED = True
    warnings.warn(
        'exec_backend="compiled" requires numba (install the perf extra: '
        "pip install .[perf], numba>=0.59); falling back to the "
        'bit-identical "reference" kernels for this process',
        RuntimeWarning,
        stacklevel=3,
    )


# ---------------------------------------------------------------------------#
# scalar helpers
# ---------------------------------------------------------------------------#


@_jit
def _sigmoid_scalar(x: float) -> float:
    # the scalar form of skipgram._sigmoid's numerically stable two-sided
    # formulation; branch structure (and therefore rounding) identical
    if x >= 0.0:
        return 1.0 / (1.0 + np.exp(-x))
    e = np.exp(x)
    return e / (1.0 + e)


# ---------------------------------------------------------------------------#
# SGD skip-gram: one walk of the reference per-window loop
# ---------------------------------------------------------------------------#


@_jit
def sgd_walk(w_in, w_out, lr, centers, positives, negatives):
    """One walk of ``SkipGramSGD.train_walk``, bit-exact.

    Per context *i*, per positive *j* (one window): the sample row is
    ``[positives[i, j], negatives[i, :]]`` and the update replays
    ``train_pair`` exactly — BLAS ``np.dot`` for the forward scores and the
    hidden gradient (what ``rows @ h`` / ``g @ rows`` lower to), scalar
    loops in ``np.add.at`` index order for the scatters.
    """
    C, J = positives.shape
    ns = negatives.shape[1]
    d = w_in.shape[1]
    k = 1 + ns
    samples = np.empty(k, np.int64)
    g = np.empty(k, np.float64)
    for i in range(C):
        samples[1:] = negatives[i]
        c = centers[i]
        h = w_in[c]  # view: window j+1 sees window j's w_in update
        for j in range(J):
            samples[0] = positives[i, j]
            rows = w_out[samples]  # (k, d) gather, copy
            scores = np.dot(rows, h)
            g[0] = lr * (1.0 - _sigmoid_scalar(scores[0]))
            for t in range(1, k):
                g[t] = lr * (0.0 - _sigmoid_scalar(scores[t]))
            grad_h = np.dot(g, rows)  # accumulate before rows change
            for t in range(k):
                r = samples[t]
                gt = g[t]
                for e in range(d):
                    w_out[r, e] += gt * h[e]
            for e in range(d):
                w_in[c, e] += grad_h[e]


# ---------------------------------------------------------------------------#
# OS-ELM skip-gram: one walk of Algorithm 1's per-context recursion
# ---------------------------------------------------------------------------#


@_jit
def oselm_walk(
    B, P, mu, lam, tied, alpha, standard, sequential, centers, positives, negatives
):
    """One walk of ``OSELMSkipGram.train_walk``, bit-exact for both
    duplicate policies, both tyings, both denominators and ``lam`` < 1.

    The RLS recursion stays sequential (context *i* reads the ``P``/``B``
    context *i−1* wrote); ``P @ H`` / gathers stay BLAS ``np.dot``; the
    rank-1 ``P`` downdate and the β scatter are scalar loops in the exact
    elementwise/``np.add.at`` order of the reference.
    """
    C, J = positives.shape
    ns = negatives.shape[1]
    d = B.shape[1]
    m = J * (1 + ns)
    H = np.empty(d, np.float64)
    samples = np.empty(m, np.int64)
    targets = np.empty(m, np.float64)
    targets[:J] = 1.0
    targets[J:] = 0.0
    for i in range(C):
        c = centers[i]
        if tied:
            for e in range(d):  # H = mu * B[c]: context-start copy
                H[e] = mu * B[c, e]
        else:
            for e in range(d):
                H[e] = alpha[c, e]
        Ph = np.dot(P, H)
        hph = np.dot(H, Ph)
        if standard:
            denom = lam + hph
        else:  # literal Algorithm 1 line 5
            denom = hph if abs(hph) > _EPS else _EPS
        gain = Ph / denom
        for a in range(d):  # P -= outer(gain, Ph), elementwise order
            ga = gain[a]
            for b in range(d):
                P[a, b] -= ga * Ph[b]
        if lam != 1.0:
            for a in range(d):
                for b in range(d):
                    P[a, b] /= lam
        if sequential:
            for j in range(J):
                p = positives[i, j]
                err = 1.0 - np.dot(H, B[p])
                for e in range(d):
                    B[p, e] += gain[e] * err
                for q in range(ns):
                    ng = negatives[i, q]
                    err = 0.0 - np.dot(H, B[ng])
                    for e in range(d):
                        B[ng, e] += gain[e] * err
        else:
            # batched policy: [positives, negatives tiled J times], errors
            # against context-start B, then the ordered scatter
            samples[:J] = positives[i]
            for j in range(J):
                for q in range(ns):
                    samples[J + j * ns + q] = negatives[i, q]
            errs = targets - np.dot(B[samples], H)
            for t in range(m):
                r = samples[t]
                et = errs[t]
                for e in range(d):
                    B[r, e] += et * gain[e]
