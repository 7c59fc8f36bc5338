"""Tests for repro.embedding.oselm (the generic OS-ELM substrate [6]).

The load-bearing invariant: sequential RLS updates reproduce the closed-form
ridge-regression solution exactly — this is what makes OS-ELM immune to
catastrophic forgetting and is the foundation of the paper's claim.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.embedding.oselm import OSELM


def make_regression(n=60, n_in=5, n_out=2, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, n_in))
    W = rng.normal(size=(n_in, n_out))
    T = X @ W + 0.05 * rng.normal(size=(n, n_out))
    return X, T


class TestConstruction:
    def test_shapes(self):
        m = OSELM(4, 10, 3, seed=0)
        assert m.alpha.shape == (4, 10)
        assert m.beta.shape == (10, 3)
        assert m.P.shape == (10, 10)

    def test_p0_is_identity_over_reg(self):
        m = OSELM(2, 5, 1, reg=0.5, seed=0)
        assert np.allclose(m.P, np.eye(5) * 2.0)

    def test_invalid_activation(self):
        with pytest.raises(ValueError):
            OSELM(2, 3, 1, activation="swish")

    def test_invalid_reg(self):
        with pytest.raises(ValueError):
            OSELM(2, 3, 1, reg=0.0)

    @pytest.mark.parametrize("act", ["sigmoid", "tanh", "relu", "linear"])
    def test_all_activations_run(self, act):
        m = OSELM(3, 6, 2, activation=act, seed=0)
        X, T = make_regression(10, 3, 2)
        m.partial_fit(X[:1], T[:1])
        assert np.isfinite(m.predict(X)).all()


class TestHidden:
    def test_hidden_shape(self):
        m = OSELM(4, 7, 1, seed=0)
        H = m.hidden(np.zeros((3, 4)))
        assert H.shape == (3, 7)

    def test_sigmoid_range(self):
        m = OSELM(4, 7, 1, activation="sigmoid", seed=0)
        H = m.hidden(np.random.default_rng(0).normal(size=(5, 4)) * 10)
        assert np.all((H >= 0) & (H <= 1))

    def test_wrong_feature_count(self):
        m = OSELM(4, 7, 1, seed=0)
        with pytest.raises(ValueError):
            m.hidden(np.zeros((3, 5)))


class TestSequentialEqualsBatch:
    """The RLS ≡ ridge invariant, in several streaming regimes."""

    @pytest.mark.parametrize("chunk", [1, 3, 60])
    def test_stream_matches_closed_form(self, chunk):
        X, T = make_regression()
        m = OSELM(5, 12, 2, reg=1e-2, seed=1)
        m.fit_sequential(X, T, chunk=chunk)
        assert np.allclose(m.beta, m.batch_solution(X, T), atol=1e-8)

    def test_chunk_size_does_not_matter(self):
        X, T = make_regression()
        a = OSELM(5, 12, 2, reg=1e-2, seed=1)
        b = OSELM(5, 12, 2, reg=1e-2, seed=1)
        a.fit_sequential(X, T, chunk=1)
        b.fit_sequential(X, T, chunk=7)
        assert np.allclose(a.beta, b.beta, atol=1e-8)

    def test_init_then_sequential_matches_batch(self):
        X, T = make_regression()
        m = OSELM(5, 12, 2, reg=1e-2, seed=1)
        m.init_train(X[:20], T[:20])
        m.fit_sequential(X[20:], T[20:], chunk=1)
        assert np.allclose(m.beta, m.batch_solution(X, T), atol=1e-8)

    def test_init_train_alone_is_ridge(self):
        X, T = make_regression()
        m = OSELM(5, 12, 2, reg=1e-1, seed=1)
        m.init_train(X, T)
        assert np.allclose(m.beta, m.batch_solution(X, T), atol=1e-8)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=20, deadline=None)
    def test_property_rls_equals_ridge(self, seed):
        X, T = make_regression(n=30, seed=seed)
        m = OSELM(5, 8, 2, reg=1e-2, seed=seed)
        m.fit_sequential(X, T, chunk=1)
        assert np.allclose(m.beta, m.batch_solution(X, T), atol=1e-6)


class TestSequentialLearning:
    def test_prediction_improves(self):
        X, T = make_regression(n=200, seed=3)
        m = OSELM(5, 24, 2, reg=1e-2, seed=3)
        err0 = np.mean((m.predict(X) - T) ** 2)
        m.fit_sequential(X, T, chunk=1)
        err1 = np.mean((m.predict(X) - T) ** 2)
        assert err1 < 0.2 * err0

    def test_no_catastrophic_forgetting(self):
        """After training on task A then task B sequentially, task A error
        must match the joint batch solution — the property motivating the
        paper's choice of OS-ELM over SGD."""
        XA, TA = make_regression(n=80, seed=4)
        XB, TB = make_regression(n=80, seed=5)
        m = OSELM(5, 16, 2, reg=1e-2, seed=4)
        m.fit_sequential(XA, TA, chunk=1)
        m.fit_sequential(XB, TB, chunk=1)
        joint = m.batch_solution(np.vstack([XA, XB]), np.vstack([TA, TB]))
        assert np.allclose(m.beta, joint, atol=1e-7)

    def test_n_seen_tracked(self):
        X, T = make_regression(n=10)
        m = OSELM(5, 8, 2, seed=0)
        m.fit_sequential(X, T, chunk=4)
        assert m.n_seen == 10


class TestValidation:
    def test_init_after_updates_raises(self):
        X, T = make_regression(n=10)
        m = OSELM(5, 8, 2, seed=0)
        m.partial_fit(X[:1], T[:1])
        with pytest.raises(RuntimeError):
            m.init_train(X, T)

    def test_target_shape_mismatch(self):
        m = OSELM(5, 8, 2, seed=0)
        with pytest.raises(ValueError):
            m.partial_fit(np.zeros((1, 5)), np.zeros((1, 3)))

    def test_init_target_shape_mismatch(self):
        m = OSELM(5, 8, 2, seed=0)
        with pytest.raises(ValueError):
            m.init_train(np.zeros((4, 5)), np.zeros((3, 2)))


class TestRankKHelper:
    """rank_k_update — the shared Woodbury block step behind partial_fit's
    k>1 path and the "blocked" execution kernel."""

    def test_p_update_matches_woodbury_identity(self):
        from repro.embedding.oselm import rank_k_update

        rng = np.random.default_rng(0)
        A = rng.normal(size=(6, 6))
        P0 = A @ A.T / 6 + np.eye(6)
        H = rng.normal(size=(4, 6))
        P = P0.copy()
        rank_k_update(P, H)
        expected = np.linalg.inv(np.linalg.inv(P0) + H.T @ H)
        assert np.allclose(P, expected, atol=1e-10)
        assert np.array_equal(P, P.T)  # square-root form: symmetric bitwise

    def test_batch_gain_matches_explicit_inverse(self):
        from repro.embedding.oselm import rank_k_update

        rng = np.random.default_rng(1)
        P0 = np.eye(5) * 0.3
        H = rng.normal(size=(3, 5))
        K = rank_k_update(P0.copy(), H, gain="batch")
        S = np.eye(3) + H @ (P0 @ H.T)
        assert np.allclose(K, P0 @ H.T @ np.linalg.inv(S), atol=1e-12)

    def test_invalid_gain(self):
        from repro.embedding.oselm import rank_k_update

        with pytest.raises(ValueError, match="gain"):
            rank_k_update(np.eye(3), np.ones((2, 3)), gain="turbo")

    @pytest.mark.parametrize("gain", ("sequential", "batch"))
    def test_indefinite_s_raises_in_woodbury_form(self, gain):
        """k ≤ d takes the Woodbury form: an indefinite P makes
        S = λI + H P Hᵀ indefinite, and the failed LAPACK factorization
        surfaces as numpy's LinAlgError, leaving P untouched."""
        from repro.embedding.oselm import rank_k_update

        P = -10.0 * np.eye(4)
        with pytest.raises(np.linalg.LinAlgError):
            rank_k_update(P, np.ones((2, 4)), gain=gain)
        assert np.array_equal(P, -10.0 * np.eye(4))

    def test_indefinite_p_raises_in_information_form(self):
        """k > d with batch gains takes the information form, which factors
        P itself: an indefinite P raises LinAlgError, leaving P untouched."""
        from repro.embedding.oselm import rank_k_update

        P = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(np.linalg.LinAlgError):
            rank_k_update(P, np.ones((5, 3)), gain="batch")
        assert np.array_equal(P, np.diag([1.0, 1.0, -1.0]))


class TestNumericalDrift:
    """Long-run behavior of the rank-1 recursion: the periodic
    P ← (P + Pᵀ)/2 re-symmetrization keeps eps-level asymmetry from
    compounding over unbounded deployments, without moving the solution."""

    def test_long_run_p_stays_symmetric_and_solution_holds(self):
        rng = np.random.default_rng(2)
        n_in, n_out = 5, 2
        m = OSELM(n_in, 12, n_out, reg=1e-2, seed=0)
        X = rng.normal(size=(3000, n_in))
        W = rng.normal(size=(n_in, n_out))
        T = X @ W + 0.05 * rng.normal(size=(3000, n_out))
        for i in range(X.shape[0]):
            m.partial_fit(X[i : i + 1], T[i : i + 1])
        asym = np.abs(m.P - m.P.T).max()
        assert asym <= 1e-12 * max(np.abs(m.P).max(), 1e-300)
        # the sequential solution still matches the closed-form batch ridge
        assert np.allclose(m.beta, m.batch_solution(X, T), atol=1e-6)

    def test_symmetrization_is_noop_on_symmetric_p(self):
        """(x + x)/2 is exact in floating point: re-symmetrizing an already
        symmetric P must not move a single bit (what makes the periodic
        pass safe to run at any cadence)."""
        rng = np.random.default_rng(3)
        A = rng.normal(size=(8, 8))
        P = A @ A.T  # bitwise symmetric by construction of the product
        before = P.copy()
        P[:] = (P + P.T) * 0.5
        assert np.array_equal(P, before)

    def test_scratch_buffers_never_leak_state(self):
        """Two interleaved models sharing nothing: the preallocated rank-1
        scratch is per-instance and fully rewritten, so interleaving cannot
        change either trajectory."""
        X, T = make_regression(n=40, seed=4)
        a = OSELM(5, 8, 2, seed=0)
        b = OSELM(5, 8, 2, seed=0)
        c = OSELM(5, 8, 2, seed=0)
        for i in range(40):
            a.partial_fit(X[i : i + 1], T[i : i + 1])
        for i in range(40):  # interleave b with a third model
            b.partial_fit(X[i : i + 1], T[i : i + 1])
            c.partial_fit(X[i : i + 1], 0.5 * T[i : i + 1])
        assert np.array_equal(a.beta, b.beta)
        assert np.array_equal(a.P, b.P)
