import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tagrec.errors import NotPositiveDefiniteError, NumericalError
from tagrec.numeric import (
    ADAM_CHUNK,
    AdamState,
    adam_step,
    relu,
    softmax,
    spd_solve,
    xavier_uniform,
)

from reference_math import GradCheckReport, adam_step_reference, cross_entropy, grad_check

finite_floats = st.floats(min_value=-50, max_value=50, allow_nan=False)


class TestXavierUniform:
    def test_bound_is_one_for_equal_fans_of_three(self, rng):
        W = xavier_uniform(3, 3, rng)
        assert W.shape == (3, 3)
        assert np.all(np.abs(W) <= 1.0)

    def test_all_entries_within_bound(self, rng):
        fan_in, fan_out = 150, 1024
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        W = xavier_uniform(fan_in, fan_out, rng)
        assert W.shape == (fan_out, fan_in)
        assert np.all(np.abs(W) <= limit)

    def test_same_seed_same_matrix(self):
        a = xavier_uniform(7, 5, np.random.default_rng(3))
        b = xavier_uniform(7, 5, np.random.default_rng(3))
        np.testing.assert_array_equal(a, b)

    def test_rejects_bad_fans(self, rng):
        with pytest.raises(ValueError):
            xavier_uniform(0, 3, rng)


class TestActivations:
    def test_fixed_points(self):
        assert np.tanh(np.array(0.0)) == 0.0
        assert relu(np.array(-2.0)) == 0.0
        assert relu(np.array(3.0)) == 3.0

    def test_softmax_uniform_for_constant_logits(self):
        for c in (-1000.0, 0.0, 3.5, 1000.0):
            np.testing.assert_allclose(softmax(np.full(3, c)), np.full(3, 1 / 3))

    def test_softmax_extreme_logits_stay_finite(self):
        p = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(p))
        np.testing.assert_allclose(p, [1.0, 0.0], atol=1e-12)

    @given(arrays(np.float64, st.integers(1, 8), elements=finite_floats))
    def test_softmax_sums_to_one(self, logits):
        assert abs(softmax(logits).sum() - 1.0) <= 1e-9

    @given(
        arrays(np.float64, st.integers(1, 8), elements=finite_floats),
        st.floats(min_value=-30, max_value=30, allow_nan=False),
    )
    def test_softmax_shift_invariant(self, logits, c):
        np.testing.assert_allclose(softmax(logits + c), softmax(logits), atol=1e-9)

    @given(arrays(np.float64, st.integers(1, 16), elements=finite_floats))
    def test_tanh_and_relu_ranges(self, x):
        # float64 tanh saturates to exactly 1.0 around |x| ~ 19
        assert np.all(np.abs(np.tanh(x)) <= 1.0)
        assert np.all(np.abs(np.tanh(np.clip(x, -15, 15))) < 1.0)
        assert np.all(relu(x) >= 0.0)

    def test_softmax_batch_rows_sum_to_one(self, rng):
        logits = rng.standard_normal((5, 7))
        np.testing.assert_allclose(softmax(logits).sum(axis=1), np.ones(5))


class TestCrossEntropy:
    def test_one_hot_is_zero(self):
        assert cross_entropy(np.array([0.0, 1.0, 0.0]), 1) == 0.0

    def test_uniform_four_classes(self):
        assert cross_entropy(np.full(4, 0.25), 2) == pytest.approx(math.log(4))

    def test_zero_probability_hits_floor(self):
        loss = cross_entropy(np.array([1.0, 0.0]), 1)
        assert loss == pytest.approx(-math.log(1e-12))
        assert math.isfinite(loss)

    def test_bad_index_rejected(self):
        with pytest.raises(IndexError):
            cross_entropy(np.array([0.5, 0.5]), 2)

    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            cross_entropy(np.array([0.5, 0.6]), 0)


class TestAdam:
    def test_first_step_magnitude_is_learning_rate(self, rng):
        p = rng.standard_normal((3, 4))
        p0 = p.copy()
        g = np.full((3, 4), 7.3)
        state = AdamState.for_params([p], learning_rate=0.001)
        adam_step([p], [g], state)
        np.testing.assert_allclose(np.abs(p - p0), 0.001, rtol=1e-5)
        assert np.all(np.sign(p0 - p) == np.sign(g))

    def test_zero_gradient_is_identity(self, rng):
        p = rng.standard_normal(5)
        params, state = [p.copy()], AdamState.for_params([p])
        for _ in range(10):
            adam_step(params, [np.zeros(5)], state)
        np.testing.assert_array_equal(params[0], p)
        assert state.step_count == 10

    def test_deterministic(self, rng):
        p = rng.standard_normal(6)
        g = rng.standard_normal(6)
        a, b = p.copy(), p.copy()
        adam_step([a], [g], AdamState.for_params([a]))
        adam_step([b], [g], AdamState.for_params([b]))
        np.testing.assert_array_equal(a, b)

    def test_updates_params_and_moments_in_place(self, rng):
        p = rng.standard_normal(4)
        g = rng.standard_normal(4)
        p0, g0 = p.copy(), g.copy()
        state = AdamState.for_params([p])
        adam_step([p], [g], state)
        np.testing.assert_array_equal(g, g0)
        [want_p], want = adam_step_reference([p0], [g0], AdamState.for_params([p0]))
        np.testing.assert_array_equal(p, want_p)
        np.testing.assert_array_equal(state.first_moment[0], want.first_moment[0])
        np.testing.assert_array_equal(state.second_moment[0], want.second_moment[0])
        assert state.step_count == 1

        q = rng.standard_normal((2, 3))
        params, state = [p, q], AdamState.for_params([p, q])
        adam_step(params, [g, np.ones((2, 3))], state)
        before = [a.copy() for a in params + state.first_moment + state.second_moment]
        bad = np.ones((2, 3))
        bad[1, 2] = np.nan
        with pytest.raises(NumericalError):
            adam_step(params, [g, bad], state)
        for a, b in zip(params + state.first_moment + state.second_moment, before):
            np.testing.assert_array_equal(a, b)
        assert state.step_count == 1

    def test_nonfinite_gradient_rejected(self, rng):
        p = rng.standard_normal(3)
        g = np.array([1.0, np.nan, 0.0])
        with pytest.raises(NumericalError):
            adam_step([p], [g], AdamState.for_params([p]))

    @pytest.mark.parametrize(
        "make, match",
        [
            (lambda rng: rng.standard_normal((3, 4)).T, r"float64 of shape \(4, 3\), not C-contiguous"),
            (lambda rng: np.arange(4, dtype=np.int64), r"int64 of shape \(4,\), C-contiguous"),
        ],
        ids=["transposed-view", "int64"],
    )
    def test_param_the_update_would_miss_is_rejected(self, rng, make, match):
        p = make(rng)
        p0 = p.copy()
        state = AdamState.for_params([p])
        with pytest.raises(ValueError, match=match):
            adam_step([p], [np.ones(p.shape)], state)
        np.testing.assert_array_equal(p, p0)
        assert state.step_count == 0

    def test_converges_on_quadratic(self, rng):
        target = rng.standard_normal(8)
        params = [np.zeros(8)]
        state = AdamState.for_params(params, learning_rate=0.05)
        for _ in range(2000):
            grad = params[0] - target
            adam_step(params, [grad], state)
        np.testing.assert_allclose(params[0], target, atol=1e-3)

    @settings(max_examples=40, deadline=None)
    @given(
        shapes=st.lists(
            st.sampled_from(
                [(0,), (1,), (ADAM_CHUNK - 1,), (ADAM_CHUNK,), (ADAM_CHUNK + 1,), (1024, 150), (8, 1024), (3, 0)]
            ),
            min_size=1,
            max_size=4,
        ),
        learning_rate=st.floats(min_value=1e-4, max_value=0.1),
        steps=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        specials=st.lists(
            st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1e300, -1e300, 1.7e308]),
            max_size=12,
        ),
    )
    def test_bit_identical_to_the_allocating_step(self, shapes, learning_rate, steps, seed, specials):
        """The in-place chunked step gives the same bits as the reference
        that builds fresh arrays, on sizes around ADAM_CHUNK's boundaries
        and gradients holding signed zeros, subnormals and huge values."""
        rng = np.random.default_rng(seed)
        params = [rng.standard_normal(shape) for shape in shapes]
        ref_params = [p.copy() for p in params]
        state = AdamState.for_params(params, learning_rate=learning_rate)
        ref_state = AdamState.for_params(ref_params, learning_rate=learning_rate)
        for _ in range(steps):
            grads = [rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 3) for shape in shapes]
            for value in specials:
                g = grads[rng.integers(len(grads))].reshape(-1)
                if g.size:
                    g[rng.integers(g.size)] = value
            with np.errstate(over="ignore", invalid="ignore"):
                adam_step(params, grads, state)
                ref_params, ref_state = adam_step_reference(ref_params, grads, ref_state)
        assert state.step_count == ref_state.step_count == steps
        for got, want in zip(
            params + state.first_moment + state.second_moment,
            ref_params + ref_state.first_moment + ref_state.second_moment,
        ):
            assert got.tobytes() == want.tobytes()


class TestSpdSolve:
    def test_identity_returns_rhs(self, rng):
        B = rng.standard_normal((4, 3))
        np.testing.assert_allclose(spd_solve(np.eye(4), B), B)

    def test_two_by_two_oracle(self):
        A = np.array([[4.0, 2.0], [2.0, 3.0]])
        x = spd_solve(A, np.array([1.0, 1.0]))
        np.testing.assert_allclose(x, [0.125, 0.25])
        np.testing.assert_allclose(A @ x, [1.0, 1.0])

    def test_indefinite_rejected(self):
        A = np.array([[1.0, 2.0], [2.0, 1.0]])  # eigenvalues 3, -1
        with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
            spd_solve(A, np.ones(2))

    def test_asymmetric_rejected(self, rng):
        A = np.array([[1.0, 0.5], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            spd_solve(A, np.ones(2))

    @pytest.mark.parametrize("n", [1, 127, 128, 129, 300])
    @pytest.mark.parametrize("rhs", [(), (1,), (7,)], ids=["1-D", "one-column", "2-D"])
    def test_matches_a_general_solve_across_blocks(self, rng, n, rhs):
        # sizes around spd_solve's block of 128 rows take every path of
        # its blocked substitutions
        M = rng.standard_normal((n, n))
        A = M.T @ M + n * np.eye(n)
        B = rng.standard_normal((n, *rhs))
        X = spd_solve(A, B)
        assert X.shape == B.shape
        np.testing.assert_allclose(X, np.linalg.solve(A, B), rtol=1e-10, atol=1e-13)

    def test_non_positive_definite_rejected_at_scale(self, rng):
        M = rng.standard_normal((200, 200))
        A = M.T @ M
        A[150, 150] = -1.0
        with pytest.raises(NotPositiveDefiniteError, match="not positive definite"):
            spd_solve(A, np.ones((200, 2)))

    def test_asymmetry_tolerance_is_relative(self, rng):
        M = rng.standard_normal((200, 200))
        A = M.T @ M + np.eye(200)
        scale = np.linalg.norm(A)
        within, beyond = A.copy(), A.copy()
        within[3, 7] += 1e-11 * scale
        beyond[3, 7] += 1e-8 * scale
        np.testing.assert_allclose(spd_solve(within, np.ones(200)), spd_solve(A, np.ones(200)),
                                   rtol=1e-6)
        with pytest.raises(ValueError, match="symmetric"):
            spd_solve(beyond, np.ones(200))

    def test_right_hand_side_must_match(self):
        with pytest.raises(ValueError, match="rows"):
            spd_solve(np.eye(3), np.ones(4))
        with pytest.raises(ValueError, match="rows"):
            spd_solve(np.eye(3), np.ones((3, 2, 2)))

    @given(st.integers(min_value=1, max_value=12), st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_residual_bound_on_random_spd(self, n, seed):
        rng = np.random.default_rng(seed)
        M = rng.standard_normal((n, n))
        A = M.T @ M + np.eye(n)
        B = rng.standard_normal((n, max(1, n // 2)))
        X = spd_solve(A, B)
        lhs = np.linalg.norm(A @ X - B)
        bound = 1e-8 * (np.linalg.norm(A) * np.linalg.norm(X) + np.linalg.norm(B))
        assert lhs <= bound


class TestGradCheck:
    @staticmethod
    def _quadratic(params):
        theta = params[0]
        return 0.5 * float(np.sum(theta * theta)), [theta.copy()]

    def test_exact_quadratic_gradient(self, rng):
        theta = rng.standard_normal(10)
        report = grad_check(self._quadratic, [theta], h=1e-5, tolerance=1e-9)
        assert report.passed
        assert report.max_relative_error <= 1e-9
        assert report.n_checked == 10

    def test_corrupted_gradient_flagged(self, rng):
        def doubled(params):
            loss, grads = self._quadratic(params)
            return loss, [2.0 * g for g in grads]

        theta = rng.standard_normal(6) + 1.0  # keep entries away from 0
        report = grad_check(doubled, [theta], h=1e-5, tolerance=1e-4)
        assert not report.passed
        # |2g - g| / (|2g| + |g|) = 1/3
        assert report.max_relative_error == pytest.approx(1 / 3, rel=1e-3)

    def test_sampling_limits_coordinates(self, rng):
        theta = rng.standard_normal((20, 20))
        report = grad_check(self._quadratic, [theta], sample=17, seed=5)
        assert report.n_checked == 17

    def test_report_type(self, rng):
        report = grad_check(self._quadratic, [rng.standard_normal(3)])
        assert isinstance(report, GradCheckReport)
        assert len(report.errors) == report.n_checked
