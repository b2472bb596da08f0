import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraldet.encoder import Mlp2, mlp2_bwd, mlp2_fwd
from chiraldet.errors import NumericError
from chiraldet.numerics import (
    cofactor3_batch,
    compare_grads,
    det3_batch,
    gaussian,
    layer_norm_rows,
    layer_norm_rows_backward,
)
from oracles import finite_diff_grad, gram_sqrt_det, layer_norm_rows_reference


def leibniz_det3(a):
    """Permutation-sum oracle over all 6 permutations."""
    total = 0.0
    for perm in itertools.permutations(range(3)):
        sign = 1.0
        for i in range(3):
            for j in range(i + 1, 3):
                if perm[i] > perm[j]:
                    sign = -sign
        total += sign * a[0, perm[0]] * a[1, perm[1]] * a[2, perm[2]]
    return total


def det_r(a) -> float:
    """det of the R factor of numpy's reduced QR of a (d_p, 3) matrix."""
    return float(det3_batch(np.linalg.qr(a)[1]))


class TestQrThin:
    """The reduced QR that kernel initialization and retraction use, and
    the |det R| = |det M| sqrt(det W^T W) identity the closed-form kernel
    readout rests on."""

    def test_padded_identity(self):
        a = np.zeros((8, 3))
        a[:3, :3] = np.eye(3)
        r = np.linalg.qr(a)[1]
        assert np.allclose(np.abs(r), np.eye(3), atol=1e-14)
        assert abs(abs(det_r(a)) - 1.0) < 1e-12

    def test_rank_deficient_third_column(self):
        rng = np.random.default_rng(2)
        a = rng.standard_normal((8, 3))
        a[:, 2] = a[:, 0] + a[:, 1]
        r = np.linalg.qr(a)[1]
        assert abs(r[2, 2]) < 1e-10
        assert abs(det_r(a)) < 1e-10

    def test_reconstruction_seed13(self):
        rng = np.random.default_rng(13)
        a = rng.standard_normal((8, 3))
        q, r = np.linalg.qr(a)
        assert np.linalg.norm(q.T @ q - np.eye(3)) < 1e-10
        assert np.linalg.norm(q @ r - a) / np.linalg.norm(a) < 1e-10

    @pytest.mark.parametrize("d_p", [4, 8, 32, 128])
    def test_reconstruction_sweep(self, d_p):
        # one stacked call, as retraction makes on a (k, d_p, 3) bank
        rng = np.random.default_rng(100 + d_p)
        a = rng.standard_normal((250, d_p, 3))
        q, r = np.linalg.qr(a)
        for i in range(a.shape[0]):
            assert np.linalg.norm(q[i].T @ q[i] - np.eye(3)) < 1e-10
            assert np.linalg.norm(q[i] @ r[i] - a[i]) / np.linalg.norm(a[i]) < 1e-10
        assert np.allclose(r, np.triu(r))

    def test_magnitude_identity(self):
        # | |det R| - |det M| * sqrt(det(W^T W)) | small, for O = W M
        rng = np.random.default_rng(7)
        for d_p in (4, 8, 32):
            for _ in range(300):
                w = rng.standard_normal((d_p, 3))
                m = rng.standard_normal((3, 3))
                if abs(det3_batch(m)) < 1e-2:
                    continue
                dr = det_r(w @ m)
                expect = abs(det3_batch(m)) * gram_sqrt_det(w)
                assert abs(abs(dr) - expect) / expect < 1e-8

    def test_raw_qr_signs_are_not_covariant(self):
        # The raw Householder det(R) sign is NOT a function of sign(det M);
        # this is why the kernel readout takes its sign from det(M). Keep a
        # canary so the distinction is never silently lost.
        rng = np.random.default_rng(8)
        w = rng.standard_normal((6, 3))
        mismatches = 0
        for _ in range(2000):
            m = rng.standard_normal((3, 3))
            if abs(det3_batch(m)) < 1e-2:
                continue
            if det_r(w @ m) * det3_batch(m) > 0:
                mismatches += 1
        assert mismatches > 0

    def test_rank2_w_kills_determinant(self):
        rng = np.random.default_rng(9)
        w = rng.standard_normal((8, 3))
        w[:, 2] = 2.0 * w[:, 0] - w[:, 1]
        for _ in range(50):
            m = rng.standard_normal((3, 3))
            assert abs(det_r(w @ m)) < 1e-10


class TestDet3:
    def test_identity(self):
        assert det3_batch(np.eye(3)) == 1.0

    def test_diagonal(self):
        assert det3_batch(np.diag([2.0, 3.0, -1.0])) == -6.0

    def test_matches_leibniz_seed17(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((4, 3, 3))
        got = det3_batch(a)
        assert got.shape == (4,)
        for x, d in zip(a, got):
            assert abs(d - leibniz_det3(x)) < 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_upper_triangular_is_diagonal_product(self, seed):
        rng = np.random.default_rng(seed)
        a = np.triu(rng.standard_normal((3, 3)))
        assert abs(det3_batch(a) - a[0, 0] * a[1, 1] * a[2, 2]) < 1e-12

    def test_bad_shape(self):
        with pytest.raises(NumericError):
            det3_batch(np.eye(4))

    def test_cofactor_is_det_times_inverse_transpose(self):
        rng = np.random.default_rng(18)
        a = rng.standard_normal((5, 3, 3))
        expect = det3_batch(a)[:, None, None] * np.linalg.inv(a).transpose(0, 2, 1)
        assert np.allclose(cofactor3_batch(a), expect, atol=1e-12)

    def test_cofactor_of_singular_matrix(self):
        # rank 2: det is 0 but the cofactor matrix is not
        a = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]])
        cof = cofactor3_batch(a)
        assert cof.shape == (3, 3)
        assert np.array_equal(cof[0], [-3.0, 6.0, -3.0])


class TestGramSqrtDet:
    def test_orthonormal_columns(self):
        w = np.zeros((8, 3))
        w[:3, :3] = np.eye(3)
        assert gram_sqrt_det(w) == 1.0

    def test_duplicated_column(self):
        rng = np.random.default_rng(3)
        w = rng.standard_normal((6, 3))
        w[:, 1] = w[:, 0]
        assert gram_sqrt_det(w) == 0.0

    def test_identity_against_qr_seed19(self):
        # |det R| of W M equals |det M| * sqrt(det(W^T W))
        rng = np.random.default_rng(19)
        w = rng.standard_normal((16, 3))
        m = rng.standard_normal((3, 3))
        assert abs(det3_batch(m)) > 1e-3
        dr = abs(det_r(w @ m))
        assert abs(gram_sqrt_det(w) - dr / abs(det3_batch(m))) < 1e-8 * gram_sqrt_det(w)


class TestLayerNorm:
    def test_constant_vector(self):
        out, _ = layer_norm_rows(np.full((1, 5), 3.7), 1.0, 0.0, eps=1e-5)
        assert np.allclose(out, 0.0)

    def test_two_point(self):
        out, _ = layer_norm_rows(np.array([[1.0, -1.0]]), 1.0, 0.0, eps=0.0)
        assert np.allclose(out, [[1.0, -1.0]])

    def test_moments_random(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal(32)
        out, _ = layer_norm_rows(x[None], 1.0, 0.0, eps=0.0)
        assert abs(out.mean()) < 1e-10
        assert abs(out.var() - 1.0) < 1e-6

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_rows_variant_matches_vector_op(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((4, 8))
        gamma = rng.standard_normal(8)
        beta = rng.standard_normal(8)
        rows, _ = layer_norm_rows(x, gamma, beta)
        for i in range(4):
            expect = (x[i] - x[i].mean()) / np.sqrt(x[i].var() + 1e-5) * gamma + beta
            assert np.allclose(rows[i], expect, atol=1e-12)

    @given(st.integers(1, 40), st.integers(1, 300), st.integers(-200, 200),
           st.floats(-1e3, 1e3), st.integers(0, 10_000))
    @settings(max_examples=200, deadline=None)
    def test_one_centring_matches_numpy_moments_bitwise(self, n, d, log2_scale, offset, seed):
        """The one-pass centring gives the bytes of numpy's mean and var,
        over row counts, widths past numpy's 8-way unrolled and 128-wide
        pairwise summation blocks, and scales from tiny to huge."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, d)) * 2.0**log2_scale + offset
        gamma = rng.standard_normal(d)
        beta = rng.standard_normal(d)
        out, (xhat, inv) = layer_norm_rows(x, gamma, beta)
        ref_out, ref_xhat, ref_inv = layer_norm_rows_reference(x, gamma, beta)
        assert np.array_equal(out, ref_out)
        assert np.array_equal(xhat, ref_xhat)
        assert np.array_equal(inv, ref_inv)

    def test_overflowing_variance_raises(self):
        # finite values whose variance overflows: 1/sqrt(inf) = 0 would turn
        # the row into beta
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="^layer norm: "):
            layer_norm_rows(np.array([[1e300, -1e300, 0.0, 1.0]]), 1.0, 0.5)

    def test_nonfinite_row_passes_through_as_nan(self):
        x = np.array([[np.inf, 1.0, 0.0], [1.0, 2.0, 3.0]])
        with np.errstate(invalid="ignore"):
            out, _ = layer_norm_rows(x, 1.0, 0.0)
        assert np.isnan(out[0]).all()
        assert np.isfinite(out[1]).all()

    def test_rows_backward_matches_fd(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((3, 8))
        gamma = rng.standard_normal(8)
        beta = rng.standard_normal(8)
        w = rng.standard_normal((3, 8))

        def f(theta):
            xs = theta[:24].reshape(3, 8)
            g = theta[24:32]
            b = theta[32:]
            out, _ = layer_norm_rows(xs, g, b)
            return float((w * out).sum())

        theta0 = np.concatenate([x.ravel(), gamma, beta])
        numeric = finite_diff_grad(f, theta0)
        out, cache = layer_norm_rows(x, gamma, beta)
        d_x, d_gamma, d_beta = layer_norm_rows_backward(w, cache, gamma)
        analytic = np.concatenate([d_x.ravel(), d_gamma, d_beta])
        assert compare_grads(analytic, numeric, tol=1e-6).passed


class TestGaussian:
    def test_peak_value(self):
        assert abs(gaussian(0.5, 0.5, 1.0) - 0.3989422804) < 1e-9

    def test_one_sigma_away(self):
        peak = gaussian(0.0, 0.0, 0.7)
        assert np.isclose(gaussian(0.7, 0.0, 0.7), peak * np.exp(-0.5), atol=1e-14)

    def test_direct_formula(self):
        x, mu, sigma = 2.0, 0.5, 0.7
        expect = 1.0 / (np.sqrt(2.0 * np.pi) * sigma) * np.exp(-0.5 * ((x - mu) / sigma) ** 2)
        assert abs(gaussian(x, mu, sigma) - expect) < 1e-12

    def test_nonpositive_sigma(self):
        with pytest.raises(NumericError):
            gaussian(0.0, 0.0, 0.0)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda t: float(t @ t), np.array([1.0, 2.0]))
        assert np.allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_constant(self):
        grad = finite_diff_grad(lambda t: 5.0, np.ones(4))
        assert np.allclose(grad, 0.0, atol=1e-10)

    def test_det3_adjugate_gradient(self):
        # d det/dA = adj(A)^T = det(A) * A^{-T}
        rng = np.random.default_rng(23)
        a = rng.standard_normal((3, 3))
        numeric = finite_diff_grad(lambda t: float(det3_batch(t.reshape(3, 3))), a.ravel())
        analytic = (det3_batch(a) * np.linalg.inv(a).T).ravel()
        assert compare_grads(analytic, numeric, tol=1e-6).passed

    def test_gelu_grad(self):
        # an identity first layer and a ones readout make the Mlp2 sum(gelu(x)),
        # so its input gradient is the GELU derivative mlp2_bwd builds from the
        # cached normal CDF
        rng = np.random.default_rng(6)
        x = rng.standard_normal(11)
        mlp = Mlp2(w1=np.eye(11), b1=np.zeros(11), w2=np.ones((1, 11)), b2=np.zeros(1))
        numeric = finite_diff_grad(lambda t: float(mlp2_fwd(mlp, t[None])[0].sum()), x)
        _, cache = mlp2_fwd(mlp, x[None])
        analytic = mlp2_bwd(mlp, cache, np.ones((1, 1)))[1][0]
        assert compare_grads(analytic, numeric, tol=1e-7).passed

    def test_bad_h(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda t: 0.0, np.ones(2), h=0.0)

    def test_nonfinite_reported(self):
        with pytest.raises(NumericError):
            finite_diff_grad(lambda t: float("nan"), np.ones(2))

    def test_evaluation_points_and_theta_untouched(self):
        theta = np.array([0.5, -1.25, 3.0])
        kept = theta.copy()
        seen = []
        finite_diff_grad(lambda t: seen.append(t.copy()) or 0.0, theta, h=1e-3)
        assert np.array_equal(theta, kept)
        expect = []
        for i in range(theta.size):
            step = np.zeros_like(theta)
            step[i] = 1e-3
            expect += [theta + step, theta - step]
        assert len(seen) == len(expect)
        for got, want in zip(seen, expect):
            assert np.array_equal(got, want)
