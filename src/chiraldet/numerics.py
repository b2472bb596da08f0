"""Dense linear algebra and differentiation utilities.

Everything runs in 64-bit floats. The QR routine keeps the signed-diagonal
convention (no sign normalization of R). It serves kernel retraction,
initialization and the check of the |det R| = |det M| sqrt(det W^T W)
identity that the closed-form determinant kernel rests on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import NumericError

SQRT2 = np.sqrt(2.0)
INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


@dataclass
class QrResult:
    q: np.ndarray  # (..., m, n), orthonormal columns
    r: np.ndarray  # (..., n, n), upper triangular, diagonal may be negative


def qr_thin(a) -> QrResult:
    """Householder thin QR of an m x n matrix, or of a (..., m, n) stack,
    with m >= n.

    A reflection is applied at every column step with the numerically
    stable sign choice, so generic input uses exactly n reflections and
    sign(det R) covaries with the orientation of the input columns. An
    exactly zero working column is skipped (its reflector is zero, so the
    step is the identity) and leaves a zero diagonal entry (the
    rank-deficient path). Every matrix of a stack is reduced at once.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim < 2:
        raise NumericError(f"qr_thin expects a matrix or a stack, got shape {a.shape}")
    m, n = a.shape[-2:]
    if m < n:
        raise NumericError(f"qr_thin needs at least as many rows as columns, got {m}x{n}")
    r = a.copy()
    vs = []
    for j in range(n):
        v = r[..., j:, j].copy()  # (..., m - j)
        norm = np.sqrt((v * v).sum(axis=-1))
        v[..., 0] += np.where(v[..., 0] >= 0.0, norm, -norm)
        v_norm = np.sqrt((v * v).sum(axis=-1, keepdims=True))
        v = np.divide(v, v_norm, out=np.zeros_like(v), where=v_norm > 0.0)
        vs.append(v)
        r[..., j:, j:] -= 2.0 * v[..., :, None] * (v[..., None, :] @ r[..., j:, j:])
    q = np.zeros(a.shape[:-2] + (m, n))
    q[..., :n, :n] = np.eye(n)
    for j in range(n - 1, -1, -1):
        v = vs[j]
        q[..., j:, :] -= 2.0 * v[..., :, None] * (v[..., None, :] @ q[..., j:, :])
    return QrResult(q=q, r=np.triu(r[..., :n, :]))


def det3_batch(a) -> np.ndarray:
    """Cofactor determinant over a (..., 3, 3) stack."""
    a = np.asarray(a, dtype=np.float64)
    return (
        a[..., 0, 0] * (a[..., 1, 1] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 1])
        - a[..., 0, 1] * (a[..., 1, 0] * a[..., 2, 2] - a[..., 1, 2] * a[..., 2, 0])
        + a[..., 0, 2] * (a[..., 1, 0] * a[..., 2, 1] - a[..., 1, 1] * a[..., 2, 0])
    )


def cofactor3_batch(a) -> np.ndarray:
    """Cofactor matrices over a (..., 3, 3) stack, i.e. d det(a) / d a.

    The cofactor matrix is the transposed adjugate, so for a symmetric
    stack it is the adjugate itself.
    """
    a = np.asarray(a, dtype=np.float64)
    nxt, prv = [1, 2, 0], [2, 0, 1]
    rows_n, rows_p = a[..., nxt, :], a[..., prv, :]
    return rows_n[..., nxt] * rows_p[..., prv] - rows_n[..., prv] * rows_p[..., nxt]


def det3(a) -> float:
    """Cofactor-expansion determinant of a 3x3 matrix."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (3, 3):
        raise NumericError(f"det3 expects a 3x3 matrix, got shape {a.shape}")
    return float(
        a[0, 0] * (a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1])
        - a[0, 1] * (a[1, 0] * a[2, 2] - a[1, 2] * a[2, 0])
        + a[0, 2] * (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])
    )


def layer_norm_rows(x, gamma, beta, eps=1e-5):
    """Row-wise layer norm of a 2-D array; returns (out, cache) for backward."""
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    out = xhat * gamma + beta
    return out, (xhat, inv)


def layer_norm_rows_backward(d_out, cache, gamma):
    """Backward for layer_norm_rows; returns (d_x, d_gamma, d_beta)."""
    xhat, inv = cache
    d = xhat.shape[1]
    d_beta = d_out.sum(axis=0)
    d_gamma = (d_out * xhat).sum(axis=0)
    d_xhat = d_out * gamma
    d_x = inv * (
        d_xhat
        - d_xhat.mean(axis=1, keepdims=True)
        - xhat * (d_xhat * xhat).sum(axis=1, keepdims=True) / d
    )
    return d_x, d_gamma, d_beta


def gaussian(x, mu, sigma):
    """Normal density (1/(sqrt(2 pi) sigma)) exp(-((x-mu)/sigma)^2 / 2)."""
    sigma = np.asarray(sigma, dtype=np.float64)
    if np.any(sigma <= 0.0):
        raise NumericError("gaussian requires sigma > 0")
    z = (np.asarray(x, dtype=np.float64) - mu) / sigma
    return INV_SQRT_2PI / sigma * np.exp(-0.5 * z * z)


def gelu(x):
    """Exact (erf-based) GELU."""
    x = np.asarray(x, dtype=np.float64)
    return 0.5 * x * (1.0 + erf(x / SQRT2))


def gelu_grad(x):
    x = np.asarray(x, dtype=np.float64)
    phi = INV_SQRT_2PI * np.exp(-0.5 * x * x)
    return 0.5 * (1.0 + erf(x / SQRT2)) + x * phi


def finite_diff_grad(f, theta, h=1e-5):
    """Central-difference gradient of a scalar function of a flat vector.

    Every evaluation receives one working copy of theta with entry i moved
    by +h or -h, and the entry is restored before the next coordinate, so
    f must not keep its argument (or views of it) beyond the call. theta
    itself is not modified.
    """
    if h <= 0.0:
        raise NumericError("finite_diff_grad requires h > 0")
    work = np.array(theta, dtype=np.float64)
    grad = np.zeros_like(work)
    for i in range(work.size):
        t = work[i]
        work[i] = t + h
        hi = f(work)
        work[i] = t - h
        lo = f(work)
        work[i] = t
        if not (np.isfinite(hi) and np.isfinite(lo)):
            raise NumericError(f"non-finite evaluation at coordinate {i}")
        grad[i] = (hi - lo) / (2.0 * h)
    return grad


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_index: int
    passed: bool


def compare_grads(analytic, numeric, tol=1e-5) -> GradCheckReport:
    """Elementwise relative comparison of two flat gradient vectors."""
    analytic = np.asarray(analytic, dtype=np.float64).ravel()
    numeric = np.asarray(numeric, dtype=np.float64).ravel()
    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-6)
    rel = np.abs(analytic - numeric) / denom
    worst = int(np.argmax(rel)) if rel.size else 0
    max_rel = float(rel[worst]) if rel.size else 0.0
    return GradCheckReport(max_rel_error=max_rel, worst_index=worst, passed=max_rel < tol)
