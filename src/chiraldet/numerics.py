"""Dense linear algebra and differentiation utilities.

Everything runs in 64-bit floats. det3_batch is the package's one 3x3
determinant: the exact R/S oracle (the chirality product), the kernel's
det(M) and det(G), the generators' rejection tests and the sign fix of
random rotations all round the same cofactor expansion. Orthonormal
columns (kernel initialization and retraction) come from numpy's reduced
QR; no QR runs in the kernel readout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import erf

from .errors import NumericError

SQRT2 = np.sqrt(2.0)
INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)


def det3_batch(a) -> np.ndarray:
    """Cofactor determinant over a (..., 3, 3) stack; a single 3x3 matrix
    gives a 0-d array."""
    a = np.asarray(a, dtype=np.float64)
    if a.shape[-2:] != (3, 3):
        raise NumericError(f"det3_batch expects (..., 3, 3) matrices, got shape {a.shape}")
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


def layer_norm_rows(x, gamma, beta, eps=1e-5):
    """Row-wise layer norm of a 2-D array; returns (out, cache) for backward.

    The rows are centred once. Mean and variance are the reductions that
    x.mean and x.var make, so the result is theirs to the bit, without
    their Python wrappers or var's second centring. A finite row whose
    variance overflows would get inv = 0 and come out as beta, so the first
    raises NumericError with its row; a NaN or an infinity gives NaN.

    x may also be a (k, n, d) stack of row blocks, and gamma and beta
    (k, 1, d) stacks of k copies: rows reduce along the last axis alone,
    so each block, and each copy's out, keeps the bytes of its 2-D call.
    The row an error gives then counts the rows of the blocks in order.
    """
    x = np.asarray(x, dtype=np.float64)
    d = x.shape[-1]
    xc = x - np.add.reduce(x, axis=-1, keepdims=True) / d
    var = np.add.reduce(xc * xc, axis=-1, keepdims=True) / d
    inv = 1.0 / np.sqrt(var + eps)
    if not inv.all():
        raise NumericError("layer norm: a row's variance overflows float64",
                           row=int(np.flatnonzero(inv == 0.0)[0]))
    xhat = xc * inv
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


def normal_cdf(x):
    """Standard normal CDF Phi(x) = (1 + erf(x / sqrt 2)) / 2, the gate of the
    exact GELU: gelu(x) = x Phi(x) and gelu'(x) = Phi(x) + x phi(x), so one
    erf per element serves the forward and the backward."""
    return 0.5 * (1.0 + erf(np.asarray(x, dtype=np.float64) / SQRT2))


# the step of every central difference the gradient audit takes
FD_STEP = 1e-5


def central_difference(hi, lo, h=FD_STEP) -> np.ndarray:
    """(hi - lo) / 2h per coordinate i, from the evaluations hi[i] at
    theta + h e_i and lo[i] at theta - h e_i. A non-finite evaluation
    raises NumericError naming its coordinate, the first one if several."""
    hi, lo = np.asarray(hi, dtype=np.float64), np.asarray(lo, dtype=np.float64)
    bad = np.flatnonzero(~(np.isfinite(hi) & np.isfinite(lo)))
    if bad.size:
        raise NumericError(f"non-finite evaluation at coordinate {int(bad[0])}")
    return (hi - lo) / (2.0 * h)


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
