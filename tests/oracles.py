"""Reference computations that the tests check the package against."""

from dataclasses import replace

import numpy as np

from chiraldet.errors import NumericError
from chiraldet.model import _leaves
from chiraldet.numerics import det3_batch


def gram_sqrt_det(w) -> float:
    """sqrt(det(w^T w)) for a d_p x 3 matrix; 0 for rank-deficient input.

    Small negative determinants from round-off are clamped to zero; a
    negative value beyond round-off scale is an error.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2 or w.shape[1] != 3:
        raise NumericError(f"gram_sqrt_det expects a d_p x 3 matrix, got shape {w.shape}")
    d = float(det3_batch(w.T @ w))
    if d < 0.0:
        if d < -1e-14:
            raise NumericError(f"Gram determinant {d} negative beyond round-off")
        return 0.0
    return float(np.sqrt(d))


def layer_norm_rows_reference(x, gamma, beta, eps=1e-5):
    """numpy's mean and var layer norm: (out, xhat, inv) of the rows of x."""
    mu = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv
    return xhat * gamma + beta, xhat, inv


def unflatten(theta, *like) -> list:
    """Inverse of gradcheck.flatten: consecutive views of theta shaped like
    the arrays of `like`. A parameter dataclass comes back as a copy of the
    same type whose array fields are views."""
    out, i = [], 0
    for item in like:
        is_array = isinstance(item, np.ndarray)
        views = {}
        for name, a in [(None, item)] if is_array else _leaves(item):
            views[name] = theta[i : i + a.size].reshape(a.shape)
            i += a.size
        out.append(views[None] if is_array else replace(item, **views))
    return out
