"""Reference computations that the tests check the package against."""

import numpy as np

from chiraldet.errors import NumericError
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
