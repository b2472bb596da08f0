"""Reference computations that the tests check the package against, and
the checks that several test modules share."""

from dataclasses import replace

import numpy as np

from chiraldet.encoder import BatchMask, MoleculeBatch, pair_inputs
from chiraldet.errors import AnnotationError, NumericError
from chiraldet.geometry import UnitKind
from chiraldet.gradcheck import AUDIT_CHUNK, _stacked_call
from chiraldet.model import _leaves, _onehot, forward_batch, rank_penalty
from chiraldet.numerics import FD_STEP, central_difference, det3_batch

# The LayerParams leaves that attend_fwd reads, then those of the
# feed-forward that layer_fwd runs on its residual: together every field,
# in declaration order
ATTENTION_LEAVES = ("wq", "wk_r", "wv_r", "wk_n", "wv_n", "wo")
FEED_FORWARD_LEAVES = ("ff_w1", "ff_b1", "ff_w2", "ff_b2",
                       "ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta")


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


def finite_diff_grad(f, theta, h=FD_STEP):
    """Central-difference gradient of a scalar function of a flat vector,
    one point at a time: the per-point reference of gradcheck._oracle.

    Every evaluation receives one working copy of theta with entry i moved
    by +h or -h, and the entry is restored before the next coordinate, so
    f must not keep its argument (or views of it) beyond the call. theta
    itself is not modified. The gradient is central_difference of the
    evaluations.
    """
    if h <= 0.0:
        raise NumericError("finite_diff_grad requires h > 0")
    work = np.array(theta, dtype=np.float64)
    hi, lo = np.empty(work.size), np.empty(work.size)
    for i in range(work.size):
        t = work[i]
        work[i] = t + h
        hi[i] = f(work)
        work[i] = t - h
        lo[i] = f(work)
        work[i] = t
    return central_difference(hi, lo, h)


def batch_loss(model, batch, objective, reg_weight: float) -> float:
    """The loss of model.batch_step, forward only: every stage runs."""
    loss, _, _ = objective(forward_batch(model, batch).logits)
    return loss + rank_penalty(model, reg_weight)


def loss_classify(logits, label):
    """Softmax cross-entropy over the last axis of (..., C) logits, summed
    over any leading axes; returns (loss, d_logits)."""
    logits = np.asarray(logits, dtype=np.float64)
    onehot = _onehot(label, logits.shape[-1])
    shifted = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    loss = float((lse - shifted)[onehot].sum())
    return loss, np.exp(shifted - lse) - onehot


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


def partition_reference(mol) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Sorted (chiral, related, non-chiral) atom indices by set arithmetic:
    the subtraction comes after the union, so an atom that centres one unit
    and is related to another is chiral."""
    chiral: set[int] = set()
    for unit in mol.chiral_units:
        overlap = chiral.intersection(unit.center_atoms)
        if overlap:
            raise AnnotationError(f"center atoms {sorted(overlap)} appear in more than one chiral unit")
        chiral.update(unit.center_atoms)
    related = {a for unit in mol.chiral_units for a in unit.related} - chiral
    nonchiral = set(range(mol.n_atoms)) - chiral - related
    return tuple(sorted(chiral)), tuple(sorted(related)), tuple(sorted(nonchiral))


def unit_reference(unit, coords, features):
    """(reference point, chirality matrix, proj_c input row) of one unit,
    each kind by its own formula: a centre reads its atom, an axis
    averages its two atoms."""
    coords = np.asarray(coords, dtype=np.float64)
    if unit.kind is UnitKind.CENTER:
        (c,) = unit.center_atoms
        ref, row = coords[c].copy(), features[c]
    else:
        a, b = unit.center_atoms
        ref, row = 0.5 * (coords[a] + coords[b]), 0.5 * (features[a] + features[b])
    r1, r2, r3, r4 = unit.related
    return ref, np.stack([coords[r1] - ref, coords[r2] - ref, coords[r4] - coords[r3]]), row


def batch_reference(mols) -> MoleculeBatch:
    """prepare_batch molecule by molecule and unit by unit, from
    partition_reference and unit_reference."""
    parts = [partition_reference(m) for m in mols]
    mask = BatchMask.of_counts([len(m.chiral_units) for m in mols],
                               [len(p[1]) for p in parts], [len(p[2]) for p in parts])
    n_batch, n_q = mask.queries.shape
    k_r = max(len(p[1]) for p in parts)
    (ub, us), (rb, rs), (nb, ns) = (
        np.nonzero(m) for m in (mask.queries[:, 1:], mask.keys[:, :k_r], mask.keys[:, k_r:])
    )
    units = [unit_reference(u, m.coords, m.features) for m in mols for u in m.chiral_units]
    d_f = mols[0].features.shape[1]
    chiral_positions = np.zeros((n_batch, n_q - 1, 3))
    chiral_positions[ub, us] = np.reshape([ref for ref, _, _ in units], (-1, 3))
    key_positions = np.zeros((n_batch, mask.keys.shape[1], 3))
    key_atoms = np.full(mask.keys.shape, -1)
    for b, (m, (_, related, nonchiral)) in enumerate(zip(mols, parts)):
        keys = list(related + nonchiral)
        key_positions[b, np.flatnonzero(mask.keys[b])] = m.coords[keys]
        key_atoms[b, np.flatnonzero(mask.keys[b])] = keys
    return MoleculeBatch(
        ids=tuple(m.id for m in mols),
        index=tuple(range(len(mols))),
        key_atoms=key_atoms,
        mask=mask,
        k_r=k_r,
        chirality=np.reshape([mc for _, mc, _ in units], (-1, 3, 3)),
        unit_rows=np.reshape([row for _, _, row in units], (-1, d_f)),
        related_rows=np.vstack([m.features[list(p[1])] for m, p in zip(mols, parts)]),
        nonchiral_rows=np.vstack([m.features[list(p[2])] for m, p in zip(mols, parts)]),
        unit_slots=(ub, 1 + us),
        related_slots=(rb, rs),
        nonchiral_slots=(nb, ns),
        pairs=pair_inputs(mask, k_r, chiral_positions, key_positions),
    )


def assert_copies_keep_their_bytes(holder, field, run):
    """For k = 1 ... AUDIT_CHUNK, run() under _stacked_call with a stack of
    k copies of holder.field gives each copy the bytes of run() with that
    copy alone, and leaves the original leaf object in place.
    A written array that the leaf does not move, such as the head's
    pooled, stays single and equals every copy's."""
    live = getattr(holder, field)
    rng = np.random.default_rng(live.size)
    copies = live + 1e-3 * rng.standard_normal((AUDIT_CHUNK, *live.shape))
    alone = []
    for copy in copies:
        setattr(holder, field, copy)
        try:
            alone.append(run())
        finally:
            setattr(holder, field, live)
    for k in range(1, AUDIT_CHUNK + 1):
        written = _stacked_call(holder, field, copies[:k], run)
        assert getattr(holder, field) is live
        for i, a_k in enumerate(written):
            a = alone[0][i]
            blocks = a_k.reshape(k, *a.shape) if a_k.size == k * a.size else [a_k] * k
            for j in range(k):
                assert blocks[j].tobytes() == alone[j][i].tobytes(), (
                    f"{field}: output {i} of copy {j} of {k} differs from that copy alone")
