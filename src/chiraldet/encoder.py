"""Chiral encoder: determinant kernels over chirality matrices plus
per-class feature projectors and a learnable global token.

Each kernel slice w (d_p x 3) maps a chirality matrix M to O = w @ M,
which is normalized and read out as det(R) of its thin QR, signed like
det(M). That readout has a closed form, so no QR is run: a normalized
slice is A = W_eff @ M / sigma, hence

    out = det(M) * sqrt(det G) / sigma^3,   G = W_eff^T W_eff.

A reflection of the molecule flips det(M) and so every channel, while
rigid motions leave them unchanged.

The normalization stage removes the per-column mean along d_p and divides
by one pooled standard deviation for the whole slice, then applies a
learnable per-row gain `gamma`. It has no additive shift: a shift, like
per-column scales, would break rotation invariance (a rotation mixes the
three columns), and the closed form relies on its absence.

prepare_batch does the geometry of a molecule batch once (atom roles,
chirality matrices, projector inputs, pair distances), with array
operations over index arrays of the batch's units; centres and axes take
the same path. The model's forward stages (model.forward_stages) read that
MoleculeBatch and do parameter arithmetic only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import AnnotationError, DegeneracyError, NumericError
from .geometry import atom_roles, chirality_matrices, unit_atoms
from .numerics import INV_SQRT_2PI, cofactor3_batch, det3_batch, normal_cdf

# added to the pooled variance sigma^2 of every normalized slice
KERNEL_EPS = 1e-5
# the I_3 of the rank penalty, read-only since every call shares it
_EYE3 = np.eye(3)
_EYE3.flags.writeable = False


class RankStrategy(Enum):
    QR_RETRACTION = "qr_retraction"
    REGULARIZE = "regularize"
    NONE = "none"


@dataclass
class KernelBank:
    w: np.ndarray  # (k, d_p, 3)
    gamma: np.ndarray  # (d_p,)
    # what _bank_factors keeps: not a parameter, and dropped by copy and pickle
    _factors: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __getstate__(self):
        return {k: v for k, v in vars(self).items() if k != "_factors"}

    @property
    def n_kernels(self) -> int:
        return self.w.shape[0]

    @property
    def d_p(self) -> int:
        return self.w.shape[1]


@dataclass
class Mlp2:
    """Two-layer perceptron with GELU between the layers."""

    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray


@dataclass
class EncoderParams:
    kernels: KernelBank
    proj_c: Mlp2
    proj_r: Mlp2
    proj_n: Mlp2
    global_token: np.ndarray  # (h,)


@dataclass
class BatchMask:
    """Valid entries of a padded molecule batch; pad entries are False."""

    queries: np.ndarray  # (B, Q) bool, token row first
    keys: np.ndarray  # (B, Kr + Kn) bool, related keys first

    @cached_property
    def first_keyless(self) -> int | None:
        """The first molecule with chiral queries but no valid key, which
        attention rejects, or None. Read from the masks once, on first use,
        so a mask must not be edited after that."""
        keyless = np.flatnonzero(self.queries[:, 1:].any(axis=1) & ~self.keys.any(axis=1))
        return int(keyless[0]) if keyless.size else None

    @classmethod
    def of_counts(cls, n_units, n_related, n_nonchiral) -> "BatchMask":
        """Masks of a batch whose molecule b has n_units[b] chiral units and
        n_related[b] related and n_nonchiral[b] non-chiral keys, each block
        holding its valid entries first."""
        n_units, n_related, n_nonchiral = (
            np.asarray(n)[:, None] for n in (n_units, n_related, n_nonchiral)
        )
        return cls(
            queries=np.arange(1 + n_units.max()) < 1 + n_units,
            keys=np.hstack([np.arange(n_related.max()) < n_related,
                            np.arange(n_nonchiral.max()) < n_nonchiral]),
        )


class PairInputs(NamedTuple):
    """Parameter-free inputs of the distance bias: one entry per valid
    (unit, key) pair of a padded batch."""

    shape: tuple[int, int, int]  # (B, Q, Kr + Kn) of the pair bias
    index: tuple[np.ndarray, np.ndarray, np.ndarray]  # (molecule, query row, key)
    dists: np.ndarray  # unit reference point to key atom
    types: np.ndarray  # 0 for a related key, 1 for a non-chiral key


def pair_inputs(mask: BatchMask, k_r: int, chiral_positions, key_positions) -> PairInputs:
    """Distances and pair types of every valid (unit, key) pair.

    chiral_positions is (B, Q - 1, 3), key_positions (B, Kr + Kn, 3) with
    the k_r related keys first; pad entries are never read.
    """
    pairs = mask.queries[:, 1:, None] & mask.keys[:, None, :]
    b, u, k = np.nonzero(pairs)
    diff = chiral_positions[b, u] - key_positions[b, k]
    return PairInputs(
        shape=mask.queries.shape + mask.keys.shape[1:],
        index=(b, 1 + u, k),
        dists=np.sqrt((diff * diff).sum(axis=1)),
        types=(k >= k_r).astype(np.int64),
    )


def _padded(rows, slots, shape) -> np.ndarray:
    """Rows stacked over a batch, placed at `slots`, one index array per
    axis of shape, in a zero array of shape + the row width. Leading axes
    of rows, a (k, n, width) stack, are kept: (k, *shape, width)."""
    out = np.zeros(rows.shape[:-2] + shape + rows.shape[-1:])
    out[(..., *slots, slice(None))] = rows
    return out


@dataclass
class MoleculeBatch:
    """Everything of a padded molecule batch that does not depend on the
    parameters, built once by prepare_batch and read by every forward.

    Unit, related and non-chiral rows are stacked over the batch in
    molecule order; each *_slots pair of index arrays places those rows in
    the padded arrays (unit slots count the token row).
    """

    ids: tuple[str, ...]  # Molecule.id of each molecule, for error messages
    index: tuple[int, ...]  # position in the caller's sequence, named when the id is empty
    key_atoms: np.ndarray  # (B, Kr + Kn) atom index of each key in its molecule, -1 on pads
    mask: BatchMask
    k_r: int  # width of the related-key block, Kr
    chirality: np.ndarray  # (U, 3, 3) chirality matrices
    unit_rows: np.ndarray  # (U, d_f) proj_c inputs
    related_rows: np.ndarray  # (R, d_f) proj_r inputs
    nonchiral_rows: np.ndarray  # (N, d_f) proj_n inputs
    unit_slots: tuple[np.ndarray, np.ndarray]
    related_slots: tuple[np.ndarray, np.ndarray]
    nonchiral_slots: tuple[np.ndarray, np.ndarray]
    pairs: PairInputs


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the d_p axis of a (..., k, d_p, 3) stack, as (..., k, 1, 3).

    Taken as a matmul with a constant row: at kernel-bank sizes numpy's
    strided reduction over the middle axis costs several times more.
    """
    return np.full((1, x.shape[-2]), 1.0 / x.shape[-2]) @ x


def _bank_factors(bank: KernelBank):
    """(C, W_eff, C^T C, G, s) of kernel_fwd, which depend on the bank
    alone. They are kept, read-only, on the bank with the bytes of the
    (w, gamma) they came from, and computed again, replacing the kept ones,
    when w or gamma differs from those in shape, dtype or any bit: an
    in-place write such as adam_step's or load_checkpoint's, or a stack of
    copies, is never read stale."""
    key = tuple((a.dtype, a.shape, a.tobytes()) for a in (bank.w, bank.gamma))
    if bank._factors is not None and bank._factors[0] == key:
        return bank._factors[1]
    centered = bank.w - _row_mean(bank.w)
    w_eff = bank.gamma[..., None] * centered
    cc = centered.swapaxes(-1, -2) @ centered  # (k, 3, 3)
    gram = w_eff.swapaxes(-1, -2) @ w_eff
    s = np.sqrt(np.maximum(det3_batch(gram), 0.0))
    factors = (centered, w_eff, cc, gram, s)
    for a in factors:
        a.flags.writeable = False
    bank._factors = key, factors
    return factors


def kernel_fwd(bank: KernelBank, mc_batch):
    """Determinant-kernel forward; returns (out (B, k), cache).

    out[b, k] = det(M_b) * s_k / sigma_bk^3 with s_k = sqrt(max(det G_k, 0)),
    G_k = W_eff^T W_eff, W_eff = gamma * C_k, C_k the slice centred along
    d_p, and sigma_bk^2 = <C_k^T C_k, M_b M_b^T> / (3 d_p) + KERNEL_EPS. A
    rank-deficient slice (det G <= 0) reads out 0. A non-finite matrix is
    a NumericError whose row is the first such matrix.

    w may be (c, k, d_p, 3), c copies, or gamma (c, 1, d_p): out is then
    (c, B, k), each copy's block the bytes of a call with that copy alone,
    since every product and reduction runs over one copy's block.
    """
    mc_batch = np.asarray(mc_batch, dtype=np.float64)
    if mc_batch.ndim != 3 or mc_batch.shape[1:] != (3, 3):
        raise NumericError(f"expected (B, 3, 3) chirality matrices, got {mc_batch.shape}")
    if not np.isfinite(mc_batch).all():
        bad = np.flatnonzero(~np.isfinite(mc_batch).all(axis=(1, 2)))
        raise NumericError("chirality matrices contain non-finite values", row=int(bad[0]))
    n_batch = mc_batch.shape[0]
    d_p = bank.w.shape[-2]
    det_m = det3_batch(mc_batch)
    centered, w_eff, cc, gram, s = _bank_factors(bank)
    mmt = mc_batch @ mc_batch.transpose(0, 2, 1)  # (B, 3, 3)
    sigma2 = (mmt.reshape(n_batch, 9) @ cc.reshape(*cc.shape[:-2], 9).swapaxes(-1, -2)
              / (3 * d_p) + KERNEL_EPS)
    inv_sigma3 = 1.0 / (sigma2 * np.sqrt(sigma2))
    out = det_m[:, None] * s[..., None, :] * inv_sigma3
    return out, (bank, out, det_m, w_eff, centered, mmt, gram, s, sigma2, inv_sigma3)


def kernel_bwd(cache, d_out) -> KernelBank:
    """Backward of kernel_fwd; returns the parameter gradients as a
    KernelBank, the chirality matrices being fixed inputs.

    Gradients flow through s, with d s / d W_eff = W_eff adj(G) / s, and
    through sigma; only the k slice Grams are adjugated. s is not
    differentiable at det G = 0, so a rank-deficient slice raises
    DegeneracyError.
    """
    bank, out, det_m, w_eff, centered, mmt, gram, s, sigma2, inv_sigma3 = cache
    d_out = np.asarray(d_out, dtype=np.float64)
    dead = np.flatnonzero(s <= 0.0)
    if dead.size:
        raise DegeneracyError(
            f"kernel slice {int(dead[0])} is rank-deficient (det G <= 0), "
            "its readout has no gradient"
        )
    n_batch, k = out.shape
    d_s = (d_out * det_m[:, None] * inv_sigma3).sum(axis=0)  # (k,)
    d_w_eff = (d_s / s)[:, None, None] * (w_eff @ cofactor3_batch(gram))
    # through sigma: d loss / d C = -C sum_b coef M M^T
    coef = d_out * out / (bank.d_p * sigma2)  # (B, k)
    coef_mmt = (coef.T @ mmt.reshape(n_batch, 9)).reshape(k, 3, 3)
    # summed over columns by matmul for the reason given in _row_mean
    d_gamma = ((d_w_eff * centered) @ np.ones(3)).sum(axis=0)
    d_c = bank.gamma[None, :, None] * d_w_eff - centered @ coef_mmt
    d_w = d_c - _row_mean(d_c)
    return KernelBank(w=d_w, gamma=d_gamma)


def regularization_loss(bank: KernelBank):
    """Sum over slices of ||w^T w - I_3||_F^2, an np.float64.

    w may be (c, k, d_p, 3), c copies: the c sums then come back as an
    array, each the bytes of that copy's lone call, since each copy's
    squares are one contiguous row of the reduction.
    """
    diff = bank.w.swapaxes(-1, -2) @ bank.w - _EYE3
    return (diff * diff).reshape(*bank.w.shape[:-3], -1).sum(axis=-1)


def regularization_grad(bank: KernelBank) -> np.ndarray:
    return 4.0 * bank.w @ (bank.w.transpose(0, 2, 1) @ bank.w - _EYE3)


def retract_orthonormal(bank: KernelBank) -> KernelBank:
    """Replace every slice by the Q factor of its reduced QR."""
    q, r = np.linalg.qr(bank.w)
    dead = np.flatnonzero(np.abs(np.diagonal(r, axis1=1, axis2=2)).min(axis=1) < 1e-12)
    if dead.size:
        raise DegeneracyError(f"kernel slice {int(dead[0])} is rank-deficient, cannot retract")
    return KernelBank(w=q, gamma=bank.gamma)


def mlp2_fwd(mlp: Mlp2, x):
    """The perceptron over the rows of x (n, d_in); returns (out, cache).

    A leaf may carry a leading axis of k copies, (k, *shape) for a weight
    and (k, 1, n) for a bias, and x may be a (k, n, d_in) stack: out is
    then (k, n, d_out), and each copy's block is the bytes of the 2-D call
    with that copy alone, since matmul runs each block's product alone.
    """
    x = np.asarray(x, dtype=np.float64)
    z1 = x @ mlp.w1.swapaxes(-1, -2) + mlp.b1
    cdf = normal_cdf(z1)
    out = (z1 * cdf) @ mlp.w2.swapaxes(-1, -2) + mlp.b2
    return out, (x, z1, cdf)


def mlp2_bwd(mlp: Mlp2, cache, d_out):
    x, z1, cdf = cache
    d_w2 = d_out.T @ (z1 * cdf)
    d_b2 = d_out.sum(axis=0)
    d_a1 = d_out @ mlp.w2
    d_z1 = d_a1 * (cdf + z1 * (INV_SQRT_2PI * np.exp(-0.5 * z1 * z1)))
    d_w1 = d_z1.T @ x
    d_b1 = d_z1.sum(axis=0)
    d_x = d_z1 @ mlp.w1
    return Mlp2(w1=d_w1, b1=d_b1, w2=d_w2, b2=d_b2), d_x


def prepare_batch(mols, index=None) -> MoleculeBatch:
    """Masks, chirality matrices, projector inputs and pair distances of a
    molecule batch, padded to its largest member.

    Atoms are numbered over the whole batch, molecule after molecule, so
    every step is one array operation over all molecules. Each molecule's
    related and non-chiral keys come in atom order. `index` gives each
    molecule's index in the caller's sequence (0, 1, ... by default), which
    errors name for a molecule without an id.
    """
    if not mols:
        raise ValueError("empty molecule batch")
    n_batch = len(mols)
    index = tuple(range(n_batch)) if index is None else tuple(int(i) for i in index)
    if len(index) != n_batch:
        raise ValueError(f"{len(index)} indices for a batch of {n_batch} molecules")
    n_atoms = np.array([m.n_atoms for m in mols])
    n_units = np.array([len(m.chiral_units) for m in mols])
    starts = np.cumsum(n_atoms) - n_atoms
    coords = np.concatenate([m.coords for m in mols], dtype=np.float64)
    features = np.concatenate([m.features for m in mols])
    centres, related = unit_atoms([u for m in mols for u in m.chiral_units])
    # an index past its molecule would read a neighbour's atom
    local = np.hstack([centres, related])
    if np.any((local < 0) | (local >= np.repeat(n_atoms, n_units)[:, None])):
        raise AnnotationError("a chiral unit's atom index is out of range of its molecule")
    shift = np.repeat(starts, n_units)[:, None]
    centres, related = centres + shift, related + shift
    roles = atom_roles(len(coords), centres, related)
    molecule_of = np.repeat(np.arange(n_batch), n_atoms)
    related_atoms, nonchiral_atoms = np.flatnonzero(roles == 1), np.flatnonzero(roles == 0)
    n_related, n_nonchiral = (np.bincount(molecule_of[a], minlength=n_batch)
                              for a in (related_atoms, nonchiral_atoms))
    mask = BatchMask.of_counts(n_units, n_related, n_nonchiral)
    k_r = int(n_related.max())
    # (molecule, slot) of every stacked row, in stacking order
    (ub, us), (rb, rs), (nb, ns) = (
        np.nonzero(m) for m in (mask.queries[:, 1:], mask.keys[:, :k_r], mask.keys[:, k_r:])
    )
    chirality, refs = chirality_matrices(coords, centres, related)
    chiral_positions = np.zeros((n_batch, mask.queries.shape[1] - 1, 3))
    chiral_positions[ub, us] = refs
    keys = np.zeros(mask.keys.shape, dtype=np.int64)  # batch atom of each key
    keys[rb, rs] = related_atoms
    keys[nb, k_r + ns] = nonchiral_atoms
    # pads read atom 0, and pair_inputs never reads a pad
    key_positions = coords[keys]
    return MoleculeBatch(
        ids=tuple(m.id for m in mols),
        index=index,
        key_atoms=np.where(mask.keys, keys - starts[:, None], -1),
        mask=mask,
        k_r=k_r,
        chirality=chirality,
        unit_rows=0.5 * (features[centres[:, 0]] + features[centres[:, 1]]),
        related_rows=features[related_atoms],
        nonchiral_rows=features[nonchiral_atoms],
        unit_slots=(ub, 1 + us),
        related_slots=(rb, rs),
        nonchiral_slots=(nb, ns),
        pairs=pair_inputs(mask, k_r, chiral_positions, key_positions),
    )


def glorot(rng, n_out: int, n_in: int) -> np.ndarray:
    """(n_out, n_in) weights uniform in +-sqrt(6 / (n_in + n_out))."""
    bound = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-bound, bound, size=(n_out, n_in))


def init_mlp2(rng, d_in: int, d_hidden: int, d_out: int) -> Mlp2:
    return Mlp2(
        w1=glorot(rng, d_hidden, d_in),
        b1=np.zeros(d_hidden),
        w2=glorot(rng, d_out, d_hidden),
        b2=np.zeros(d_out),
    )


def init_kernel_bank(rng, n_kernels: int, d_p: int) -> KernelBank:
    """Slices start as random orthonormal columns (reg loss 0, alpha 1)."""
    w = np.linalg.qr(rng.standard_normal((n_kernels, d_p, 3)))[0]
    return KernelBank(w=w, gamma=np.ones(d_p))


def init_encoder(rng, d_f: int, h: int, d_p: int) -> EncoderParams:
    return EncoderParams(
        kernels=init_kernel_bank(rng, h, d_p),
        proj_c=init_mlp2(rng, d_f, h, h),
        proj_r=init_mlp2(rng, d_f, h, h),
        proj_n=init_mlp2(rng, d_f, h, h),
        global_token=rng.normal(0.0, 0.02, size=h),
    )
