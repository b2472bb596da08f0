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
by one pooled standard deviation for the whole slice. Per-column scales
would break rotation invariance (a rotation mixes the three columns), and
an additive shift would too, so `beta` is kept frozen at zero while the
per-row gain `gamma` stays learnable. The closed form relies on beta = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import DegeneracyError, NumericError
from .geometry import AtomPartition, Molecule, UnitKind, chirality_matrix, reference_point
from .numerics import cofactor3_batch, det3_batch, gelu, gelu_grad, qr_thin


class RankStrategy(Enum):
    QR_RETRACTION = "qr_retraction"
    REGULARIZE = "regularize"
    NONE = "none"


@dataclass
class KernelBank:
    w: np.ndarray  # (k, d_p, 3)
    gamma: np.ndarray  # (d_p,)
    beta: np.ndarray  # (d_p,), frozen at zero
    eps: float = 1e-5

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
    rank_strategy: RankStrategy = RankStrategy.QR_RETRACTION


@dataclass
class EncodedMolecule:
    h_c: np.ndarray  # (1 + n_units, h), global token first
    h_r: np.ndarray  # (|I_r|, h)
    h_n: np.ndarray  # (|I_n|, h)
    chiral_positions: np.ndarray  # (n_units, 3) reference points
    related_positions: np.ndarray
    nonchiral_positions: np.ndarray
    related_indices: tuple[int, ...]
    nonchiral_indices: tuple[int, ...]


def _row_mean(x: np.ndarray) -> np.ndarray:
    """Mean over the d_p axis of a (k, d_p, 3) stack, kept as (k, 1, 3).

    Taken as a matmul with a constant row: at kernel-bank sizes numpy's
    strided reduction over the middle axis costs several times more.
    """
    return np.full((1, x.shape[1]), 1.0 / x.shape[1]) @ x


def kernel_fwd(bank: KernelBank, mc_batch, normalize: bool = True):
    """Determinant-kernel forward; returns (out (B, k), cache).

    out[b, k] = det(M_b) * s_k / sigma_bk^3 with s_k = sqrt(max(det G_k, 0)),
    G_k = W_eff^T W_eff, W_eff = gamma * C_k, C_k the slice centred along
    d_p, and sigma_bk^2 = <C_k^T C_k, M_b M_b^T> / (3 d_p) + eps. Without
    normalization W_eff = w and sigma = 1. A rank-deficient slice
    (det G <= 0) reads out 0.
    """
    mc_batch = np.asarray(mc_batch, dtype=np.float64)
    if mc_batch.ndim != 3 or mc_batch.shape[1:] != (3, 3):
        raise NumericError(f"expected (B, 3, 3) chirality matrices, got {mc_batch.shape}")
    if not np.all(np.isfinite(mc_batch)):
        raise NumericError("chirality matrices contain non-finite values")
    if normalize and np.any(bank.beta != 0.0):
        raise NumericError("kernel shift beta must stay zero, the closed-form readout assumes it")
    n_batch = mc_batch.shape[0]
    k, d_p = bank.n_kernels, bank.d_p
    if n_batch == 0:
        return np.zeros((0, k)), (bank, mc_batch, normalize, None)
    det_m = det3_batch(mc_batch)
    if normalize:
        centered = bank.w - _row_mean(bank.w)
        w_eff = bank.gamma[None, :, None] * centered
        cc = centered.transpose(0, 2, 1) @ centered  # (k, 3, 3)
        mmt = mc_batch @ mc_batch.transpose(0, 2, 1)  # (B, 3, 3)
        sigma2 = mmt.reshape(n_batch, 9) @ cc.reshape(k, 9).T / (3 * d_p) + bank.eps
    else:
        centered = cc = mmt = None
        w_eff = bank.w
        sigma2 = np.ones((n_batch, k))
    gram = w_eff.transpose(0, 2, 1) @ w_eff
    s = np.sqrt(np.maximum(det3_batch(gram), 0.0))
    inv_sigma3 = 1.0 / (sigma2 * np.sqrt(sigma2))
    out = det_m[:, None] * s * inv_sigma3
    cache = (bank, mc_batch, normalize, (out, det_m, w_eff, centered, cc, mmt, gram, s,
                                         sigma2, inv_sigma3))
    return out, cache


def kernel_forward(bank: KernelBank, mc_batch, normalize: bool = True) -> np.ndarray:
    return kernel_fwd(bank, mc_batch, normalize)[0]


def kernel_bwd(cache, d_out):
    """Backward of kernel_fwd; returns (d_w, d_gamma, d_mc).

    d out / d M = cof(M) s / sigma^3 - out / (d_p sigma^2) * C^T C M, which
    is smooth through det(M) = 0. Parameter gradients flow through s, with
    d s / d W_eff = W_eff adj(G) / s, and through sigma; only the k slice
    Grams are adjugated. s is not differentiable at det G = 0, so a
    rank-deficient slice raises DegeneracyError.
    """
    bank, mc_batch, normalize, saved = cache
    d_out = np.asarray(d_out, dtype=np.float64)
    d_gamma = np.zeros_like(bank.gamma)
    if saved is None:
        return np.zeros_like(bank.w), d_gamma, np.zeros_like(mc_batch)
    out, det_m, w_eff, centered, cc, mmt, gram, s, sigma2, inv_sigma3 = saved
    dead = np.flatnonzero(s <= 0.0)
    if dead.size:
        raise DegeneracyError(
            f"kernel slice {int(dead[0])} is rank-deficient (det G <= 0), "
            "its readout has no gradient"
        )
    n_batch, k = out.shape
    d_s = (d_out * det_m[:, None] * inv_sigma3).sum(axis=0)  # (k,)
    d_w_eff = (d_s / s)[:, None, None] * (w_eff @ cofactor3_batch(gram))
    d_mc = cofactor3_batch(mc_batch) * ((d_out * inv_sigma3) @ s)[:, None, None]
    if normalize:
        # through sigma: d loss / d M = -sum_k coef C^T C M and
        # d loss / d C = -C sum_b coef M M^T
        coef = d_out * out / (bank.d_p * sigma2)  # (B, k)
        d_mc -= (coef @ cc.reshape(k, 9)).reshape(n_batch, 3, 3) @ mc_batch
        coef_mmt = (coef.T @ mmt.reshape(n_batch, 9)).reshape(k, 3, 3)
        # summed over columns by matmul for the reason given in _row_mean
        d_gamma = ((d_w_eff * centered) @ np.ones(3)).sum(axis=0)
        d_c = bank.gamma[None, :, None] * d_w_eff - centered @ coef_mmt
        d_w = d_c - _row_mean(d_c)
    else:
        d_w = d_w_eff
    return d_w, d_gamma, d_mc


def regularization_loss(bank: KernelBank) -> float:
    """Sum over slices of ||w^T w - I_3||_F^2."""
    total = 0.0
    for kk in range(bank.n_kernels):
        diff = bank.w[kk].T @ bank.w[kk] - np.eye(3)
        total += float((diff * diff).sum())
    return total


def regularization_grad(bank: KernelBank) -> np.ndarray:
    d_w = np.zeros_like(bank.w)
    for kk in range(bank.n_kernels):
        w = bank.w[kk]
        d_w[kk] = 4.0 * w @ (w.T @ w - np.eye(3))
    return d_w


def retract_orthonormal(bank: KernelBank) -> KernelBank:
    """Replace every slice by the Q factor of its thin QR."""
    new_w = np.empty_like(bank.w)
    for kk in range(bank.n_kernels):
        res = qr_thin(bank.w[kk])
        if np.min(np.abs(np.diag(res.r))) < 1e-12:
            raise DegeneracyError(f"kernel slice {kk} is rank-deficient, cannot retract")
        new_w[kk] = res.q
    return KernelBank(w=new_w, gamma=bank.gamma, beta=bank.beta, eps=bank.eps)


def mlp2_fwd(mlp: Mlp2, x):
    x = np.asarray(x, dtype=np.float64)
    z1 = x @ mlp.w1.T + mlp.b1
    a1 = gelu(z1)
    out = a1 @ mlp.w2.T + mlp.b2
    return out, (x, z1, a1)


def mlp2_bwd(mlp: Mlp2, cache, d_out):
    x, z1, a1 = cache
    d_w2 = d_out.T @ a1
    d_b2 = d_out.sum(axis=0)
    d_a1 = d_out @ mlp.w2
    d_z1 = d_a1 * gelu_grad(z1)
    d_w1 = d_z1.T @ x
    d_b1 = d_z1.sum(axis=0)
    d_x = d_z1 @ mlp.w1
    return {"w1": d_w1, "b1": d_b1, "w2": d_w2, "b2": d_b2}, d_x


def unit_feature_rows(mol: Molecule) -> np.ndarray:
    """Feature input of proj_c, one row per chiral unit (axis rows average
    the two axis atoms)."""
    rows = []
    for unit in mol.chiral_units:
        if unit.kind is UnitKind.CENTER:
            rows.append(mol.features[unit.center_atoms[0]])
        else:
            a, b = unit.center_atoms
            rows.append(0.5 * (mol.features[a] + mol.features[b]))
    if not rows:
        return np.zeros((0, mol.features.shape[1]))
    return np.stack(rows)


def encode_fwd(params: EncoderParams, mol: Molecule, partition: AtomPartition):
    n_units = len(mol.chiral_units)
    h = params.global_token.shape[0]
    if n_units:
        mc_batch = np.stack([chirality_matrix(u, mol.coords).m for u in mol.chiral_units])
    else:
        mc_batch = np.zeros((0, 3, 3))
    dets, k_cache = kernel_fwd(params.kernels, mc_batch)
    feats_c = unit_feature_rows(mol)
    proj_out, c_cache = mlp2_fwd(params.proj_c, feats_c)
    h_c = np.vstack([params.global_token[None, :], dets + proj_out]) if n_units else params.global_token[None, :].copy()
    h_r, r_cache = mlp2_fwd(params.proj_r, mol.features[list(partition.related)])
    h_n, n_cache = mlp2_fwd(params.proj_n, mol.features[list(partition.nonchiral)])
    h_r = h_r.reshape(len(partition.related), h)
    h_n = h_n.reshape(len(partition.nonchiral), h)
    encoded = EncodedMolecule(
        h_c=h_c,
        h_r=h_r,
        h_n=h_n,
        chiral_positions=(
            np.stack([reference_point(u, mol.coords) for u in mol.chiral_units])
            if n_units
            else np.zeros((0, 3))
        ),
        related_positions=mol.coords[list(partition.related)].reshape(len(partition.related), 3),
        nonchiral_positions=mol.coords[list(partition.nonchiral)].reshape(len(partition.nonchiral), 3),
        related_indices=partition.related,
        nonchiral_indices=partition.nonchiral,
    )
    return encoded, (k_cache, c_cache, r_cache, n_cache, n_units)


def encode(params: EncoderParams, mol: Molecule, partition: AtomPartition) -> EncodedMolecule:
    return encode_fwd(params, mol, partition)[0]


def encode_bwd(params: EncoderParams, cache, d_hc, d_hr, d_hn):
    """Backward of encode_fwd.

    Returns (grads, d_mc): grads keyed by parameter group, d_mc the
    gradient with respect to the stacked chirality matrices.
    """
    k_cache, c_cache, r_cache, n_cache, n_units = cache
    d_token = d_hc[0].copy()
    d_rows = d_hc[1:]
    d_w, d_gamma, d_mc = kernel_bwd(k_cache, d_rows)
    d_proj_c, _ = mlp2_bwd(params.proj_c, c_cache, d_rows)
    d_proj_r, _ = mlp2_bwd(params.proj_r, r_cache, d_hr)
    d_proj_n, _ = mlp2_bwd(params.proj_n, n_cache, d_hn)
    grads = {
        "kernel.w": d_w,
        "kernel.gamma": d_gamma,
        "token": d_token,
        "proj_c": d_proj_c,
        "proj_r": d_proj_r,
        "proj_n": d_proj_n,
    }
    return grads, d_mc


def init_mlp2(rng, d_in: int, d_hidden: int, d_out: int) -> Mlp2:
    def xavier(n_out, n_in):
        bound = np.sqrt(6.0 / (n_in + n_out))
        return rng.uniform(-bound, bound, size=(n_out, n_in))

    return Mlp2(
        w1=xavier(d_hidden, d_in),
        b1=np.zeros(d_hidden),
        w2=xavier(d_out, d_hidden),
        b2=np.zeros(d_out),
    )


def init_kernel_bank(rng, n_kernels: int, d_p: int) -> KernelBank:
    """Slices start as random orthonormal columns (reg loss 0, alpha 1)."""
    w = np.empty((n_kernels, d_p, 3))
    for kk in range(n_kernels):
        w[kk] = qr_thin(rng.standard_normal((d_p, 3))).q
    return KernelBank(w=w, gamma=np.ones(d_p), beta=np.zeros(d_p))


def init_encoder(rng, d_f: int, h: int, d_p: int, rank_strategy: RankStrategy) -> EncoderParams:
    return EncoderParams(
        kernels=init_kernel_bank(rng, h, d_p),
        proj_c=init_mlp2(rng, d_f, h, h),
        proj_r=init_mlp2(rng, d_f, h, h),
        proj_n=init_mlp2(rng, d_f, h, h),
        global_token=rng.normal(0.0, 0.02, size=h),
        rank_strategy=rank_strategy,
    )
