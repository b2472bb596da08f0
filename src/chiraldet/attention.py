"""Distance-biased chiral cross-attention.

Chiral units (plus a global token) query the related and non-chiral atoms.
Attention logits carry an additive per-head pair bias seeded from a
Gaussian distance kernel conditioned on the pair type (related vs
non-chiral) and updated each layer with the pre-softmax logits, so the
bias telescopes across the stack.

The functions work on molecule batches padded to their largest member;
a BatchMask marks the valid queries and keys.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegeneracyError, NumericError
from .encoder import BatchMask, Mlp2, PairInputs, glorot, init_mlp2, mlp2_bwd, mlp2_fwd
from .numerics import gaussian, layer_norm_rows, layer_norm_rows_backward

N_PAIR_TYPES = 2  # 0: chiral-related, 1: non-chiral
SIGMA_FLOOR = 1e-6


@dataclass
class DistanceBiasParams:
    """Per-pair-type affine on distance feeding a bank of Gaussian densities,
    projected to one bias per attention head."""

    e1: np.ndarray  # (N_PAIR_TYPES, G)
    e2: np.ndarray  # (N_PAIR_TYPES, G)
    mu: np.ndarray  # (G,)
    sigma: np.ndarray  # (G,)
    w_p: np.ndarray  # (G, H)


@dataclass
class LayerParams:
    wq: np.ndarray
    wk_r: np.ndarray
    wv_r: np.ndarray
    wk_n: np.ndarray
    wv_n: np.ndarray
    wo: np.ndarray
    ff_w1: np.ndarray  # (4h, h)
    ff_b1: np.ndarray
    ff_w2: np.ndarray  # (h, 4h)
    ff_b2: np.ndarray
    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    n_heads: int

    @property
    def ff(self) -> Mlp2:
        """The feed-forward weights as the Mlp2 they form."""
        return Mlp2(w1=self.ff_w1, b1=self.ff_b1, w2=self.ff_w2, b2=self.ff_b2)


# The LayerParams leaves that attend_fwd reads, then those that
# feed_forward_fwd reads: together every array field, in declaration order
ATTENTION_LEAVES = ("wq", "wk_r", "wv_r", "wk_n", "wv_n", "wo")
FEED_FORWARD_LEAVES = ("ff_w1", "ff_b1", "ff_w2", "ff_b2",
                       "ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta")


def pair_bias_fwd(params: DistanceBiasParams, pairs: PairInputs):
    """Initial pair bias (B, Q, Kr + Kn, H) from chiral reference points to
    all key atoms; returns (bias, cache).

    Keys are the related atoms (type 0) followed by the non-chiral atoms
    (type 1); the token row and every pad entry stay zero. The distance
    bias runs once over the valid (unit, key) pairs of the whole batch,
    whose distances come prepared in `pairs`. A bias.sigma entry at or
    below SIGMA_FLOOR raises DegeneracyError: its density has no usable
    gradient.
    """
    low = np.flatnonzero(params.sigma <= SIGMA_FLOOR)
    if low.size:
        raise DegeneracyError(
            f"bias.sigma[{int(low[0])}] = {params.sigma[low[0]]:.3e} is at or below "
            f"SIGMA_FLOOR = {SIGMA_FLOOR:g}"
        )
    x = params.e1[pairs.types] * pairs.dists[:, None] + params.e2[pairs.types]
    dens = gaussian(x, params.mu, params.sigma)
    p = np.zeros(pairs.shape + (params.w_p.shape[1],))
    p[pairs.index] = dens @ params.w_p
    return p, (pairs, x, dens)


def pair_bias_bwd(params: DistanceBiasParams, cache, d_p) -> DistanceBiasParams:
    pairs, x, dens = cache
    d_bias = d_p[pairs.index]
    sig = params.sigma
    d_dens = d_bias @ params.w_p.T
    z = (x - params.mu) / sig
    d_x = d_dens * dens * (-z / sig)
    d_e1 = np.zeros_like(params.e1)
    d_e2 = np.zeros_like(params.e2)
    for t in range(N_PAIR_TYPES):
        mask = pairs.types == t
        if mask.any():
            d_e1[t] = (d_x[mask] * pairs.dists[mask, None]).sum(axis=0)
            d_e2[t] = d_x[mask].sum(axis=0)
    return DistanceBiasParams(
        e1=d_e1,
        e2=d_e2,
        mu=(d_dens * dens * (z / sig)).sum(axis=0),
        sigma=(d_dens * dens * ((z * z - 1.0) / sig)).sum(axis=0),
        w_p=dens.T @ d_bias,
    )


def _heads(x, n_heads):
    """(B, n, h) rows as (B, H, n, h / H) per-head blocks, so that the
    attention products are batched matmuls."""
    n_batch, n, h = x.shape
    return x.reshape(n_batch, n, n_heads, h // n_heads).transpose(0, 2, 1, 3)


def _rows(x):
    """(B, H, n, d) per-head blocks back to (B * n, H * d) rows."""
    n_batch, n_heads, n, d = x.shape
    return x.transpose(0, 2, 1, 3).reshape(n_batch * n, n_heads * d)


class LayerCache(NamedTuple):
    """What attend_bwd needs of attend_fwd; ctx holds one row per
    (molecule, query) pair."""

    h_c_in: np.ndarray
    h_r: np.ndarray
    h_n: np.ndarray
    qh: np.ndarray  # (B, H, Q, d)
    kh: np.ndarray  # (B, H, Kr + Kn, d)
    vh: np.ndarray
    attn: np.ndarray
    ctx: np.ndarray
    scale: float


class FeedForwardCache(NamedTuple):
    """What feed_forward_bwd needs of feed_forward_fwd, one row per
    (molecule, query) pair; ff[0] is the feed-forward's input."""

    ln1: tuple
    ff: tuple
    ln2: tuple


def attend_fwd(layer: LayerParams, h_c_in, h_r, h_n, bias_in, mask: BatchMask):
    """The attention half of one cross-attention layer over a padded batch;
    returns (u, bias_out, attn, cache).

    h_c_in and u are (B, Q, h), h_r (B, Kr, h), h_n (B, Kn, h), and bias_in
    and bias_out are (B, Q, Kr + Kn, H) pair biases. u = h_c_in + ctx woᵀ
    is the residual that feed_forward_fwd turns into the layer's output.
    bias_out holds the pre-softmax logits (query-key term plus incoming
    bias), which is what the next layer consumes; pad keys are masked
    inside the softmax, not in these logits. attn is (B, Q, Kr + Kn, H) and
    is exactly 0 on pad keys. A row with no valid key gets zero attention,
    so it keeps u = h_c_in. A molecule with chiral queries but no keys is
    a NumericError that gives the first such molecule as its row.
    """
    n_batch, n_q, h = h_c_in.shape
    n_heads = layer.n_heads
    if mask.first_keyless is not None:
        raise NumericError("chiral queries present but the key set is empty",
                           row=mask.first_keyless)
    qh = _heads(h_c_in @ layer.wq.T, n_heads)
    kh = _heads(np.concatenate([h_r @ layer.wk_r.T, h_n @ layer.wk_n.T], axis=1), n_heads)
    vh = _heads(np.concatenate([h_r @ layer.wv_r.T, h_n @ layer.wv_n.T], axis=1), n_heads)
    scale = 1.0 / math.sqrt(h // n_heads)
    scores = (qh @ kh.transpose(0, 1, 3, 2)).transpose(0, 2, 3, 1) * scale
    logits = scores + bias_in
    if not np.isfinite(logits).all():
        raise NumericError("non-finite attention logits")
    valid = mask.keys[:, None, :, None]
    row_max = np.where(valid, logits, -np.inf).max(axis=2, keepdims=True, initial=-np.inf)
    expd = np.exp(np.where(valid, logits - row_max, -np.inf))
    # a row with a valid key sums to >= 1 (its maximum contributes exp(0)),
    # so the floor only turns the 0/0 of a key-less row into 0
    attn = expd / np.maximum(expd.sum(axis=2, keepdims=True), 1.0)
    ctx = _rows(attn.transpose(0, 3, 1, 2) @ vh)
    u = h_c_in.reshape(-1, h) + ctx @ layer.wo.T
    cache = LayerCache(h_c_in, h_r, h_n, qh, kh, vh, attn, ctx, scale)
    return u.reshape(n_batch, n_q, h), logits, attn, cache


def attend_bwd(layer: LayerParams, cache: LayerCache, d_u, d_bias_out):
    """Backward of attend_fwd.

    d_bias_out is the gradient flowing into the emitted logits (from the
    next layer's bias input), an array or the scalar 0.0; the incoming bias
    gradient equals the total logit gradient because the bias enters
    additively. Each weight gradient is one matmul over the rows of the
    whole batch. Returns ({ATTENTION_LEAVES name: gradient}, d_h_c_in,
    d_h_r, d_h_n, d_bias_in).
    """
    c = cache
    n_batch, n_q, h = c.h_c_in.shape
    n_r = c.h_r.shape[1]
    n_heads = layer.n_heads

    d_u = d_u.reshape(-1, h)
    d_ctx = _heads((d_u @ layer.wo).reshape(n_batch, n_q, h), n_heads)
    d_attn = (d_ctx @ c.vh.transpose(0, 1, 3, 2)).transpose(0, 2, 3, 1)
    d_vflat = _rows(c.attn.transpose(0, 3, 2, 1) @ d_ctx).reshape(n_batch, -1, h)
    # softmax backward per (query, head); attn is 0 on pad keys, so is this
    inner = (d_attn * c.attn).sum(axis=2, keepdims=True)
    d_logits = c.attn * (d_attn - inner) + d_bias_out
    d_q = _rows(d_logits.transpose(0, 3, 1, 2) @ c.kh) * c.scale
    d_k = (_rows(d_logits.transpose(0, 3, 2, 1) @ c.qh) * c.scale).reshape(n_batch, -1, h)
    h_r = c.h_r.reshape(-1, h)
    h_n = c.h_n.reshape(-1, h)
    d_kr, d_kn = d_k[:, :n_r].reshape(-1, h), d_k[:, n_r:].reshape(-1, h)
    d_vr, d_vn = d_vflat[:, :n_r].reshape(-1, h), d_vflat[:, n_r:].reshape(-1, h)
    grads = {
        "wq": d_q.T @ c.h_c_in.reshape(-1, h),
        "wk_r": d_kr.T @ h_r,
        "wv_r": d_vr.T @ h_r,
        "wk_n": d_kn.T @ h_n,
        "wv_n": d_vn.T @ h_n,
        "wo": d_u.T @ c.ctx,
    }
    d_h_c = (d_u + d_q @ layer.wq).reshape(n_batch, n_q, h)
    d_h_r = (d_kr @ layer.wk_r + d_vr @ layer.wv_r).reshape(c.h_r.shape)
    d_h_n = (d_kn @ layer.wk_n + d_vn @ layer.wv_n).reshape(c.h_n.shape)
    return grads, d_h_c, d_h_r, d_h_n, d_logits


def feed_forward_fwd(layer: LayerParams, u):
    """The feed-forward half of one layer: ln1, the feed-forward with its
    residual, then ln2, row by row over attend_fwd's u (B, Q, h); returns
    (h_c_out, cache), h_c_out shaped as u. A layer norm's NumericError
    comes back with the row of its molecule."""
    n_q, h = u.shape[1:]
    try:
        u_ln, ln1_cache = layer_norm_rows(u.reshape(-1, h), layer.ln1_gamma, layer.ln1_beta)
        f, ff_cache = mlp2_fwd(layer.ff, u_ln)
        out, ln2_cache = layer_norm_rows(u_ln + f, layer.ln2_gamma, layer.ln2_beta)
    except NumericError as exc:
        raise NumericError(str(exc), row=exc.row // n_q) from exc
    return out.reshape(u.shape), FeedForwardCache(ln1_cache, ff_cache, ln2_cache)


def feed_forward_bwd(layer: LayerParams, cache: FeedForwardCache, d_out):
    """Backward of feed_forward_fwd: ({FEED_FORWARD_LEAVES name: gradient},
    d_u shaped as d_out)."""
    d_v, d_ln2_gamma, d_ln2_beta = layer_norm_rows_backward(
        d_out.reshape(-1, d_out.shape[-1]), cache.ln2, layer.ln2_gamma
    )
    d_ff, d_u_ln = mlp2_bwd(layer.ff, cache.ff, d_v)
    d_u, d_ln1_gamma, d_ln1_beta = layer_norm_rows_backward(
        d_v + d_u_ln, cache.ln1, layer.ln1_gamma
    )
    grads = {
        "ff_w1": d_ff.w1,
        "ff_b1": d_ff.b1,
        "ff_w2": d_ff.w2,
        "ff_b2": d_ff.b2,
        "ln1_gamma": d_ln1_gamma,
        "ln1_beta": d_ln1_beta,
        "ln2_gamma": d_ln2_gamma,
        "ln2_beta": d_ln2_beta,
    }
    return grads, d_u.reshape(d_out.shape)


def pool(h_c_final, query_mask) -> np.ndarray:
    """Token row plus the mean of the valid chiral rows (token alone if
    none), per molecule of a (B, Q, h) batch."""
    chiral = query_mask[:, 1:, None]
    n_units = np.maximum(chiral.sum(axis=1), 1)
    return h_c_final[:, 0] + np.where(chiral, h_c_final[:, 1:], 0.0).sum(axis=1) / n_units


def pool_bwd(d_pooled, query_mask) -> np.ndarray:
    chiral = query_mask[:, 1:, None]
    d_rows = np.where(chiral, (d_pooled / np.maximum(chiral.sum(axis=1), 1))[:, None, :], 0.0)
    return np.concatenate([d_pooled[:, None, :], d_rows], axis=1)


def init_distance_bias(rng, n_channels: int, n_heads: int) -> DistanceBiasParams:
    return DistanceBiasParams(
        e1=np.ones((N_PAIR_TYPES, n_channels)),
        e2=np.zeros((N_PAIR_TYPES, n_channels)),
        mu=np.linspace(0.0, 6.0, n_channels),
        sigma=np.ones(n_channels),
        w_p=glorot(rng, n_channels, n_heads),
    )


def init_layer(rng, h: int, n_heads: int) -> LayerParams:
    projections = {name: glorot(rng, h, h) for name in ("wq", "wk_r", "wv_r", "wk_n", "wv_n", "wo")}
    ff = init_mlp2(rng, h, 4 * h, h)
    return LayerParams(
        **projections,
        ff_w1=ff.w1,
        ff_b1=ff.b1,
        ff_w2=ff.w2,
        ff_b2=ff.b2,
        ln1_gamma=np.ones(h),
        ln1_beta=np.zeros(h),
        ln2_gamma=np.ones(h),
        ln2_beta=np.zeros(h),
        n_heads=n_heads,
    )


def head_averaged_rows(attn) -> np.ndarray:
    """Head-averaged attention weights for the chiral queries (token dropped)."""
    return attn[1:].mean(axis=2)
