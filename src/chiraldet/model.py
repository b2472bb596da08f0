"""End-to-end model: encoder -> cross-attention stack -> predictor head,
with hand-written reverse-mode gradients, Adam + cosine schedule, and a
checksummed binary checkpoint format.
"""

from __future__ import annotations

import functools
import hashlib
import math
import struct
from collections.abc import Callable
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .attention import (
    ATTENTION_LEAVES,
    FEED_FORWARD_LEAVES,
    DistanceBiasParams,
    LayerParams,
    attend_bwd,
    attend_fwd,
    feed_forward_bwd,
    feed_forward_fwd,
    head_averaged_rows,
    init_distance_bias,
    init_layer,
    pair_bias_bwd,
    pair_bias_fwd,
    pool,
    pool_bwd,
)
from .encoder import (
    EncoderParams,
    Mlp2,
    MoleculeBatch,
    RankStrategy,
    init_encoder,
    init_mlp2,
    kernel_bwd,
    kernel_fwd,
    mlp2_bwd,
    mlp2_fwd,
    prepare_batch,
    regularization_grad,
    regularization_loss,
    retract_orthonormal,
)
from .errors import (
    CheckpointChecksumError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    NumericError,
)
from .geometry import Configuration, Molecule, mirror

LABEL_CLASSES = (Configuration.R, Configuration.S)
CLASS_INDEX = {c: i for i, c in enumerate(LABEL_CLASSES)}


@dataclass
class ModelConfig:
    h: int = 64
    d_p: int = 32
    n_layers: int = 4
    n_heads: int = 2
    n_gkpt: int = 64
    d_f: int = 52
    rank_strategy: RankStrategy = RankStrategy.QR_RETRACTION
    n_classes: int = 2
    seed: int = 0

    def validate(self):
        for name in ("h", "n_heads", "n_gkpt", "n_classes"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.h % self.n_heads != 0:
            raise ValueError("hidden width must be divisible by head count")
        if self.n_layers < 1:
            raise ValueError("need at least one attention layer")
        if self.d_p < 4:
            # centring along d_p costs one rank: a d_p = 3 slice has det G = 0,
            # so every kernel channel is 0 and the model is chirality-blind
            raise ValueError(f"projection dimension d_p must be >= 4, got {self.d_p}")
        return self


@dataclass
class TrainConfig:
    lr: float = 5e-4
    epochs: int = 10
    batch_size: int = 32
    reg_weight: float = 0.0
    min_lr_factor: float = 0.1

    def validate(self):
        for f in dataclass_fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.lr <= 0 or self.epochs < 1:
            raise ValueError("lr must be positive and epochs >= 1")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.reg_weight < 0:
            raise ValueError(f"reg_weight must be non-negative, got {self.reg_weight}")
        if not 0.0 <= self.min_lr_factor <= 1.0:
            # a negative floor turns the end of the cosine schedule into ascent
            raise ValueError(f"min_lr_factor must be in [0, 1], got {self.min_lr_factor}")
        return self


@dataclass
class ChiralModel:
    config: ModelConfig
    encoder: EncoderParams
    distance_bias: DistanceBiasParams
    layers: list[LayerParams]
    head: Mlp2


def init_model(config: ModelConfig) -> ChiralModel:
    config.validate()
    rng = np.random.default_rng(config.seed)
    encoder = init_encoder(rng, config.d_f, config.h, config.d_p)
    if config.rank_strategy is RankStrategy.QR_RETRACTION:
        encoder.kernels = retract_orthonormal(encoder.kernels)
    return ChiralModel(
        config=config,
        encoder=encoder,
        distance_bias=init_distance_bias(rng, config.n_gkpt, config.n_heads),
        layers=[init_layer(rng, config.h, config.n_heads) for _ in range(config.n_layers)],
        head=init_mlp2(rng, config.h, config.h, config.n_classes),
    )


def _leaves(params):
    """(field name, array) of every array field of a parameter dataclass,
    in declaration order; a non-array field such as n_heads is skipped."""
    return [(f.name, getattr(params, f.name)) for f in dataclass_fields(params)
            if isinstance(getattr(params, f.name), np.ndarray)]


def named_parameters(model: ChiralModel):
    """Deterministically ordered (name, array) pairs over every tensor. On
    the ChiralModel of gradients that backward_batch returns, each gradient
    comes under its parameter's name."""
    enc = model.encoder
    groups = [("encoder.kernel", enc.kernels), ("encoder.token", enc.global_token)]
    groups += [(f"encoder.{tag}", getattr(enc, tag)) for tag in ("proj_c", "proj_r", "proj_n")]
    groups += [("bias", model.distance_bias)]
    groups += [(f"layers.{i}", layer) for i, layer in enumerate(model.layers)]
    groups += [("head", model.head)]
    for prefix, params in groups:
        if isinstance(params, np.ndarray):
            yield prefix, params
        else:
            for name, arr in _leaves(params):
                yield f"{prefix}.{name}", arr


@dataclass
class BatchState:
    """Everything forward_batch computed that backward or exports need,
    stage by stage.

    `outputs[t]` holds the arrays stage t wrote, by name, each with the
    molecule on its first axis and padded to the batch's largest molecule
    (`batch.mask` marks the valid entries); a later stage's h_c or bias
    supersedes an earlier one. `caches[t]` is what stage t's backward
    needs.
    """

    batch: MoleculeBatch
    stages: tuple  # forward_stages of the model
    outputs: list  # per stage, {name: array}
    caches: list  # per stage; None once backpropagated

    @property
    def attn(self) -> list:
        """Each layer's attention (B, Q, Kr + Kn, H), per layer."""
        return [out["attn"] for out in self.outputs if "attn" in out]

    @property
    def pooled(self) -> np.ndarray:
        """(B, h), which the last stage, the head's, wrote."""
        return self.outputs[-1]["pooled"]

    @property
    def logits(self) -> np.ndarray:
        """(B, n_classes), which the last stage, the head's, wrote."""
        return self.outputs[-1]["logits"]


class Stage(NamedTuple):
    """One forward_batch stage. `forward(model, batch, arrays)`, given the
    latest array of each name, returns ({name: array it writes}, cache);
    `backward(model, batch, cache, {name: gradient of an array it wrote})`
    returns ({group: gradient}, {name: gradient of an array it read}).
    Both call what they run (kernel_fwd, mlp2_fwd, ...) by module name,
    so a wrapper set on a module attribute sees every call.

    A group is a named_parameters prefix (`head`) or, for a layer, whose
    parameters two stages split, a single parameter (`layers.0.wq`)."""

    name: str  # what a NumericError calls the stage and its outputs
    groups: tuple  # the named_parameters groups that only this stage reads
    forward: Callable
    backward: Callable


def _padded(rows, slots, shape) -> np.ndarray:
    """Rows stacked over a batch, placed at their (molecule, slot) index
    arrays in a zero array of shape + the row width."""
    out = np.zeros(shape + rows.shape[1:])
    out[slots] = rows
    return out


def _kernel_readout(model, batch, arrays):
    """h_k (B, Q, h): each unit's kernel channels, padded as the queries."""
    dets, cache = kernel_fwd(model.encoder.kernels, batch.chirality)
    return {"h_k": _padded(dets, batch.unit_slots, batch.mask.queries.shape)}, cache


def _kernel_readout_bwd(model, batch, cache, d):
    return {"encoder.kernel": kernel_bwd(cache, d["h_k"][batch.unit_slots])[0]}, {}


def _queries(model, batch, arrays):
    """h_c (B, Q, h): the global token row, then each unit's proj_c row
    plus its kernel channels h_k."""
    rows, cache = mlp2_fwd(model.encoder.proj_c, batch.unit_rows)
    h_c = _padded(rows, batch.unit_slots, batch.mask.queries.shape)
    h_c += arrays["h_k"]
    h_c[:, 0] = model.encoder.global_token
    return {"h_c": h_c}, cache


def _queries_bwd(model, batch, cache, d):
    # h_k's token and pad rows are zeros that the kernel never reads back
    d_h_c = d["h_c"]
    d_proj_c = mlp2_bwd(model.encoder.proj_c, cache, d_h_c[batch.unit_slots])[0]
    return {"encoder.token": d_h_c[:, 0].sum(axis=0), "encoder.proj_c": d_proj_c}, {"h_k": d_h_c}


def _related_keys(model, batch, arrays):
    """h_r (B, Kr, h): the proj_r row of every related key."""
    rows, cache = mlp2_fwd(model.encoder.proj_r, batch.related_rows)
    return {"h_r": _padded(rows, batch.related_slots, (len(batch.ids), batch.k_r))}, cache


def _related_keys_bwd(model, batch, cache, d):
    d_rows = d["h_r"][batch.related_slots]
    return {"encoder.proj_r": mlp2_bwd(model.encoder.proj_r, cache, d_rows)[0]}, {}


def _nonchiral_keys(model, batch, arrays):
    """h_n (B, Kn, h): the proj_n row of every non-chiral key."""
    rows, cache = mlp2_fwd(model.encoder.proj_n, batch.nonchiral_rows)
    shape = batch.mask.keys[:, batch.k_r:].shape
    return {"h_n": _padded(rows, batch.nonchiral_slots, shape)}, cache


def _nonchiral_keys_bwd(model, batch, cache, d):
    d_rows = d["h_n"][batch.nonchiral_slots]
    return {"encoder.proj_n": mlp2_bwd(model.encoder.proj_n, cache, d_rows)[0]}, {}


def _pair_bias(model, batch, arrays):
    """bias (B, Q, Kr + Kn, H): the initial pair bias."""
    bias, cache = pair_bias_fwd(model.distance_bias, batch.pairs)
    return {"bias": bias}, cache


def _pair_bias_bwd(model, batch, cache, d):
    return {"bias": pair_bias_bwd(model.distance_bias, cache, d["bias"])}, {}


def _layer_stages(i: int) -> tuple:
    """Attention layer i as two stages, both named for the layer. Its
    attention reads h_c, h_r, h_n and bias, writes the residual u, rewrites
    bias and writes its attention as attn, which no stage reads; its
    feed-forward reads u and rewrites h_c. Each owns its leaves of
    layers.i."""
    prefix = f"layers.{i}."

    def attend(model, batch, arrays):
        u, bias, attn, cache = attend_fwd(model.layers[i], arrays["h_c"], arrays["h_r"],
                                          arrays["h_n"], arrays["bias"], batch.mask)
        return {"u": u, "bias": bias, "attn": attn}, cache

    def attend_back(model, batch, cache, d):
        grads, d_h_c, d_h_r, d_h_n, d_bias = attend_bwd(model.layers[i], cache, d["u"],
                                                        d["bias"])
        return ({prefix + leaf: g for leaf, g in grads.items()},
                {"h_c": d_h_c, "h_r": d_h_r, "h_n": d_h_n, "bias": d_bias})

    def feed_forward(model, batch, arrays):
        h_c, cache = feed_forward_fwd(model.layers[i], arrays["u"])
        return {"h_c": h_c}, cache

    def feed_forward_back(model, batch, cache, d):
        grads, d_u = feed_forward_bwd(model.layers[i], cache, d["h_c"])
        return {prefix + leaf: g for leaf, g in grads.items()}, {"u": d_u}

    return (Stage(f"layer {i}", tuple(prefix + leaf for leaf in ATTENTION_LEAVES),
                  attend, attend_back),
            Stage(f"layer {i}", tuple(prefix + leaf for leaf in FEED_FORWARD_LEAVES),
                  feed_forward, feed_forward_back))


def _head(model, batch, arrays):
    """pooled (B, h), the pooled query rows, and logits (B, n_classes)."""
    pooled = pool(arrays["h_c"], batch.mask.queries)
    logits, cache = mlp2_fwd(model.head, pooled)
    return {"pooled": pooled, "logits": logits}, cache


def _head_bwd(model, batch, cache, d):
    d_head, d_pooled = mlp2_bwd(model.head, cache, d["logits"])
    return {"head": d_head}, {"h_c": pool_bwd(d_pooled, batch.mask.queries)}


# built once per layer count, since every forward_batch call reads it
@functools.cache
def _stage_table(n_layers: int) -> tuple:
    return (
        Stage("encoder", ("encoder.kernel",), _kernel_readout, _kernel_readout_bwd),
        Stage("encoder", ("encoder.token", "encoder.proj_c"), _queries, _queries_bwd),
        Stage("encoder", ("encoder.proj_r",), _related_keys, _related_keys_bwd),
        Stage("encoder", ("encoder.proj_n",), _nonchiral_keys, _nonchiral_keys_bwd),
        Stage("pair bias", ("bias",), _pair_bias, _pair_bias_bwd),
        *(stage for i in range(n_layers) for stage in _layer_stages(i)),
        Stage("pooling and head", ("head",), _head, _head_bwd),
    )


def forward_stages(model: ChiralModel) -> tuple:
    """The Stage of each forward_batch stage, in run order. Their groups,
    stage after stage, are the named_parameters groups in order."""
    return _stage_table(len(model.layers))


def parameter_stage(model: ChiralModel, name: str) -> int:
    """The index in forward_stages of the one stage whose groups hold a
    named parameter or its group."""
    for t, stage in enumerate(forward_stages(model)):
        if name in stage.groups or name.rpartition(".")[0] in stage.groups:
            return t
    raise ValueError(f"no forward stage reads {name!r}")


def _molecule(batch: MoleculeBatch, b: int) -> str:
    """How an error names molecule b of a batch: by its id, or by its index
    in the caller's sequence when the id is empty."""
    return f"molecule {batch.ids[b] or f'at index {batch.index[b]}'}"


def forward_batch(model: ChiralModel, batch: MoleculeBatch) -> BatchState:
    """Forward over a prepared batch, every stage of forward_stages in
    order; parameter arithmetic only, so one batch serves any number of
    forwards under changing parameters.

    A NumericError a stage raises comes back with the stage's name in
    front, and before that the molecule's when the error gives its row.
    Non-finite logits raise NumericError naming the first molecule whose
    logits are non-finite and the first stage whose output is non-finite
    for it.
    """
    stages = forward_stages(model)
    outputs, caches, arrays = [], [], {}  # arrays: the latest array of each name
    for stage in stages:
        try:
            out, cache = stage.forward(model, batch, arrays)
        except NumericError as exc:
            who = "" if exc.row is None else f"{_molecule(batch, exc.row)}: "
            raise NumericError(f"{who}{stage.name}: {exc}") from exc
        arrays.update(out)
        outputs.append(out)
        caches.append(cache)
    state = BatchState(batch=batch, stages=stages, outputs=outputs, caches=caches)
    logits = arrays["logits"]
    if not np.isfinite(logits).all():
        b = int(np.flatnonzero(~np.isfinite(logits).all(axis=1))[0])
        # the walk ends at the molecule's logits, so it always finds a stage
        first = next(name for written in stage_outputs(state) for name, arr in written
                     if not np.isfinite(arr[b]).all())
        raise NumericError(f"{_molecule(batch, b)}: non-finite logits, "
                           f"first non-finite stage output: {first}")
    return state


def stage_outputs(state: BatchState) -> list:
    """Per forward_batch stage, (stage name, array) of each array it wrote,
    each with the molecule on its first axis."""
    return [[(stage.name, arr) for arr in out.values()]
            for stage, out in zip(state.stages, state.outputs)]


def backward_batch(model: ChiralModel, state: BatchState, d_logits) -> ChiralModel:
    """Parameter gradients of a batch from d loss / d logits (B, n_classes),
    as a ChiralModel of the same shapes.

    Walks the stages in reverse, keeping the gradient of each array by
    name: a stage's backward takes the gradients of the arrays it wrote,
    and those it returns for the arrays it read are added, from zero, into
    theirs, so h_r and h_n sum the layers from the last down. An array no
    later stage read (attn, pooled, the last layer's bias) gets the scalar
    0.0. Each cache is released once consumed, so a state backpropagated
    before raises ValueError.
    """
    caches = state.caches
    if any(cache is None for cache in caches):
        raise ValueError("backward_batch needs every stage's cache: this state was consumed "
                         "by an earlier backward")
    d = {"logits": d_logits}  # gradient of each array, by name
    grads = {}  # gradient of each named_parameters group
    for t in reversed(range(len(caches))):
        d_written = {name: d.pop(name, 0.0) for name in state.outputs[t]}
        stage_grads, d_read = state.stages[t].backward(model, state.batch, caches[t], d_written)
        caches[t] = None
        grads.update(stage_grads)
        for name, g in d_read.items():
            if name in d:
                d[name] += g
            else:
                # a new array, so later gradients add in place; a -0.0 of
                # g becomes 0.0, as in a sum from zero
                d[name] = 0.0 + g
    encoder = EncoderParams(kernels=grads["encoder.kernel"], global_token=grads["encoder.token"],
                            proj_c=grads["encoder.proj_c"], proj_r=grads["encoder.proj_r"],
                            proj_n=grads["encoder.proj_n"])
    return ChiralModel(config=model.config, encoder=encoder, distance_bias=grads["bias"],
                       layers=[LayerParams(**{leaf: grads[f"layers.{i}.{leaf}"]
                                              for leaf in ATTENTION_LEAVES + FEED_FORWARD_LEAVES},
                                           n_heads=layer.n_heads)
                               for i, layer in enumerate(model.layers)],
                       head=grads["head"])


def forward(model: ChiralModel, mol: Molecule) -> np.ndarray:
    return forward_batch(model, prepare_batch([mol])).logits[0]


def embed(model: ChiralModel, mol: Molecule) -> np.ndarray:
    """Pooled pre-predictor representation."""
    return forward_batch(model, prepare_batch([mol])).pooled[0]


def _onehot(label, n_classes: int) -> np.ndarray:
    """(..., n_classes) bool one-hot of class indices; raises ValueError for
    an index outside 0..n_classes - 1."""
    label = np.asarray(label)
    if np.any((label < 0) | (label >= n_classes)):
        raise ValueError(f"label {label} out of range")
    return np.arange(n_classes) == label[..., None]


def _row_sums(x) -> np.ndarray:
    """The sum along the last axis of each row of x, shaped x.shape[:-1],
    each taken as a sum of that row alone: numpy adds a lone row of 8 or
    more entries pairwise, but a stack of rows in another order."""
    rows = x.reshape(-1, x.shape[-1])
    return np.reshape([row.sum() for row in rows], x.shape[:-1])


def loss_margin_rank(score_hi, score_lo, margin: float):
    """Sum of max(0, margin - (score_hi - score_lo)) over paired scores
    along their last axis, a scalar being one pair, so each row of stacked
    scores gets its own sum, as an array of their leading shape; returns
    (loss, d_hi, d_lo)."""
    if margin < 0:
        raise ValueError("margin must be non-negative")
    gap = margin - (np.asarray(score_hi, dtype=np.float64) - np.asarray(score_lo, dtype=np.float64))
    active = (gap > 0).astype(np.float64)
    return _row_sums(np.maximum(np.atleast_1d(gap), 0.0)), -active, active


# An objective maps a batch's (B, n_classes) logits to (loss, d_logits,
# n_correct), a float and an int. It also scores k stacked copies of the
# batch, (k, B, n_classes) logits, in one call: loss and n_correct are then
# lists of k, each entry the bytes of the call on that copy alone
# (_row_sums).


def classify_loss(labels, n_classes: int):
    """The mean softmax cross-entropy objective of a batch with one class
    index per molecule, scored by an n_classes head. The labels are
    checked and one-hot encoded here, once per objective, not once per
    evaluation."""
    labels = np.asarray(labels)
    onehot = _onehot(labels, n_classes)

    def objective(logits):
        if logits.shape[-2:] != onehot.shape:
            raise ValueError(f"logits of shape {logits.shape} for {onehot.shape[0]} labels "
                             f"of {n_classes} classes")
        shifted = logits - logits.max(axis=-1, keepdims=True)
        lse = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
        loss = _row_sums((lse - shifted)[..., onehot]) / len(labels)
        d_logits = np.exp(shifted - lse) - onehot
        n_correct = (logits.argmax(axis=-1) == labels).sum(axis=-1)
        return loss.tolist(), d_logits / len(labels), n_correct.tolist()

    return objective


def rank_loss(margin: float):
    """The mean margin-ranking objective of a batch holding the his and then
    the los of its pairs, prepare_batch(his + los), scored by the single
    output of a 1-dim head; n_correct counts the correctly ordered pairs."""
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin must be finite and non-negative, got {margin}")

    def objective(logits):
        if logits.shape[-1] != 1:
            raise ValueError("margin ranking scores a 1-dim head, "
                             f"got n_classes={logits.shape[-1]}")
        n = logits.shape[-2] // 2
        hi, lo = logits[..., :n, 0], logits[..., n:, 0]
        total, d_hi, d_lo = loss_margin_rank(hi, lo, margin)
        d_logits = np.concatenate([d_hi, d_lo], axis=-1)[..., None] * (1.0 / n)
        return (total / n).tolist(), d_logits, (hi > lo).sum(axis=-1).tolist()

    return objective


def rank_penalty(model: ChiralModel, reg_weight: float) -> float:
    """The rank penalty batch_step adds to the objective's loss: reg_weight
    times the kernels' regularization_loss; 0.0, without computing it, when
    reg_weight is 0."""
    return reg_weight * regularization_loss(model.encoder.kernels) if reg_weight > 0.0 else 0.0


def batch_step(model: ChiralModel, batch: MoleculeBatch, objective, reg_weight: float):
    """An objective (classify_loss or rank_loss) over a prepared batch plus
    the rank penalty when enabled.

    Returns (loss, n_correct, grads).
    """
    state = forward_batch(model, batch)
    loss, d_logits, n_correct = objective(state.logits)
    grads = backward_batch(model, state, d_logits)
    if reg_weight > 0.0:
        grads.encoder.kernels.w += reg_weight * regularization_grad(model.encoder.kernels)
    return loss + rank_penalty(model, reg_weight), n_correct, grads


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


# Adam's moment decay rates and the guard added to sqrt(v_hat)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class AdamState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def for_model(cls, model: ChiralModel):
        return cls(
            m={n: np.zeros_like(a) for n, a in named_parameters(model)},
            v={n: np.zeros_like(a) for n, a in named_parameters(model)},
        )


def adam_step(model: ChiralModel, grads: ChiralModel, state: AdamState, lr: float):
    """One Adam update of the parameters, which change in place."""
    state.step += 1
    t = state.step
    for (name, param), (_, g) in zip(named_parameters(model), named_parameters(grads)):
        state.m[name] = ADAM_BETA1 * state.m[name] + (1.0 - ADAM_BETA1) * g
        state.v[name] = ADAM_BETA2 * state.v[name] + (1.0 - ADAM_BETA2) * g * g
        m_hat = state.m[name] / (1.0 - ADAM_BETA1**t)
        v_hat = state.v[name] / (1.0 - ADAM_BETA2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


def cosine_lr(step: int, total_steps: int, lr: float, min_lr_factor: float) -> float:
    """Cosine decay from lr to min_lr_factor*lr, hitting the floor exactly
    at the final 0-based step."""
    min_lr = min_lr_factor * lr
    if total_steps <= 1:
        return lr
    frac = step / (total_steps - 1)
    return min_lr + 0.5 * (lr - min_lr) * (1.0 + math.cos(math.pi * frac))


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_acc: float
    val_acc: float
    lr: float
    l_reg: float

    def as_line(self) -> str:
        return (
            f"epoch={self.epoch} train_loss={self.train_loss:.6f} "
            f"train_acc={self.train_acc:.4f} val_acc={self.val_acc:.4f} "
            f"lr={self.lr:.8f} l_reg={self.l_reg:.6e}"
        )


def dataset_to_pairs(dataset):
    """(Molecule, Configuration|int) -> (Molecule, class index)."""
    out = []
    for mol, label in dataset:
        idx = CLASS_INDEX[label] if isinstance(label, Configuration) else int(label)
        out.append((mol, idx))
    return out


# molecules per forward_batch in evaluate and mirror_consistency. A batch
# holds its forward caches until it is dropped, about 0.5 MB per multi-unit
# molecule at the default config, so chunks of 8 keep that near 4 MB; they
# ran within a few percent of the speed of larger chunks
EVAL_CHUNK = 8


def _predict(model: ChiralModel, mols, index) -> np.ndarray:
    """Predicted class per molecule, in forward_batch chunks of EVAL_CHUNK;
    index[i] is where mols[i] sits in the caller's dataset, which an error
    names for a molecule without an id."""
    return np.concatenate([
        forward_batch(model, prepare_batch(mols[i : i + EVAL_CHUNK], index[i : i + EVAL_CHUNK]))
        .logits.argmax(axis=1)
        for i in range(0, len(mols), EVAL_CHUNK)
    ])


def evaluate(model: ChiralModel, dataset) -> float:
    pairs = dataset_to_pairs(dataset)
    if not pairs:
        raise ValueError("empty evaluation set")
    mols, labels = zip(*pairs)
    return int((_predict(model, mols, range(len(mols))) == labels).sum()) / len(pairs)


def check_feature_width(d_f: int, dataset):
    """Raise a ValueError naming d_f unless every molecule of the dataset,
    (Molecule, label) items or (hi, lo) pairs, has d_f features per atom."""
    widths = {m.features.shape[1] for item in dataset for m in item if isinstance(m, Molecule)}
    if widths - {d_f}:
        raise ValueError(f"d_f={d_f} does not match the dataset's feature "
                         f"width {', '.join(map(str, sorted(widths)))}")


def check_rank_penalty(rank_strategy: RankStrategy, reg_weight: float):
    """Raise a ValueError naming both fields unless reg_weight > 0 exactly
    when rank_strategy is regularize: the penalty is what that strategy
    trains with, and the other strategies take none."""
    regularize = rank_strategy is RankStrategy.REGULARIZE
    if regularize != (reg_weight > 0.0):
        raise ValueError(f"rank_strategy={rank_strategy.value} needs reg_weight "
                         f"{'> 0' if regularize else '= 0'}, got reg_weight={reg_weight}")


def train(model: ChiralModel, dataset, cfg: TrainConfig, val_dataset=None,
          metrics_path=None, margin: float | None = None, adam: AdamState | None = None,
          log=None):
    """Deterministic training loop.

    `dataset` is a sequence of (Molecule, label) for classification; with
    `margin` set it holds (hi, lo) molecule pairs, trained by margin ranking
    under a 1-dim head. Shuffling derives from config.seed, so identical
    seeds give identical loss curves. The cosine schedule spans this call's
    steps whatever `adam` holds, and Adam's bias correction counts on from
    `adam.step`. Returns the list of per-epoch records.
    """
    cfg.validate()
    check_rank_penalty(model.config.rank_strategy, cfg.reg_weight)
    if margin is None:
        data = dataset_to_pairs(dataset)
    else:
        ranking = rank_loss(margin)
        if val_dataset is not None:
            raise ValueError("val_dataset holds labels, which margin ranking does not score")
        data = list(dataset)
    if not data:
        raise ValueError("empty training set")
    check_feature_width(model.config.d_f, data)
    rng = np.random.default_rng(model.config.seed + 0x5EED)
    n_batches = math.ceil(len(data) / cfg.batch_size)
    total_steps = cfg.epochs * n_batches
    if adam is None:
        adam = AdamState.for_model(model)
    records = []
    metrics_file = open(metrics_path, "a") if metrics_path else None
    try:
        step = 0
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(data))
            epoch_loss = 0.0
            epoch_correct = 0
            lr_now = cfg.lr
            for b in range(n_batches):
                batch = [data[i] for i in order[b * cfg.batch_size : (b + 1) * cfg.batch_size]]
                lr_now = cosine_lr(step, total_steps, cfg.lr, cfg.min_lr_factor)
                firsts, seconds = zip(*batch)
                if margin is None:
                    mols, objective = firsts, classify_loss(seconds, model.config.n_classes)
                else:
                    mols, objective = firsts + seconds, ranking
                try:
                    loss, correct, grads = batch_step(model, prepare_batch(mols), objective,
                                                      cfg.reg_weight)
                except NumericError as exc:
                    raise NumericError(f"training step {step} failed: {exc}") from exc
                if not math.isfinite(loss):
                    bad = next((name for name, g in named_parameters(grads)
                                if not np.isfinite(g).all()), None)
                    raise NumericError(f"training diverged at step {step}: " + (
                        f"first non-finite gradient: {bad}" if bad else "every gradient is finite"))
                adam_step(model, grads, adam, lr_now)
                del grads  # not held while the next batch's forward caches fill
                if model.config.rank_strategy is RankStrategy.QR_RETRACTION:
                    model.encoder.kernels = retract_orthonormal(model.encoder.kernels)
                epoch_loss += loss * len(batch)
                epoch_correct += correct
                step += 1
            val_acc = float("nan")
            if val_dataset is not None:
                val_acc = evaluate(model, val_dataset)
            record = EpochRecord(
                epoch=epoch,
                train_loss=epoch_loss / len(data),
                train_acc=epoch_correct / len(data),
                val_acc=val_acc,
                lr=lr_now,
                l_reg=regularization_loss(model.encoder.kernels),
            )
            records.append(record)
            if metrics_file:
                metrics_file.write(record.as_line() + "\n")
                metrics_file.flush()
            if log:
                log(record.as_line())
    finally:
        if metrics_file:
            metrics_file.close()
    return records


def mirror_consistency(model: ChiralModel, dataset) -> tuple[float, float]:
    """(accuracy, fraction of correctly classified molecules whose mirror
    gets the opposite class). Without a correct prediction the fraction is
    0/0, returned as NaN; an empty dataset raises ValueError, as in
    evaluate."""
    pairs = dataset_to_pairs(dataset)
    if not pairs:
        raise ValueError("empty evaluation set")
    mols, labels = zip(*pairs)
    pred = _predict(model, mols, range(len(mols)))
    right = pred == labels
    correct = int(right.sum())
    if correct == 0:
        return 0.0, math.nan
    kept = np.flatnonzero(right)
    pred_m = _predict(model, [mirror(mols[i]) for i in kept], kept)
    flipped = int((pred_m == 1 - pred[right]).sum())
    return correct / len(pairs), flipped / correct


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "chiraldet-checkpoint"
CHECKPOINT_VERSION = 1
# v1 stores a kernel shift of d_p zeros after the kernel gain. The model has
# no shift, which rigid-motion invariance and the closed-form kernel readout
# rely on, so a checkpoint whose shift is not all zero is rejected.
_V1_KERNEL_SHIFT = "encoder.kernel.beta"


def parse_config_value(name: str, text: str):
    """A ModelConfig field from its key=value text form: rank_strategy is a
    RankStrategy value, every other field an int."""
    return RankStrategy(text) if name == "rank_strategy" else int(text)


def _config_lines(config: ModelConfig) -> list[str]:
    lines = []
    for f in dataclass_fields(ModelConfig):
        value = getattr(config, f.name)
        lines.append(f"{f.name}={value.value if isinstance(value, RankStrategy) else value}")
    return lines


def _config_from_header(header: dict[str, str]) -> ModelConfig:
    return ModelConfig(**{f.name: parse_config_value(f.name, header[f.name])
                          for f in dataclass_fields(ModelConfig)})


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    name_b = name.encode()
    head = struct.pack("<I", len(name_b)) + name_b
    head += struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}q", *arr.shape)
    head += struct.pack("<Q", arr.size)
    return head + data


def _v1_tensors(named):
    """(name, array) pairs of a named_parameters walk in v1 file order: the
    zero kernel shift goes right after encoder.kernel.gamma."""
    for name, arr in named:
        yield name, arr
        if name == "encoder.kernel.gamma":
            yield _V1_KERNEL_SHIFT, np.zeros_like(arr)


def _tensor_table(model: ChiralModel, adam: AdamState | None):
    """(name, array) of every tensor a checkpoint holds, in file order: the
    model, then Adam's first and second moments when `adam` is given."""
    tensors = list(_v1_tensors(named_parameters(model)))
    if adam is not None:
        tensors += [(f"adam.m.{n}", a) for n, a in _v1_tensors(adam.m.items())]
        tensors += [(f"adam.v.{n}", a) for n, a in _v1_tensors(adam.v.items())]
    return tensors


def save_checkpoint(model: ChiralModel, path, adam: AdamState | None = None):
    """Versioned container: text header, length-prefixed little-endian
    float64 tensors, trailing sha256 checksum. Round-trips bit-exactly."""
    tensors = _tensor_table(model, adam)
    payload = b"".join(_pack_tensor(n, a) for n, a in tensors)
    header_lines = [f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}"]
    header_lines += _config_lines(model.config)
    header_lines.append(f"step={adam.step if adam else 0}")
    header_lines.append(f"tensors={len(tensors)}")
    header_lines.append(f"payload_bytes={len(payload)}")
    header = ("\n".join(header_lines) + "\n\n").encode()
    blob = header + payload
    Path(path).write_bytes(blob + hashlib.sha256(blob).digest())


def load_checkpoint(path):
    """Returns (model, adam_state or None). Raises distinct errors for
    version, truncation, checksum, and shape failures; a shape failure also
    covers a tensor holding a non-finite value and a negative Adam second
    moment, either of which no training run writes."""
    raw = Path(path).read_bytes()
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise CheckpointTruncatedError("missing header terminator")
    header = raw[: sep].decode(errors="replace").splitlines()
    if not header or not header[0].startswith(CHECKPOINT_MAGIC):
        raise CheckpointVersionError(f"not a checkpoint: {header[:1]}")
    version = header[0].removeprefix(CHECKPOINT_MAGIC).strip()
    if version != f"v{CHECKPOINT_VERSION}":
        raise CheckpointVersionError(f"unsupported checkpoint version {version!r}")
    fields = dict(line.split("=", 1) for line in header[1:] if "=" in line)
    try:
        n_tensors = int(fields["tensors"])
        payload_bytes = int(fields["payload_bytes"])
        step = int(fields["step"])
        config = _config_from_header(fields).validate()
    except (KeyError, ValueError) as exc:
        raise CheckpointVersionError(f"bad header field: {exc}") from None
    expected_len = sep + 2 + payload_bytes + 32
    if len(raw) < expected_len:
        raise CheckpointTruncatedError(
            f"file is {len(raw)} bytes, expected {expected_len}"
        )
    blob, digest = raw[: sep + 2 + payload_bytes], raw[sep + 2 + payload_bytes :]
    if hashlib.sha256(blob).digest() != digest[:32]:
        raise CheckpointChecksumError("checksum mismatch, checkpoint corrupted")

    tensors: dict[str, np.ndarray] = {}
    buf = memoryview(raw)[sep + 2 : sep + 2 + payload_bytes]
    offset = 0
    try:
        for _ in range(n_tensors):
            (name_len,) = struct.unpack_from("<I", buf, offset)
            offset += 4
            name = bytes(buf[offset : offset + name_len]).decode()
            offset += name_len
            (ndim,) = struct.unpack_from("<I", buf, offset)
            offset += 4
            shape = struct.unpack_from(f"<{ndim}q", buf, offset)
            offset += 8 * ndim
            (size,) = struct.unpack_from("<Q", buf, offset)
            offset += 8
            tensors[name] = np.frombuffer(buf, dtype="<f8", count=size,
                                          offset=offset).reshape(shape)
            offset += 8 * size
    except (struct.error, ValueError) as exc:
        raise CheckpointTruncatedError(f"payload ended early: {exc}") from None

    model = init_model(config)
    adam = None
    if any(n.startswith("adam.") for n in tensors):
        adam = AdamState.for_model(model)
        adam.step = step
    for name, target in _tensor_table(model, adam):
        if name not in tensors:
            raise CheckpointShapeError(f"missing tensor {name}")
        if tensors[name].shape != target.shape:
            raise CheckpointShapeError(
                f"tensor {name} has shape {tensors[name].shape}, expected {target.shape}"
            )
        if name == _V1_KERNEL_SHIFT and np.any(tensors[name] != 0.0):
            raise CheckpointShapeError(
                f"tensor {name} must be zero, the model has no kernel shift"
            )
        bad = np.flatnonzero(~np.isfinite(tensors[name]))
        if bad.size:
            raise CheckpointShapeError(
                f"tensor {name} holds a non-finite value at flat index {int(bad[0])}"
            )
        bad = np.flatnonzero(tensors[name] < 0.0) if name.startswith("adam.v.") else bad
        if bad.size:
            raise CheckpointShapeError(
                f"tensor {name} holds a negative second moment at flat index {int(bad[0])}"
            )
        target[...] = tensors[name]
    return model, adam


def attention_export_rows(model: ChiralModel, mol: Molecule):
    """Final-layer head-averaged attention rows for each chiral query.

    Returns (key_atom_indices, rows) with one row per chiral unit, key
    order matching the index list.
    """
    state = forward_batch(model, prepare_batch([mol]))
    # a batch of one has no padding, so its final attention is (n_q, n_k, H)
    return state.batch.key_atoms[0].tolist(), head_averaged_rows(state.attn[-1][0])
