"""End-to-end model: encoder -> cross-attention stack -> predictor head,
with hand-written reverse-mode gradients, Adam + cosine schedule, and a
checksummed binary checkpoint format.
"""

from __future__ import annotations

import functools
import hashlib
import math
import re
import struct
from collections.abc import Callable
from dataclasses import dataclass
from dataclasses import fields as dataclass_fields
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .attention import (
    SIGMA_FLOOR,
    DistanceBiasParams,
    LayerParams,
    head_averaged_rows,
    init_distance_bias,
    init_layer,
    layer_bwd,
    layer_fwd,
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
    _padded,
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
    ChiralDetError,
    DegeneracyError,
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
        for name in ("h", "n_heads", "n_gkpt", "n_classes", "d_f"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
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
        layers=[init_layer(rng, config.h) for _ in range(config.n_layers)],
        head=init_mlp2(rng, config.h, config.h, config.n_classes),
    )


def _leaves(params):
    """(field name, array) of every array field of a parameter dataclass,
    in declaration order; a non-array field such as KernelBank's kept
    factors is skipped."""
    return [(f.name, getattr(params, f.name)) for f in dataclass_fields(params)
            if isinstance(getattr(params, f.name), np.ndarray)]


def parameter_slots(model: ChiralModel):
    """(name, holder, field) of every tensor, in named_parameters order:
    the named array is getattr(holder, field), so setattr swaps it."""

    def fields(prefix, params):
        return [(f"{prefix}.{field}", params, field) for field, _ in _leaves(params)]

    enc = model.encoder
    yield from fields("encoder.kernel", enc.kernels)
    yield "encoder.token", enc, "global_token"
    for tag in ("proj_c", "proj_r", "proj_n"):
        yield from fields(f"encoder.{tag}", getattr(enc, tag))
    yield from fields("bias", model.distance_bias)
    for i, layer in enumerate(model.layers):
        yield from fields(f"layers.{i}", layer)
    yield from fields("head", model.head)


def named_parameters(model: ChiralModel):
    """Deterministically ordered (name, array) pairs over every tensor. On
    the ChiralModel of gradients that backward_batch returns, each gradient
    comes under its parameter's name."""
    for name, holder, field in parameter_slots(model):
        yield name, getattr(holder, field)


@dataclass
class BatchState:
    """Everything forward_batch computed that backward_batch needs, stage
    by stage.

    `outputs[t]` holds the arrays stage t wrote, under the names of its
    `writes`, each with the molecule on its first axis and padded to the
    batch's largest molecule (`batch.mask` marks the valid entries); a
    later stage's h_c or bias supersedes an earlier one. `caches[t]` is
    what stage t's backward needs.
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
    """One forward_batch stage, that of one part of the ChiralModel; its
    reads and writes are the only place an array's name is spelled.
    `forward(model, batch, *read arrays)` returns (*written arrays,
    cache); `backward(model, batch, cache, *gradients of the written
    arrays)` returns (its part's gradient, of the part's own type,
    *gradients of the read arrays). Both call what they run (kernel_fwd,
    mlp2_fwd, ...) by module name, so a wrapper set on a module attribute
    sees every call.

    Every stage's forward also takes one leaf, (k, *shape) or (k, 1, n)
    for a vector, or read arrays, (k, B, ...), with a leading axis of k
    copies, since it reads both only through products and reductions
    that run each copy's block alone (kernel_fwd, pair_bias_fwd, mlp2_fwd,
    layer_norm_rows, layer_fwd, a broadcast add): each array the copies
    move then holds the k copies' outputs on that leading axis, each copy
    the bytes of a forward with that copy alone, and every other array
    keeps its single shape. A stage reads no parameter outside its group,
    so a leaf of copies moves nothing upstream of its stage
    (parameter_stage): a gradient audit chunk is one _run_stages pass
    resumed at that stage, on the θ0 outputs of the stages before it."""

    name: str  # what a NumericError calls the stage and its outputs
    group: str  # the named_parameters prefix of its part: `encoder`, `layers.0`
    reads: tuple  # names of the arrays forward takes: the latest of each
    writes: tuple  # names of the arrays forward returns
    forward: Callable
    backward: Callable


def _encoder(model, batch):
    """The queries h_c, the global token row and then each unit's proj_c
    row plus its kernel channels, and the related and non-chiral keys h_r
    and h_n; the unit row of a non-finite chirality matrix becomes its
    molecule's. The sum is a new array and the token row is selected, not
    assigned, so that k copies of a kernel leaf, of the token, (k, 1, h),
    or of a proj_c leaf all broadcast to (k, B, Q, h)."""
    enc = model.encoder
    try:
        dets, kernel_cache = kernel_fwd(enc.kernels, batch.chirality)
    except NumericError as exc:
        raise NumericError(str(exc), row=int(batch.unit_slots[0][exc.row])) from exc
    rows, c_cache = mlp2_fwd(enc.proj_c, batch.unit_rows)
    queries = batch.mask.queries.shape
    h_c = _padded(rows, batch.unit_slots, queries) + _padded(dets, batch.unit_slots, queries)
    token_row = (np.arange(h_c.shape[-2]) == 0)[:, None]
    h_c = np.where(token_row, enc.global_token[..., None, :], h_c)
    rows, r_cache = mlp2_fwd(enc.proj_r, batch.related_rows)
    h_r = _padded(rows, batch.related_slots, (len(batch.ids), batch.k_r))
    rows, n_cache = mlp2_fwd(enc.proj_n, batch.nonchiral_rows)
    h_n = _padded(rows, batch.nonchiral_slots, batch.mask.keys[:, batch.k_r:].shape)
    return h_c, h_r, h_n, (kernel_cache, c_cache, r_cache, n_cache)


def _encoder_bwd(model, batch, cache, d_h_c, d_h_r, d_h_n):
    # h_c's token and pad rows hold no unit's kernel channels or proj_c row
    enc = model.encoder
    kernel_cache, c_cache, r_cache, n_cache = cache
    d_units = d_h_c[batch.unit_slots]
    return EncoderParams(
        kernels=kernel_bwd(kernel_cache, d_units),
        proj_c=mlp2_bwd(enc.proj_c, c_cache, d_units)[0],
        proj_r=mlp2_bwd(enc.proj_r, r_cache, d_h_r[batch.related_slots])[0],
        proj_n=mlp2_bwd(enc.proj_n, n_cache, d_h_n[batch.nonchiral_slots])[0],
        global_token=d_h_c[:, 0].sum(axis=0)),


def _pair_bias(model, batch):
    return pair_bias_fwd(model.distance_bias, batch.pairs)


def _pair_bias_bwd(model, batch, cache, d_bias):
    return pair_bias_bwd(model.distance_bias, cache, d_bias),


def _layer(i, model, batch, h_c, h_r, h_n, bias):
    return layer_fwd(model.layers[i], h_c, h_r, h_n, bias, batch.mask)


def _layer_bwd(i, model, batch, cache, d_h_c, d_bias, d_attn):
    # no stage reads attn, so its own gradient d_attn is 0.0
    return layer_bwd(model.layers[i], cache, d_h_c, d_bias)


def _head(model, batch, h_c):
    pooled = pool(h_c, batch.mask.queries)
    logits, cache = mlp2_fwd(model.head, pooled)
    return pooled, logits, cache


def _head_bwd(model, batch, cache, d_pooled, d_logits):
    # no stage reads pooled, so its own gradient d_pooled is 0.0
    d_head, d_x = mlp2_bwd(model.head, cache, d_logits)
    return d_head, pool_bwd(d_x, batch.mask.queries)


# built once per layer count, since every forward reads it
@functools.cache
def _stage_table(n_layers: int) -> tuple:
    return (
        Stage("encoder", "encoder", (), ("h_c", "h_r", "h_n"), _encoder, _encoder_bwd),
        Stage("pair bias", "bias", (), ("bias",), _pair_bias, _pair_bias_bwd),
        *(Stage(f"layer {i}", f"layers.{i}", ("h_c", "h_r", "h_n", "bias"),
                ("h_c", "bias", "attn"), functools.partial(_layer, i),
                functools.partial(_layer_bwd, i)) for i in range(n_layers)),
        Stage("pooling and head", "head", ("h_c",), ("pooled", "logits"), _head, _head_bwd),
    )


def forward_stages(model: ChiralModel) -> tuple:
    """The Stage of each forward_batch stage, in run order: one per part
    of the ChiralModel, the encoder, the pair bias, each layer and the
    head, so their groups are the named_parameters prefixes in order."""
    return _stage_table(len(model.layers))


def parameter_stage(model: ChiralModel, name: str) -> int:
    """The index in forward_stages of the one stage whose group is a named
    parameter's prefix, the only stage that reads the parameter."""
    for t, stage in enumerate(forward_stages(model)):
        if name.startswith(stage.group + "."):
            return t
    raise ValueError(f"no forward stage reads {name!r}")


def _stage_error(model, batch, outputs, row, message: str) -> NumericError:
    """A NumericError with the message. When row is not None, the message
    comes after the molecule at that row, named by its id, or by its index
    in the caller's sequence when the id is empty, and before the first
    stage whose output in `outputs` is non-finite for it, if one is. In a
    stacked pass, a leaf holding copies (a single leaf is 1- or 2-d, the
    kernels' w 3-d), row counts the k * B molecules in copy order: the
    copy is named too, and the walk reads its block of each output with a
    copy axis, one axis more than a lone forward's output has."""
    if row is None:
        return NumericError(message)
    copy, row = divmod(row, len(batch.ids))
    ndim = {"pooled": 2, "logits": 2, "bias": 4, "attn": 4}  # every other name: 3
    blocks = ((stage.name, arr[copy, row] if arr.ndim > ndim.get(name, 3) else arr[row])
              for stage, out in zip(forward_stages(model), outputs) for name, arr in out.items())
    first = next((stage for stage, block in blocks if not np.isfinite(block).all()), None)
    where = "" if first is None else f", first non-finite stage output: {first}"
    stacked = any(a.ndim > 2 + (n == "encoder.kernel.w") for n, a in named_parameters(model))
    return NumericError(f"molecule {batch.ids[row] or f'at index {batch.index[row]}'}"
                        f"{f', copy {copy}' if stacked else ''}: {message}{where}")


def _named(exc: ChiralDetError, where: str) -> ChiralDetError:
    """An error of exc's class whose message is exc's with `where: ` in
    front, to raise from exc, so the CLI's exit code does not move."""
    return type(exc)(f"{where}: {exc}")


def _run_stages(model: ChiralModel, batch: MoleculeBatch, caches: list | None = None,
                done=()) -> list:
    """The outputs of a forward over a prepared batch, per stage {name:
    array it wrote}: every stage of forward_stages in order on the latest
    array of each name it reads; parameter arithmetic only, so one batch
    serves any number of forwards under changing parameters. Each stage's
    cache is appended to `caches` when it is given, and dropped otherwise,
    so a forward-only pass holds no backward cache past its stage. It is
    the one stage loop; the gradient audit runs it with a leaf of copies.

    `done`, the outputs of the first t stages of an earlier pass over the
    same batch (such as `base[:t]`), seeds the arrays the stages read:
    only stages t on run, and the returned list starts with done's own
    dicts. The caller knows that no parameter of those stages has moved
    since, so the result holds the bytes of a full pass.

    A stage's NumericError comes back with the stage's name in front and,
    when it gives a row, named for that molecule (_stage_error), as do
    non-finite logits for the first molecule holding one; the walk for
    the first non-finite stage output reads the outputs of `done` too. A
    stage's DegeneracyError comes back with the stage's name in front.
    """
    outputs = list(done)
    arrays = {n: a for out in outputs for n, a in out.items()}  # the latest of each name
    for stage in forward_stages(model)[len(outputs):]:
        try:
            *written, cache = stage.forward(model, batch, *(arrays[n] for n in stage.reads))
        except NumericError as exc:
            raise _stage_error(model, batch, outputs, exc.row, f"{stage.name}: {exc}") from exc
        except DegeneracyError as exc:
            raise _named(exc, stage.name) from exc
        out = dict(zip(stage.writes, written, strict=True))
        arrays.update(out)
        outputs.append(out)
        if caches is not None:
            caches.append(cache)
    bad = np.flatnonzero(~np.isfinite(arrays["logits"]).all(axis=-1))
    if bad.size:
        raise _stage_error(model, batch, outputs, int(bad[0]), "non-finite logits")
    return outputs


def forward_batch(model: ChiralModel, batch: MoleculeBatch) -> BatchState:
    """Forward over a prepared batch (_run_stages), keeping every stage's
    cache for backward_batch."""
    caches = []
    outputs = _run_stages(model, batch, caches)
    return BatchState(batch=batch, stages=forward_stages(model), outputs=outputs, caches=caches)


def backward_batch(model: ChiralModel, state: BatchState, d_logits) -> ChiralModel:
    """Parameter gradients of a batch from d loss / d logits (B, n_classes),
    as a ChiralModel of the same shapes.

    Walks the stages in reverse, keeping the gradient of each array by
    name: a stage's backward takes the gradients of the arrays it wrote,
    the scalar 0.0 for one no later stage read, and those it returns for
    the arrays it read are added, from zero, into theirs, so h_r and h_n
    sum the layers from the last down. Each cache is released once
    consumed, so a state backpropagated before raises ValueError. A
    stage's backward error comes back, of its class, with the stage's
    name in front. Each stage's backward gives its part's gradient, which
    goes into the ChiralModel of gradients under the stage's group.
    """
    caches = state.caches
    if any(cache is None for cache in caches):
        raise ValueError("backward_batch needs every stage's cache: this state was consumed "
                         "by an earlier backward")
    d = {"logits": d_logits}  # gradient of each array, by name
    grads = {}  # gradient of each stage's part, by its group
    for t in reversed(range(len(caches))):
        stage = state.stages[t]
        try:
            grads[stage.group], *d_read = stage.backward(model, state.batch, caches[t],
                                                         *(d.pop(n, 0.0) for n in stage.writes))
        except ChiralDetError as exc:
            raise _named(exc, stage.name) from exc
        caches[t] = None
        for name, g in zip(stage.reads, d_read, strict=True):
            if name in d:
                d[name] += g
            else:
                # a new array, so later gradients add in place; a -0.0 of
                # g becomes 0.0, as in a sum from zero
                d[name] = 0.0 + g
    return ChiralModel(config=model.config, encoder=grads["encoder"], distance_bias=grads["bias"],
                       layers=[grads[f"layers.{i}"] for i in range(len(model.layers))],
                       head=grads["head"])


# molecules per cache-free forward of every forward-only caller.
# Larger chunks were not clearly faster over 1-6-unit molecules (16 beat 8
# in 33 of 48 alternating runs, its median 5% lower, inside 8's spread) and
# page-faulted more on their larger arrays (about 7,000 minor faults per
# 300-molecule evaluate at 16, against a few hundred at most at 8)
EVAL_CHUNK = 8


def _chunks(model: ChiralModel, mols, index=None):
    """The one forward-only path: yields (positions, batch, outputs) per
    chunk, positions being where the chunk's molecules sit in mols, in
    input order; index[i] is where mols[i] sits in the caller's dataset
    (i by default), which an error names for a molecule without an id.

    Chunks of EVAL_CHUNK are cut from the molecules stably sorted by (unit
    count, atom count), so a chunk pads little, and each runs as one
    cache-free _run_stages with its molecules in input order. So with
    several failing molecules, the first failing chunk in size order
    raises, naming its first failing molecule in input order. A lone
    molecule is a batch of one, with nothing padded. Molecules of another
    feature width than the model's d_f raise check_feature_width's
    ValueError before any chunk runs."""
    check_feature_width(model.config.d_f, zip(mols))
    index = range(len(mols)) if index is None else index
    order = sorted(range(len(mols)), key=lambda i: (len(mols[i].chiral_units), mols[i].n_atoms))
    for start in range(0, len(mols), EVAL_CHUNK):
        chunk = sorted(order[start : start + EVAL_CHUNK])
        batch = prepare_batch([mols[i] for i in chunk], [index[i] for i in chunk])
        yield chunk, batch, _run_stages(model, batch)


def _head_rows(model: ChiralModel, mols, name: str, index=None) -> np.ndarray:
    """The head stage's `name` array ("pooled" or "logits") over the
    molecules (_chunks), one row per molecule in input order."""
    rows = {}
    for chunk, _, outputs in _chunks(model, mols, index):
        rows.update(zip(chunk, outputs[-1][name]))
    return np.array([rows[i] for i in range(len(mols))])


def forward(model: ChiralModel, mol: Molecule) -> np.ndarray:
    return _head_rows(model, [mol], "logits")[0]


def embed(model: ChiralModel, mol: Molecule) -> np.ndarray:
    """Pooled pre-predictor representation."""
    return embed_rows(model, [mol])[0]


def embed_rows(model: ChiralModel, mols) -> np.ndarray:
    """(len(mols), h) pooled pre-predictor representations, in input order.
    A row depends on its chunk neighbours only at round-off."""
    return _head_rows(model, mols, "pooled")


def attention_export_rows(model: ChiralModel, mols) -> list:
    """Final-layer head-averaged attention rows of each molecule's chiral
    queries, in input order.

    Returns one (key_atom_indices, rows) per molecule, cut to its own
    queries and keys: one row per chiral unit, key order matching the
    index list.
    """
    out = {}
    for chunk, batch, outputs in _chunks(model, mols):
        attn = next(o["attn"] for o in reversed(outputs) if "attn" in o)
        for b, i in enumerate(chunk):
            queries, keys = batch.mask.queries[b, 1:], batch.mask.keys[b]
            out[i] = (batch.key_atoms[b, keys].tolist(),
                      head_averaged_rows(attn[b])[np.ix_(queries, keys)])
    return [out[i] for i in range(len(mols))]


def _onehot(label, n_classes: int) -> np.ndarray:
    """(..., n_classes) bool one-hot of class indices; raises ValueError for
    an index outside 0..n_classes - 1."""
    label = np.asarray(label)
    if np.any((label < 0) | (label >= n_classes)):
        raise ValueError(f"label {label} out of range")
    return np.arange(n_classes) == label[..., None]


def _row_sums(x) -> np.ndarray:
    """The sum along the last axis of each row of x, shaped x.shape[:-1],
    each the bytes of that row's sum alone: numpy adds a lone row of 8 or
    more entries, and each row of a C-contiguous stack, pairwise, but the
    rows of a strided stack (a boolean-masked one) in another order."""
    return np.ascontiguousarray(x).sum(axis=-1)


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


def dataset_to_pairs(dataset, n_classes: int):
    """(Molecule, Configuration|int) items -> (Molecule, class index) pairs
    for an n_classes head. A label that is neither R, S nor an integer in
    0..n_classes - 1 raises ValueError naming its item's index."""
    out = []
    for i, (mol, label) in enumerate(dataset):
        idx = CLASS_INDEX.get(label, label)
        if not (isinstance(idx, (int, np.integer)) and 0 <= idx < n_classes):
            shown = label.value if isinstance(label, Configuration) else label
            raise ValueError(f"item {i}: label {shown!r} names no class of the "
                             f"{n_classes}-class head (R=0, S=1)")
        out.append((mol, int(idx)))
    return out


def evaluate(model: ChiralModel, dataset) -> float:
    pairs = dataset_to_pairs(dataset, model.config.n_classes)
    if not pairs:
        raise ValueError("empty evaluation set")
    mols, labels = zip(*pairs)
    pred = _head_rows(model, mols, "logits").argmax(axis=1)
    return int((pred == labels).sum()) / len(pairs)


def check_feature_width(d_f: int, dataset):
    """Raise a ValueError naming d_f unless every molecule of the dataset,
    (Molecule, label) items, (hi, lo) pairs or (Molecule,) tuples, has d_f
    features per atom."""
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
          margin: float | None = None, adam: AdamState | None = None, log=None):
    """Deterministic training loop.

    `dataset` is a sequence of (Molecule, label) for classification; with
    `margin` set it holds (hi, lo) molecule pairs, trained by margin ranking
    under a 1-dim head. Shuffling derives from config.seed, so identical
    seeds give identical loss curves. The cosine schedule spans this call's
    steps whatever `adam` holds, and Adam's bias correction counts on from
    `adam.step`. `log`, if given, gets each epoch's `EpochRecord.as_line()`.
    Returns the list of per-epoch records. A val_dataset that is empty or
    holds a label or feature width the model cannot score raises
    ValueError before the first step. A step's ChiralDetError comes
    back, of its class, as `training step N failed: ...`. A last step
    that leaves a bias.sigma entry at or below SIGMA_FLOOR raises nothing
    here, but load_checkpoint refuses a checkpoint holding it.
    """
    cfg.validate()
    check_rank_penalty(model.config.rank_strategy, cfg.reg_weight)
    if margin is None:
        data = dataset_to_pairs(dataset, model.config.n_classes)
    else:
        ranking = rank_loss(margin)
        if val_dataset is not None:
            raise ValueError("val_dataset holds labels, which margin ranking does not score")
        data = list(dataset)
    if not data:
        raise ValueError("empty training set")
    # the validation set's labels, emptiness and width before the first
    # step, not in evaluate after an epoch's steps
    if val_dataset is not None:
        val_dataset = dataset_to_pairs(val_dataset, model.config.n_classes)
        if not val_dataset:
            raise ValueError("empty validation set")
    check_feature_width(model.config.d_f, [*data, *(val_dataset or ())])
    rng = np.random.default_rng(model.config.seed + 0x5EED)
    n_batches = math.ceil(len(data) / cfg.batch_size)
    total_steps = cfg.epochs * n_batches
    if adam is None:
        adam = AdamState.for_model(model)
    records = []
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
                if math.isfinite(loss):
                    adam_step(model, grads, adam, lr_now)
                    if model.config.rank_strategy is RankStrategy.QR_RETRACTION:
                        model.encoder.kernels = retract_orthonormal(model.encoder.kernels)
            except ChiralDetError as exc:
                raise _named(exc, f"training step {step} failed") from exc
            if not math.isfinite(loss):
                bad = next((name for name, g in named_parameters(grads)
                            if not np.isfinite(g).all()), None)
                raise NumericError(f"training diverged at step {step}: " + (
                    f"first non-finite gradient: {bad}" if bad else "every gradient is finite"))
            del grads  # not held while the next batch's forward caches fill
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
        if log:
            log(record.as_line())
    return records


def mirror_consistency(model: ChiralModel, dataset) -> tuple[float, float]:
    """(accuracy, fraction of correctly classified molecules whose mirror
    gets the opposite class). Without a correct prediction the fraction is
    0/0, returned as NaN; an empty dataset raises ValueError, as in
    evaluate."""
    pairs = dataset_to_pairs(dataset, model.config.n_classes)
    if not pairs:
        raise ValueError("empty evaluation set")
    mols, labels = zip(*pairs)
    pred = _head_rows(model, mols, "logits").argmax(axis=1)
    right = pred == labels
    correct = int(right.sum())
    if correct == 0:
        return 0.0, math.nan
    kept = np.flatnonzero(right)
    pred_m = _head_rows(model, [mirror(mols[i]) for i in kept], "logits", kept).argmax(axis=1)
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


def _check_header_dimensions(config: ModelConfig, tensors: dict):
    """Raise CheckpointShapeError, naming the tensor, unless each header
    dimension is that of the parsed tensors that fix it, so that
    init_model allocates nothing larger than the payload: h, d_p, d_f,
    n_gkpt, n_heads and n_classes come from four tensors' shapes and
    n_layers from the count of layers.*.wq tensors."""
    expected = {"encoder.kernel.w": (config.h, config.d_p, 3),
                "encoder.proj_c.w1": (config.h, config.d_f),
                "bias.w_p": (config.n_gkpt, config.n_heads),
                "head.w2": (config.n_classes, config.h)}
    for name, shape in expected.items():
        if name not in tensors:
            raise CheckpointShapeError(f"missing tensor {name}")
        if tensors[name].shape != shape:
            raise CheckpointShapeError(
                f"tensor {name} has shape {tensors[name].shape}, expected {shape}")
    n_layers = sum(re.fullmatch(r"layers\.\d+\.wq", name) is not None for name in tensors)
    if n_layers != config.n_layers:
        raise CheckpointShapeError(f"the tensor table holds {n_layers} layers.*.wq tensors, "
                                   f"expected n_layers={config.n_layers}")


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
    version, truncation, checksum, and shape failures; a version failure
    also covers a header field out of range, such as a negative step or
    count, a header line whose field is unknown and one repeating an
    earlier line's field, naming both lines; a truncation failure a file
    longer or shorter than its header, payload_bytes and checksum, such as
    one with bytes after the checksum, and a tensor table that does not end
    at payload_bytes; and a shape failure a tensor holding a non-finite
    value, a negative Adam second moment, a name the payload holds twice
    and a name the tensor table lacks, none of which a training run writes,
    a bias.sigma entry at or below SIGMA_FLOOR, which no forward can run,
    and a header dimension that the tensors' shapes contradict, checked
    before the model is allocated."""
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
    fields, line_of = {}, {}
    known = {f.name for f in dataclass_fields(ModelConfig)} | {"step", "tensors", "payload_bytes"}
    for lineno, line in enumerate(header[1:], start=2):
        key, _, value = line.partition("=")
        if key not in known:
            raise CheckpointVersionError(f"bad header field: unknown field {key!r} on line "
                                         f"{lineno}")
        if key in line_of:
            raise CheckpointVersionError(f"bad header field: {key!r} on line {lineno} repeats "
                                         f"line {line_of[key]}")
        fields[key], line_of[key] = value, lineno
    try:
        n_tensors, payload_bytes, step = (int(fields[f])
                                          for f in ("tensors", "payload_bytes", "step"))
        # a negative step would make Adam's bias correction divide by
        # 1 - beta**0 = 0
        for field, value in (("tensors", n_tensors), ("payload_bytes", payload_bytes),
                             ("step", step)):
            if value < 0:
                raise ValueError(f"{field} must be >= 0, got {value}")
        config = _config_from_header(fields).validate()
    except (KeyError, ValueError) as exc:
        raise CheckpointVersionError(f"bad header field: {exc}") from None
    expected_len = sep + 2 + payload_bytes + 32
    if len(raw) != expected_len:
        raise CheckpointTruncatedError(
            f"file is {len(raw)} bytes, expected {expected_len}"
        )
    blob, digest = raw[: sep + 2 + payload_bytes], raw[sep + 2 + payload_bytes :]
    if hashlib.sha256(blob).digest() != digest:
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
            if name in tensors:
                raise CheckpointShapeError(f"tensor {name} appears twice in the payload")
            tensors[name] = np.frombuffer(buf, dtype="<f8", count=size,
                                          offset=offset).reshape(shape)
            offset += 8 * size
    except (struct.error, ValueError, OverflowError) as exc:
        # OverflowError: a size field of 2**63 or more, past np.frombuffer's count
        raise CheckpointTruncatedError(f"payload ended early: {exc}") from None
    if offset != payload_bytes:
        raise CheckpointTruncatedError(
            f"{n_tensors} tensors end at byte {offset} of a {payload_bytes}-byte payload"
        )

    _check_header_dimensions(config, tensors)
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
        bad = np.flatnonzero(tensors[name] <= SIGMA_FLOOR) if name == "bias.sigma" else bad
        if bad.size:
            raise CheckpointShapeError(
                f"tensor {name} holds bias.sigma[{int(bad[0])}] = {tensors[name][bad[0]]:.3e}, "
                f"at or below SIGMA_FLOOR = {SIGMA_FLOOR:g}, which no forward can run"
            )
        target[...] = tensors.pop(name)
    if tensors:
        raise CheckpointShapeError(f"tensor {next(iter(tensors))} is not in the tensor table")
    return model, adam

