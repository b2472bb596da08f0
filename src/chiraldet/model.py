"""End-to-end model: encoder -> cross-attention stack -> predictor head,
with hand-written reverse-mode gradients, Adam + cosine schedule, and a
checksummed binary checkpoint format.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .attention import (
    DistanceBiasParams,
    LayerParams,
    attend_bwd,
    attend_fwd,
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
    RankStrategy,
    encode_bwd,
    encode_fwd,
    init_encoder,
    init_mlp2,
    mlp2_bwd,
    mlp2_fwd,
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
from .geometry import Configuration, Molecule, mirror, partition_atoms

LABEL_CLASSES = (Configuration.R, Configuration.S)
CLASS_INDEX = {c: i for i, c in enumerate(LABEL_CLASSES)}

# the kernel-stage shift must stay zero for exact rigid-motion invariance and
# for the closed-form kernel readout
FROZEN_PARAMS = {"encoder.kernel.beta"}


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
    margin_weight: float = 1.0
    margin: float = 0.1
    min_lr_factor: float = 0.1

    def validate(self):
        if self.lr <= 0 or self.epochs < 1:
            raise ValueError("lr must be positive and epochs >= 1")
        if min(self.reg_weight, self.margin_weight, self.margin) < 0:
            raise ValueError("loss weights must be non-negative")
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
    encoder = init_encoder(rng, config.d_f, config.h, config.d_p, config.rank_strategy)
    if config.rank_strategy is RankStrategy.QR_RETRACTION:
        encoder.kernels = retract_orthonormal(encoder.kernels)
    return ChiralModel(
        config=config,
        encoder=encoder,
        distance_bias=init_distance_bias(rng, config.n_gkpt, config.n_heads),
        layers=[init_layer(rng, config.h, config.n_heads) for _ in range(config.n_layers)],
        head=init_mlp2(rng, config.h, config.h, config.n_classes),
    )


_MLP_FIELDS = ("w1", "b1", "w2", "b2")
_LAYER_FIELDS = (
    "wq", "wk_r", "wv_r", "wk_n", "wv_n", "wo",
    "ff_w1", "ff_b1", "ff_w2", "ff_b2",
    "ln1_gamma", "ln1_beta", "ln2_gamma", "ln2_beta",
)
_BIAS_FIELDS = ("e1", "e2", "mu", "sigma", "w_p")


def named_parameters(model: ChiralModel):
    """Deterministically ordered (name, array) pairs over every tensor."""
    yield "encoder.kernel.w", model.encoder.kernels.w
    yield "encoder.kernel.gamma", model.encoder.kernels.gamma
    yield "encoder.kernel.beta", model.encoder.kernels.beta
    yield "encoder.token", model.encoder.global_token
    for tag, mlp in (("proj_c", model.encoder.proj_c), ("proj_r", model.encoder.proj_r),
                     ("proj_n", model.encoder.proj_n)):
        for f in _MLP_FIELDS:
            yield f"encoder.{tag}.{f}", getattr(mlp, f)
    for f in _BIAS_FIELDS:
        yield f"bias.{f}", getattr(model.distance_bias, f)
    for i, layer in enumerate(model.layers):
        for f in _LAYER_FIELDS:
            yield f"layers.{i}.{f}", getattr(layer, f)
    for f in _MLP_FIELDS:
        yield f"head.{f}", getattr(model.head, f)


def zero_grads(model: ChiralModel) -> dict[str, np.ndarray]:
    return {name: np.zeros_like(arr) for name, arr in named_parameters(model)}


@dataclass
class ForwardState:
    """Everything forward computed that backward or exports need."""

    logits: np.ndarray
    pooled: np.ndarray
    partition: object
    encoded: object
    caches: dict = field(default_factory=dict)
    final_attn: np.ndarray | None = None
    all_attn: list = field(default_factory=list)


def forward_full(model: ChiralModel, mol: Molecule) -> ForwardState:
    part = partition_atoms(mol)
    encoded, enc_cache = encode_fwd(model.encoder, mol, part)
    bias, bias_cache = pair_bias_fwd(model.distance_bias, encoded)
    h_c = encoded.h_c
    layer_caches = []
    all_attn = []
    attn = None
    for i, layer in enumerate(model.layers):
        h_c, bias, attn, cache = attend_fwd(layer, h_c, encoded.h_r, encoded.h_n, bias, layer_index=i)
        layer_caches.append(cache)
        all_attn.append(attn)
    pooled = pool(h_c)
    logits, head_cache = mlp2_fwd(model.head, pooled[None, :])
    return ForwardState(
        logits=logits[0],
        pooled=pooled,
        partition=part,
        encoded=encoded,
        caches={
            "encode": enc_cache,
            "bias": bias_cache,
            "layers": layer_caches,
            "head": head_cache,
            "n_hc_rows": h_c.shape[0],
        },
        final_attn=attn,
        all_attn=all_attn,
    )


def forward(model: ChiralModel, mol: Molecule) -> np.ndarray:
    return forward_full(model, mol).logits


def embed(model: ChiralModel, mol: Molecule) -> np.ndarray:
    """Pooled pre-predictor representation."""
    return forward_full(model, mol).pooled


def backward_from_logits(model: ChiralModel, state: ForwardState, d_logits, grads):
    """Accumulate parameter gradients for one molecule into `grads`."""
    d_head, d_pooled = mlp2_bwd(model.head, state.caches["head"], d_logits[None, :])
    for f in _MLP_FIELDS:
        grads[f"head.{f}"] += d_head[f]
    d_h_c = pool_bwd(d_pooled[0], state.caches["n_hc_rows"])
    encoded = state.encoded
    d_h_r = np.zeros_like(encoded.h_r)
    d_h_n = np.zeros_like(encoded.h_n)
    d_bias = np.zeros(_bias_shape(state))
    for i in reversed(range(len(model.layers))):
        layer = model.layers[i]
        lgrads, d_h_c, d_hr_i, d_hn_i, d_bias = attend_bwd(
            layer, state.caches["layers"][i], d_h_c, d_bias
        )
        d_h_r += d_hr_i
        d_h_n += d_hn_i
        for f in _LAYER_FIELDS:
            grads[f"layers.{i}.{f}"] += lgrads[f]
    bgrads = pair_bias_bwd(model.distance_bias, state.caches["bias"], d_bias)
    for f in _BIAS_FIELDS:
        grads[f"bias.{f}"] += bgrads[f]
    egrads, _ = encode_bwd(model.encoder, state.caches["encode"], d_h_c, d_h_r, d_h_n)
    grads["encoder.kernel.w"] += egrads["kernel.w"]
    grads["encoder.kernel.gamma"] += egrads["kernel.gamma"]
    grads["encoder.token"] += egrads["token"]
    for tag in ("proj_c", "proj_r", "proj_n"):
        for f in _MLP_FIELDS:
            grads[f"encoder.{tag}.{f}"] += egrads[tag][f]


def _bias_shape(state: ForwardState):
    n_units = state.encoded.chiral_positions.shape[0]
    n_keys = state.encoded.h_r.shape[0] + state.encoded.h_n.shape[0]
    n_heads = state.final_attn.shape[2]
    return (1 + n_units, n_keys, n_heads)


def loss_classify(logits, label: int):
    """Softmax cross-entropy; returns (loss, d_logits)."""
    logits = np.asarray(logits, dtype=np.float64)
    if not 0 <= label < logits.shape[0]:
        raise ValueError(f"label {label} out of range")
    shifted = logits - logits.max()
    lse = math.log(np.exp(shifted).sum())
    loss = lse - shifted[label]
    probs = np.exp(shifted - lse)
    d_logits = probs
    d_logits[label] -= 1.0
    return float(loss), d_logits


def loss_margin_rank(score_hi: float, score_lo: float, margin: float):
    """max(0, margin - (score_hi - score_lo)); returns (loss, d_hi, d_lo)."""
    if margin < 0:
        raise ValueError("margin must be non-negative")
    gap = margin - (score_hi - score_lo)
    if gap > 0:
        return float(gap), -1.0, 1.0
    return 0.0, 0.0, 0.0


def batch_step_classify(model: ChiralModel, batch, reg_weight: float):
    """Mean cross-entropy over a batch plus the rank penalty when enabled.

    Returns (loss, n_correct, grads).
    """
    grads = zero_grads(model)
    total = 0.0
    correct = 0
    for mol, label in batch:
        state = forward_full(model, mol)
        loss, d_logits = loss_classify(state.logits, label)
        total += loss
        if int(np.argmax(state.logits)) == label:
            correct += 1
        backward_from_logits(model, state, d_logits / len(batch), grads)
    total /= len(batch)
    if reg_weight > 0.0:
        total += reg_weight * regularization_loss(model.encoder.kernels)
        grads["encoder.kernel.w"] += reg_weight * regularization_grad(model.encoder.kernels)
    return total, correct, grads


def batch_step_rank(model: ChiralModel, pair_batch, cfg: TrainConfig):
    """Margin-ranking loss over co-batched (hi, lo) molecule pairs.

    The score is the single output of a 1-dim head. Returns
    (loss, n_correctly_ordered, grads).
    """
    grads = zero_grads(model)
    total = 0.0
    correct = 0
    n = len(pair_batch)
    for mol_hi, mol_lo in pair_batch:
        st_hi = forward_full(model, mol_hi)
        st_lo = forward_full(model, mol_lo)
        s_hi, s_lo = float(st_hi.logits[0]), float(st_lo.logits[0])
        loss, d_hi, d_lo = loss_margin_rank(s_hi, s_lo, cfg.margin)
        total += cfg.margin_weight * loss
        if s_hi > s_lo:
            correct += 1
        scale = cfg.margin_weight / n
        if d_hi != 0.0:
            backward_from_logits(model, st_hi, np.array([d_hi * scale]), grads)
            backward_from_logits(model, st_lo, np.array([d_lo * scale]), grads)
    total /= n
    if cfg.reg_weight > 0.0:
        total += cfg.reg_weight * regularization_loss(model.encoder.kernels)
        grads["encoder.kernel.w"] += cfg.reg_weight * regularization_grad(model.encoder.kernels)
    return total, correct, grads


# ---------------------------------------------------------------------------
# Optimizer
# ---------------------------------------------------------------------------


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


def adam_step(model: ChiralModel, grads, state: AdamState, lr: float,
              beta1=0.9, beta2=0.999, eps=1e-8):
    state.step += 1
    t = state.step
    for name, param in named_parameters(model):
        if name in FROZEN_PARAMS:
            continue
        g = grads[name]
        state.m[name] = beta1 * state.m[name] + (1.0 - beta1) * g
        state.v[name] = beta2 * state.v[name] + (1.0 - beta2) * g * g
        m_hat = state.m[name] / (1.0 - beta1**t)
        v_hat = state.v[name] / (1.0 - beta2**t)
        param -= lr * m_hat / (np.sqrt(v_hat) + eps)


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


def evaluate(model: ChiralModel, dataset) -> float:
    pairs = dataset_to_pairs(dataset)
    if not pairs:
        raise ValueError("empty evaluation set")
    correct = sum(
        1 for mol, label in pairs if int(np.argmax(forward(model, mol))) == label
    )
    return correct / len(pairs)


def train(model: ChiralModel, dataset, cfg: TrainConfig, val_dataset=None,
          metrics_path=None, rank_pairs=None, adam: AdamState | None = None,
          log=None):
    """Deterministic training loop.

    `dataset` is a sequence of (Molecule, label) for classification;
    `rank_pairs` switches to margin-ranking over (hi, lo) molecule pairs.
    Shuffling derives from config.seed, so identical seeds give identical
    loss curves. Returns the list of per-epoch records.
    """
    cfg.validate()
    if rank_pairs is None:
        data = dataset_to_pairs(dataset)
        if not data:
            raise ValueError("empty training set")
    else:
        data = list(rank_pairs)
        if not data:
            raise ValueError("empty training set")
    rng = np.random.default_rng(model.config.seed + 0x5EED)
    n_batches = math.ceil(len(data) / cfg.batch_size)
    total_steps = cfg.epochs * n_batches
    if adam is None:
        adam = AdamState.for_model(model)
    records = []
    metrics_file = open(metrics_path, "a") if metrics_path else None
    try:
        step = adam.step
        for epoch in range(cfg.epochs):
            order = rng.permutation(len(data))
            epoch_loss = 0.0
            epoch_correct = 0
            lr_now = cfg.lr
            for b in range(n_batches):
                batch = [data[i] for i in order[b * cfg.batch_size : (b + 1) * cfg.batch_size]]
                lr_now = cosine_lr(step, total_steps, cfg.lr, cfg.min_lr_factor)
                if rank_pairs is None:
                    loss, correct, grads = batch_step_classify(model, batch, cfg.reg_weight)
                else:
                    loss, correct, grads = batch_step_rank(model, batch, cfg)
                if not math.isfinite(loss):
                    raise NumericError(f"training diverged at step {step}")
                adam_step(model, grads, adam, lr_now)
                if model.config.rank_strategy is RankStrategy.QR_RETRACTION:
                    model.encoder.kernels = retract_orthonormal(model.encoder.kernels)
                epoch_loss += loss * len(batch)
                epoch_correct += correct
                step += 1
            val_acc = float("nan")
            if val_dataset is not None and rank_pairs is None:
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
    gets the opposite class)."""
    pairs = dataset_to_pairs(dataset)
    correct = 0
    flipped = 0
    for mol, label in pairs:
        pred = int(np.argmax(forward(model, mol)))
        if pred != label:
            continue
        correct += 1
        pred_m = int(np.argmax(forward(model, mirror(mol))))
        if pred_m == 1 - pred:
            flipped += 1
    if correct == 0:
        return 0.0, 0.0
    return correct / len(pairs), flipped / correct


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

CHECKPOINT_MAGIC = "chiraldet-checkpoint"
CHECKPOINT_VERSION = 1


def _config_lines(config: ModelConfig) -> list[str]:
    return [
        f"h={config.h}",
        f"d_p={config.d_p}",
        f"n_layers={config.n_layers}",
        f"n_heads={config.n_heads}",
        f"n_gkpt={config.n_gkpt}",
        f"d_f={config.d_f}",
        f"rank_strategy={config.rank_strategy.value}",
        f"n_classes={config.n_classes}",
        f"seed={config.seed}",
    ]


def _config_from_header(fields: dict[str, str]) -> ModelConfig:
    return ModelConfig(
        h=int(fields["h"]),
        d_p=int(fields["d_p"]),
        n_layers=int(fields["n_layers"]),
        n_heads=int(fields["n_heads"]),
        n_gkpt=int(fields["n_gkpt"]),
        d_f=int(fields["d_f"]),
        rank_strategy=RankStrategy(fields["rank_strategy"]),
        n_classes=int(fields["n_classes"]),
        seed=int(fields["seed"]),
    )


def _pack_tensor(name: str, arr: np.ndarray) -> bytes:
    data = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    name_b = name.encode()
    head = struct.pack("<I", len(name_b)) + name_b
    head += struct.pack("<I", arr.ndim) + struct.pack(f"<{arr.ndim}q", *arr.shape)
    head += struct.pack("<Q", arr.size)
    return head + data


def save_checkpoint(model: ChiralModel, path, adam: AdamState | None = None):
    """Versioned container: text header, length-prefixed little-endian
    float64 tensors, trailing sha256 checksum. Round-trips bit-exactly."""
    tensors = list(named_parameters(model))
    if adam is not None:
        tensors += [(f"adam.m.{n}", a) for n, a in adam.m.items()]
        tensors += [(f"adam.v.{n}", a) for n, a in adam.v.items()]
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
    version, truncation, checksum, and shape failures."""
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
            arr = np.frombuffer(buf, dtype="<f8", count=size, offset=offset).reshape(shape)
            offset += 8 * size
            tensors[name] = arr.copy()
    except (struct.error, ValueError) as exc:
        raise CheckpointTruncatedError(f"payload ended early: {exc}") from None

    model = init_model(config)
    for name, param in named_parameters(model):
        if name not in tensors:
            raise CheckpointShapeError(f"missing tensor {name}")
        if tensors[name].shape != param.shape:
            raise CheckpointShapeError(
                f"tensor {name} has shape {tensors[name].shape}, expected {param.shape}"
            )
        if name in FROZEN_PARAMS and np.any(tensors[name] != 0.0):
            raise CheckpointShapeError(
                f"tensor {name} is frozen at zero but holds non-zero values"
            )
        param[...] = tensors[name]
    adam = None
    if any(n.startswith("adam.m.") for n in tensors):
        adam = AdamState.for_model(model)
        adam.step = step
        for name, _ in named_parameters(model):
            if f"adam.m.{name}" in tensors:
                adam.m[name][...] = tensors[f"adam.m.{name}"]
                adam.v[name][...] = tensors[f"adam.v.{name}"]
    return model, adam


def attention_export_rows(model: ChiralModel, mol: Molecule):
    """Final-layer head-averaged attention rows for each chiral query.

    Returns (key_atom_indices, rows) with one row per chiral unit, key
    order matching the index list.
    """
    state = forward_full(model, mol)
    keys = tuple(state.encoded.related_indices) + tuple(state.encoded.nonchiral_indices)
    return keys, head_averaged_rows(state.final_attn)
