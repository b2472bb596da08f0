"""Per-block gradient audits: every hand-written backward pass against a
central finite-difference oracle on a tiny configuration.

Blocks are named module.op ("encoder.kernel", "attention.layer", ...). A
sabotage prefix corrupts the analytic gradient of every matching block so
the harness can prove the audit actually detects wrong gradients.
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .attention import (
    FEED_FORWARD_LEAVES,
    DistanceBiasParams,
    LayerParams,
    attend_bwd,
    attend_fwd,
    feed_forward_bwd,
    feed_forward_fwd,
    init_distance_bias,
    init_layer,
    pair_bias_bwd,
    pair_bias_fwd,
)
from .data import SyntheticSpec, gen_rs, tile_molecules
from .encoder import (
    BatchMask,
    KernelBank,
    Mlp2,
    init_kernel_bank,
    init_mlp2,
    kernel_bwd,
    kernel_fwd,
    mlp2_bwd,
    mlp2_fwd,
    pair_inputs,
    prepare_batch,
    regularization_grad,
    regularization_loss,
)
from .errors import NumericError
from .geometry import mirror
from .model import (
    ModelConfig,
    _leaves,
    batch_step,
    classify_loss,
    dataset_to_pairs,
    forward_batch,
    forward_stages,
    init_model,
    named_parameters,
    parameter_slots,
    parameter_stage,
    rank_loss,
    rank_penalty,
)
from .numerics import (
    FD_STEP,
    central_difference,
    compare_grads,
    det3_batch,
    layer_norm_rows,
    layer_norm_rows_backward,
)

TINY_CONFIG = ModelConfig(h=8, d_p=4, n_layers=2, n_heads=2, n_gkpt=8, seed=1)

@dataclass
class BlockReport:
    name: str
    max_rel_error: float
    passed: bool
    worst: str  # the audited entry of max_rel_error, as <array>[i, j]
    evaluations: int  # finite-difference evaluations of the block's loss
    seconds: float  # wall time of the block's audit


def _arrays(item) -> list:
    """An array as itself, a parameter dataclass as its array fields, a
    tuple as the arrays of its items."""
    if isinstance(item, tuple):
        return [a for part in item for a in _arrays(part)]
    return [item] if isinstance(item, np.ndarray) else [a for _, a in _leaves(item)]


def flatten(*items) -> np.ndarray:
    """One flat vector of the arrays of every item, in order."""
    return np.concatenate([a.ravel() for item in items for a in _arrays(item)])


# evaluation points per chunk of _oracle. Copies keep a leading axis
# through every stage, so each copy's products have the shapes of a lone
# forward whatever the chunk: it sets speed and memory, not the audited
# bytes
AUDIT_CHUNK = 16


def _lifted(copies: np.ndarray) -> np.ndarray:
    """A (k, *shape) stack of copies, a vector's as (k, 1, n) so that it
    broadcasts over rows."""
    return copies[:, None] if copies.ndim == 2 else copies


def _stacked_call(holder, field, copies, run):
    """run() with `copies`, a (k, *shape) stack of holder.field, set in its
    place (_lifted); the leaf is restored after, also when run raises."""
    live = getattr(holder, field)
    setattr(holder, field, _lifted(copies))
    try:
        return run()
    finally:
        setattr(holder, field, live)


def _oracle(arrays, losses) -> np.ndarray:
    """Central differences in every entry of `arrays`, (name, array) pairs,
    in order: the audit's one point loop.

    The +FD_STEP and then -FD_STEP point of each entry run AUDIT_CHUNK at
    a time. A chunk of k points is one (k, *shape) array built from θ0,
    copy j with its point's entry moved, and losses(name, copies) returns
    the k losses. No array of `arrays` is written.
    """
    numeric = []
    for name, live in arrays:
        theta0 = live.ravel()
        entry = np.repeat(np.arange(live.size), 2)  # the entry each point moves
        value = np.repeat(theta0, 2) + np.tile([FD_STEP, -FD_STEP], live.size)
        values = []
        for c in range(0, entry.size, AUDIT_CHUNK):
            moved = entry[c : c + AUDIT_CHUNK]
            copies = np.tile(theta0, (moved.size, 1))
            copies[np.arange(moved.size), moved] = value[c : c + AUDIT_CHUNK]
            values.append(losses(name, copies.reshape(moved.size, *live.shape)))
        values = np.concatenate(values)
        numeric.append(central_difference(values[0::2], values[1::2]))
    return np.concatenate(numeric)


def _entry(arrays, index: int) -> str:
    """The entry at a flat index of the vector _oracle(arrays, ...) returns,
    as <name>[i, j]."""
    for name, a in arrays:
        if index < a.size:
            return f"{name}[{', '.join(str(int(i)) for i in np.unravel_index(index, a.shape))}]"
        index -= a.size
    raise IndexError(f"index {index} is past the audited arrays")


def _nonsingular_mc(rng, n, floor=0.3):
    out = []
    while len(out) < n:
        m = rng.standard_normal((3, 3))
        if abs(det3_batch(m)) >= floor:
            out.append(m)
    return np.stack(out)


def _copy_sums(w, stacked) -> np.ndarray:
    """(w * copy).sum() of each copy of w's shape in `stacked`, k of them
    on a leading axis or one alone, each the bytes of that lone sum: the
    products are written in C order, as a lone copy's is, even of a
    strided view."""
    k = stacked.size // w.size
    return np.multiply(w, stacked.reshape(k, *w.shape), order="C").reshape(k, -1).sum(axis=-1)


# Each _check_* returns (arrays, analytic, losses) for _oracle: the audited
# (name, array) pairs, the analytic gradient over their entries, in order,
# and the losses of a chunk of points.


def _probe(arrays, run, backward, *weights):
    """The check of a block whose loss is the sum of (w * out).sum() over
    `weights` and the outputs of run(*audited arrays), a forward that
    returns its cache last; the analytic gradient is backward(cache,
    *weights), flattened. A chunk is one run, the moved array's copies
    (_lifted) in its place."""

    def losses(name, copies):
        outs = run(*(_lifted(copies) if n == name else a for n, a in arrays))
        return sum(_copy_sums(w, out) for w, out in zip(weights, outs))

    return arrays, flatten(backward(run(*(a for _, a in arrays))[-1], *weights)), losses


def _check_kernel(rng, config: ModelConfig):
    bank = init_kernel_bank(rng, 2, 4)
    bank.gamma[:] = rng.uniform(0.8, 1.2, 4)
    mc = _nonsingular_mc(rng, 2)
    arrays = [("w", bank.w), ("gamma", bank.gamma), ("mc", mc)]
    return _probe(arrays,
                  lambda w, gamma, mc: kernel_fwd(KernelBank(w, gamma), mc.reshape(-1, 3, 3)),
                  kernel_bwd, rng.standard_normal((2, 2)))


def _check_reg_loss(rng, config: ModelConfig):
    bank = KernelBank(w=rng.standard_normal((2, 4, 3)), gamma=np.ones(4))

    def losses(name, copies):
        return _stacked_call(bank, "w", copies, lambda: regularization_loss(bank))

    return [("w", bank.w)], regularization_grad(bank).ravel(), losses


def _check_layer_norm(rng, config: ModelConfig):
    x = rng.standard_normal((3, 8))
    gamma = rng.uniform(0.5, 1.5, 8)
    beta = rng.standard_normal(8)
    arrays = [("x", x), ("gamma", gamma), ("beta", beta)]
    return _probe(arrays, layer_norm_rows,
                  lambda cache, w: layer_norm_rows_backward(w, cache, gamma),
                  rng.standard_normal((3, 8)))


def _pair_instance(rng):
    """Two molecules, (2 units, 3 related, 2 non-chiral keys) and (1, 2, 1),
    so the second has a pad query and pad keys of both types."""
    mask = BatchMask.of_counts([2, 1], [3, 2], [2, 1])
    # draws that once filled encoder rows; kept so the audited points stay put
    rng.standard_normal(2 * 3 * 8 + 2 * 3 * 8 + 2 * 2 * 8)
    return pair_inputs(mask, 3, rng.uniform(-2, 2, (2, 2, 3)), rng.uniform(-2, 2, (2, 5, 3)))


def _check_distance_bias(rng, config: ModelConfig):
    params = init_distance_bias(rng, 4, 2)
    params.e1 += rng.normal(0, 0.3, params.e1.shape)
    params.sigma = rng.uniform(0.5, 1.5, 4)
    pairs = _pair_instance(rng)
    return _probe(_leaves(params),
                  lambda *leaves: pair_bias_fwd(DistanceBiasParams(*leaves), pairs),
                  partial(pair_bias_bwd, params), rng.standard_normal((2, 3, 5, 2)))


def _check_attention_layer(rng, config: ModelConfig):
    """Padded 3-molecule input: a token plus one unit over 2 related keys
    and 1 non-chiral key, a token-only molecule over 2 non-chiral keys (so
    the first molecule has a pad key), and a token-only molecule without
    keys, whose token row is key-less. Pad entries hold random values: they
    reach the emitted logits, so their gradients are audited as well.

    The loss is (w_out * h_c_out).sum() + (w_bias * bias_out).sum() of the
    whole layer, attend_fwd then feed_forward_fwd. A chunk of k points runs
    the layer once, with the k copies (_lifted) in place of the moved
    weight or input: an attention or input chunk one attend_fwd, then one
    feed_forward_fwd over its u; a feed-forward chunk, which moves neither
    u nor bias_out, one feed_forward_fwd on u at θ0. An output the copies
    do not move keeps its single shape, and its one sum serves every copy.
    Each copy's two sums add as a point alone would add them
    (_copy_sums)."""
    layer = init_layer(rng, 8, 2)
    mask = BatchMask.of_counts([1, 0, 0], [2, 0, 0], [1, 2, 0])
    inputs = [rng.standard_normal(s) for s in ((3, 2, 8), (3, 2, 8), (3, 2, 8), (3, 2, 4, 2))]
    w_out = rng.standard_normal((3, 2, 8))
    w_bias = rng.standard_normal((3, 2, 4, 2))
    input_names = ("h_c_in", "h_r", "h_n", "bias_in")
    arrays = _leaves(layer) + list(zip(input_names, inputs))
    u0, bias0, _, attend_cache = attend_fwd(layer, *inputs, mask)
    ff_grads, d_u = feed_forward_bwd(layer, feed_forward_fwd(layer, u0)[1], w_out)
    grads, *d_inputs = attend_bwd(layer, attend_cache, d_u, w_bias)
    analytic = flatten(LayerParams(**grads, **ff_grads, n_heads=layer.n_heads), *d_inputs)

    def losses(name, copies):
        live = dict(arrays, **{name: _lifted(copies)})
        moved = LayerParams(**{n: live[n] for n, _ in _leaves(layer)}, n_heads=layer.n_heads)
        if name in FEED_FORWARD_LEAVES:
            u, bias = u0, bias0
        else:
            u, bias, _, _ = attend_fwd(moved, *(live[n] for n in input_names), mask)
        return _copy_sums(w_out, feed_forward_fwd(moved, u)[0]) + _copy_sums(w_bias, bias)

    return arrays, analytic, losses


def _check_predictor(rng, config: ModelConfig):
    mlp = init_mlp2(rng, 8, 8, 2)
    x = rng.standard_normal((3, 8))
    return _probe(_leaves(mlp) + [("x", x)],
                  lambda w1, b1, w2, b2, x: mlp2_fwd(Mlp2(w1, b1, w2, b2), x),
                  partial(mlp2_bwd, mlp), rng.standard_normal((3, 2)))


def rerun_stages(stages) -> list[tuple]:
    """Per stage s of a stage table, the indices of the later stages that
    read an array s wrote, directly or through another such stage: what a
    move of s's parameters reaches. A name that a stage outside the set
    rewrites no longer carries the move."""
    reruns = []
    for s, stage in enumerate(stages):
        moved, rerun = set(stage.writes), []
        for t in range(s + 1, len(stages)):
            if moved.intersection(stages[t].reads):
                rerun.append(t)
                moved |= set(stages[t].writes)
            else:
                moved -= set(stages[t].writes)
        reruns.append(tuple(rerun))
    return reruns


def _model_points(model, mols, objective, reg_weight: float, names):
    """(arrays, losses) of _oracle over the loss batch_step takes of
    prepare_batch(mols), in the named live parameters, in named_parameters
    order.

    losses runs the stage s that reads the moved array (parameter_stage)
    once per chunk of k points, on the θ0 arrays it reads, with the k
    copies stacked into the leaf (_stacked_call). It then reruns, once per
    chunk and without caches, only the stages the move reaches
    (rerun_stages), on the same batch. A rerun stage reads the output of s
    or of an earlier rerun stage where one of those wrote the array last,
    (k, B, ...) where the copies moved it, and otherwise the θ0 array,
    which broadcasts over the copies. One objective call scores the k
    copies' logits, (k, B, n_classes), each with the loss batch_step would
    give; the rank penalty, which reads the kernel slices alone, is one
    stacked rank_penalty call for a kernel-slice chunk. So every numeric
    gradient is byte-identical to a full forward per point.
    """
    batch = prepare_batch(mols)
    stages = forward_stages(model)
    reruns = rerun_stages(stages)
    # writer[t]: the stage whose array of each name stage t reads
    writer, latest = [], {}
    for t, stage in enumerate(stages):
        writer.append({n: latest[n] for n in stage.reads})
        latest.update((n, t) for n in stage.writes)
    outputs = forward_batch(model, batch).outputs
    penalty0 = rank_penalty(model, reg_weight)
    stage = {name: parameter_stage(model, name) for name in names}
    slots = {name: (holder, field) for name, holder, field in parameter_slots(model)
             if name in names}

    def losses(name, copies):
        s = stage[name]
        written = _stacked_call(*slots[name], copies, lambda: stages[s].forward(
            model, batch, *(outputs[w][n] for n, w in writer[s].items()))[:-1])
        moved = dict(zip(stages[s].writes, written, strict=True))
        for t in reruns[s]:
            *written, _ = stages[t].forward(model, batch, *(
                moved[n] if w == s or w in reruns[s] else outputs[w][n]
                for n, w in writer[t].items()))
            moved.update(zip(stages[t].writes, written, strict=True))
        penalty = (_stacked_call(*slots[name], copies, lambda: rank_penalty(model, reg_weight))
                   if name == "encoder.kernel.w" else penalty0)
        return np.add(objective(moved["logits"])[0], penalty)

    arrays = [(name, live) for name, live in named_parameters(model) if name in names]
    return arrays, losses


# Each *_loss_instance returns (model, mols, objective, reg_weight, the
# audited parameter names) of a model-level block; _check_model audits it.


def _full_loss_instance(rng, config: ModelConfig):
    """Classification loss plus the rank penalty over every parameter, on a
    padded batch: a one-unit gen_rs molecule and a two-unit molecule tiled
    from two more, so the first has pad queries and pad keys."""
    model = init_model(config)
    (mol_a, label_a), (mol_b, label_b), (mol_c, _) = gen_rs(
        SyntheticSpec(count=3, seed=int(rng.integers(1 << 16)), spectator_range=(1, 2))
    )
    mols, labels = zip(*dataset_to_pairs(
        [(mol_a, label_a), (tile_molecules([mol_b, mol_c]), label_b)]
    ))
    objective = classify_loss(labels, config.n_classes)
    return model, mols, objective, 0.1, {n for n, _ in named_parameters(model)}


def _rank_loss_instance(rng, config: ModelConfig):
    """Margin-ranking loss of two enantiomer pairs under a 1-dim head, each
    pair ordered so that its score gap is positive. Only the head and the
    kernel gain are audited: the rest of the chain is the backward_batch
    that model.full_loss audits. The margin is the mean gap, so one pair
    is inside the hinge, and both must stay 1e-4 or more from its kink."""
    model = init_model(replace(config, n_classes=1))
    pairs = [(mol, mirror(mol)) for mol, _ in gen_rs(
        SyntheticSpec(count=2, seed=int(rng.integers(1 << 16)), spectator_range=(1, 2))
    )]
    scores = forward_batch(model, prepare_batch([m for pair in pairs for m in pair])).logits
    gaps = scores[0::2, 0] - scores[1::2, 0]
    his, los = zip(*(pair if gap > 0 else pair[::-1] for pair, gap in zip(pairs, gaps)))
    margin = float(np.abs(gaps).mean())
    if np.min(np.abs(np.abs(gaps) - margin)) < 1e-4:
        raise NumericError(f"score gaps {gaps} put a rank audit pair on the hinge kink")
    live = {"encoder.kernel.gamma"} | {f"head.{n}" for n, _ in _leaves(model.head)}
    return model, his + los, rank_loss(margin), 0.0, live


def _check_model(instance):
    """The check of a model-level block: _model_points against batch_step's
    gradients of the named parameters."""

    def check(rng, config: ModelConfig):
        model, mols, objective, reg_weight, names = instance(rng, config)
        arrays, losses = _model_points(model, mols, objective, reg_weight, names)
        _, _, grads = batch_step(model, prepare_batch(mols), objective, reg_weight)
        analytic = flatten(*(g for n, g in named_parameters(grads) if n in names))
        return arrays, analytic, losses

    return check


_CHECKS = {
    "encoder.kernel": _check_kernel,
    "encoder.reg_loss": _check_reg_loss,
    "numerics.layer_norm": _check_layer_norm,
    "attention.distance_bias": _check_distance_bias,
    "attention.layer": _check_attention_layer,
    "model.predictor": _check_predictor,
    "model.full_loss": _check_model(_full_loss_instance),
    "model.rank_loss": _check_model(_rank_loss_instance),
}
BLOCKS = tuple(_CHECKS)


def block_rng(name: str, seed: int) -> np.random.Generator:
    """The generator of a block's audit, offset from `seed` by a stable
    hash of the block name, so every process audits the same points."""
    return np.random.default_rng(seed + zlib.crc32(name.encode()) % 1000)


def run_gradcheck(config: ModelConfig = TINY_CONFIG, seed: int = 1, tol: float = 1e-4,
                  sabotage: str | None = None, blocks=BLOCKS) -> list[BlockReport]:
    """Run every block audit; `sabotage` corrupts matching blocks' analytic
    gradients (negative control for the audit itself). Each block draws
    from its own generator, block_rng. A tol that is not finite and
    positive, or a sabotage prefix that matches none of `blocks`, raises
    ValueError before any block runs."""
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    if sabotage is not None and not (sabotage and any(n.startswith(sabotage) for n in blocks)):
        raise ValueError(f"sabotage prefix {sabotage!r} matches no audit block; "
                         f"blocks: {', '.join(blocks)}")
    reports = []
    for name in blocks:
        began = time.perf_counter()
        arrays, analytic, losses = _CHECKS[name](block_rng(name, seed), config)
        numeric = _oracle(arrays, losses)
        if sabotage and name.startswith(sabotage):
            analytic = analytic * 1.02 + 0.01
        rep = compare_grads(analytic, numeric, tol=tol)
        reports.append(BlockReport(name=name, max_rel_error=rep.max_rel_error, passed=rep.passed,
                                   worst=_entry(arrays, rep.worst_index),
                                   evaluations=2 * numeric.size,
                                   seconds=time.perf_counter() - began))
    return reports
