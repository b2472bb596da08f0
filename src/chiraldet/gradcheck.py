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


# evaluation points per chunk of _oracle. A model block reruns, stacked,
# only the stages a moved array reaches (rerun_stages), so the only
# projector product over stacked rows is proj_c's, after a kernel point.
# Stacks of 16 keep every audited gradient byte-identical to a forward per
# point; at 32 the feed-forward's second product over 192 stacked rows
# takes another OpenBLAS kernel and rounds differently
AUDIT_CHUNK = 16


def _stacked_call(holder, field, copies, run):
    """run() with the k arrays of `copies` stacked into holder.field on a
    leading axis, a vector's as (k, 1, n) so that it broadcasts over rows;
    the leaf is restored after, also when run raises."""
    live = getattr(holder, field)
    stack = np.stack(copies)
    setattr(holder, field, stack[:, None] if live.ndim == 1 else stack)
    try:
        return run()
    finally:
        setattr(holder, field, live)


def _unchanged(name, kept):
    return kept


def _copy(name, live):
    return live.copy()


def _oracle(arrays, at_point, finish=_unchanged) -> np.ndarray:
    """Central differences in every entry of `arrays`, (name, array) pairs,
    in order: the audit's one point loop.

    The +FD_STEP and -FD_STEP points of an array's entries run AUDIT_CHUNK
    at a time. Each point is written into the live array, in place, so no
    evaluation unpacks a flat vector or rebuilds a parameter dataclass;
    at_point(name, live) is kept and the entry restored. finish(name, kept)
    turns a chunk's kept values into its losses; by default they are the
    losses. Each array is restored before the next is moved, also when an
    evaluation raises.
    """
    numeric = []
    for name, live in arrays:
        theta0 = live.flatten()
        points = [(i, t + d) for i, t in enumerate(theta0) for d in (FD_STEP, -FD_STEP)]
        losses = []
        try:
            for c in range(0, len(points), AUDIT_CHUNK):
                kept = []
                for i, value in points[c : c + AUDIT_CHUNK]:
                    live.flat[i] = value
                    kept.append(at_point(name, live))
                    live.flat[i] = theta0[i]
                losses += finish(name, kept)
        finally:
            live[...] = theta0.reshape(live.shape)
        numeric.append(central_difference(losses[0::2], losses[1::2]))
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


# Each _check_* returns (arrays, analytic, at_point, finish) for _oracle:
# the audited (name, array) pairs and the analytic gradient over their
# entries, in order. A small block's at_point is its scalar loss.


def _probe(arrays, run, backward, *weights):
    """The check of a block whose loss is sum((w * out).sum()) over
    `weights` and the outputs of run(), a forward that returns its cache
    last; the analytic gradient is backward(cache, *weights), flattened."""

    def at_point(name, live):
        return float(sum((w * out).sum() for w, out in zip(weights, run())))

    return arrays, flatten(backward(run()[-1], *weights)), at_point, _unchanged


def _check_kernel(rng, config: ModelConfig):
    bank = init_kernel_bank(rng, 2, 4)
    bank.gamma[:] = rng.uniform(0.8, 1.2, 4)
    mc = _nonsingular_mc(rng, 2)
    arrays = [("w", bank.w), ("gamma", bank.gamma), ("mc", mc)]
    return _probe(arrays, lambda: kernel_fwd(bank, mc), kernel_bwd, rng.standard_normal((2, 2)))


def _check_reg_loss(rng, config: ModelConfig):
    bank = KernelBank(w=rng.standard_normal((2, 4, 3)), gamma=np.ones(4))
    arrays = [("w", bank.w)]

    def f(name, live):
        return regularization_loss(bank)

    return arrays, regularization_grad(bank).ravel(), f, _unchanged


def _check_layer_norm(rng, config: ModelConfig):
    x = rng.standard_normal((3, 8))
    gamma = rng.uniform(0.5, 1.5, 8)
    beta = rng.standard_normal(8)
    arrays = [("x", x), ("gamma", gamma), ("beta", beta)]
    return _probe(arrays, lambda: layer_norm_rows(x, gamma, beta),
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
    return _probe(_leaves(params), lambda: pair_bias_fwd(params, pairs),
                  partial(pair_bias_bwd, params), rng.standard_normal((2, 3, 5, 2)))


def _copy_sums(w, stacked) -> np.ndarray:
    """(w * copy).sum() of each copy of w's shape concatenated on the first
    axis of `stacked`, each the bytes of that lone sum: the products are
    written in C order, as a lone copy's is, even of a strided view."""
    k = stacked.size // w.size
    return np.multiply(w, stacked.reshape(k, *w.shape), order="C").reshape(k, -1).sum(axis=-1)


def _check_attention_layer(rng, config: ModelConfig):
    """Padded 3-molecule input: a token plus one unit over 2 related keys
    and 1 non-chiral key, a token-only molecule over 2 non-chiral keys (so
    the first molecule has a pad key), and a token-only molecule without
    keys, whose token row is key-less. Pad entries hold random values: they
    reach the emitted logits, so their gradients are audited as well.

    The loss is (w_out * h_c_out).sum() + (w_bias * bias_out).sum() of the
    whole layer, attend_fwd then feed_forward_fwd. Every at_point keeps a
    copy of the moved array, and finish runs the layer once per chunk: an
    input chunk one attend_fwd over the k copies stacked on the molecule
    axis, an attention chunk one attend_fwd with the k copies stacked into
    the leaf (_stacked_call), each then one feed_forward_fwd over the k
    stacked u; a feed-forward chunk, which moves neither u nor bias_out,
    one feed_forward_fwd on u at the starting point with the k copies
    stacked into the leaf, whose one bias_out sum serves every copy. Each
    copy's two sums add as a point alone would add them (_copy_sums)."""
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

    def finish(name, kept):
        k = len(kept)
        if name in FEED_FORWARD_LEAVES:
            h_c = _stacked_call(layer, name, kept, lambda: feed_forward_fwd(layer, u0)[0])
            bias = bias0
        else:
            if name in input_names:
                stacked = [np.concatenate(kept if input_name == name else [a] * k)
                           for input_name, a in zip(input_names, inputs)]
                u, bias, _, _ = attend_fwd(layer, *stacked, BatchMask(
                    *(np.concatenate([m] * k) for m in (mask.queries, mask.keys))))
            else:
                u, bias, _, _ = _stacked_call(layer, name, kept,
                                              lambda: attend_fwd(layer, *inputs, mask))
            h_c = feed_forward_fwd(layer, u)[0]
        return (_copy_sums(w_out, h_c) + _copy_sums(w_bias, bias)).tolist()

    return arrays, analytic, _copy, finish


def _check_predictor(rng, config: ModelConfig):
    mlp = init_mlp2(rng, 8, 8, 2)
    x = rng.standard_normal((3, 8))
    return _probe(_leaves(mlp) + [("x", x)], lambda: mlp2_fwd(mlp, x), partial(mlp2_bwd, mlp),
                  rng.standard_normal((3, 2)))


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
    """(arrays, at_point, finish) of _oracle over the loss batch_step takes
    of prepare_batch(mols), in the named live parameters, in
    named_parameters order.

    at_point keeps a copy of the moved array and the rank penalty at the
    point, which only the kernel slices move. finish runs the stage s that
    reads the moved array (parameter_stage) once per chunk of k points, on
    the θ0 arrays it reads, with the k copies stacked into the leaf
    (_stacked_call). It then reruns, once per chunk and without caches,
    only the stages the move reaches (rerun_stages), over
    prepare_batch(mols * k), whose copies are padded as the batch is. A
    rerun stage reads the stacked k outputs of s or of an earlier rerun
    stage where one of those wrote the array last, and otherwise the θ0
    array, repeated k times once per (writing stage, name, k) and reused.
    One objective call scores the k copies' logits, each with the loss
    batch_step would give, so every numeric gradient is byte-identical to
    a full forward per point.
    """
    batch = prepare_batch(mols)
    stages = forward_stages(model)
    reruns = rerun_stages(stages)
    # writer[t]: the stage whose array of each name stage t reads; the
    # objective, t = len(stages), reads the logits
    writer, latest = [], {}
    for t, stage in enumerate(stages):
        writer.append({n: latest[n] for n in stage.reads})
        latest.update((n, t) for n in stage.writes)
    writer.append({"logits": latest["logits"]})
    # stacked[s]: the names of s's outputs that a rerun stage or the objective reads
    stacked = [{n for t in (*reruns[s], len(stages)) for n, w in writer[t].items() if w == s}
               for s in range(len(stages))]
    outputs = forward_batch(model, batch).outputs
    penalty0 = rank_penalty(model, reg_weight)
    stage = {name: parameter_stage(model, name) for name in names}
    slots = {name: (holder, field) for name, holder, field in parameter_slots(model)
             if name in names}
    repeated, tiled = {}, {}  # k -> prepare_batch(mols * k); (w, n, k) -> θ0 array repeated

    def reads(s, t, k, moved):
        """The arrays stage t, or the objective, reads in a chunk of k
        points of stage s."""
        out = []
        for n, w in writer[t].items():
            if w == s or w in reruns[s]:
                out.append(moved[n])
                continue
            if (w, n, k) not in tiled:
                tiled[w, n, k] = np.concatenate([outputs[w][n]] * k)
            out.append(tiled[w, n, k])
        return out

    def at_point(name, live):
        # rank_penalty reads the kernel slices alone
        penalty = rank_penalty(model, reg_weight) if live is model.encoder.kernels.w else penalty0
        return live.copy(), penalty

    def finish(name, kept):
        points, penalties = zip(*kept)
        k, s = len(points), stage[name]
        if k not in repeated:
            repeated[k] = prepare_batch(mols * k)
        written = _stacked_call(*slots[name], points, lambda: stages[s].forward(
            model, batch, *(outputs[w][n] for n, w in writer[s].items()))[:-1])
        moved = {n: a.reshape(-1, *outputs[s][n].shape[1:])
                 for n, a in zip(stages[s].writes, written) if n in stacked[s]}
        for t in reruns[s]:
            *written, _ = stages[t].forward(model, repeated[k], *reads(s, t, k, moved))
            moved.update(zip(stages[t].writes, written, strict=True))
        logits, = reads(s, len(stages), k, moved)
        losses = objective(logits.reshape(k, len(mols), -1))[0]
        return [loss + penalty for loss, penalty in zip(losses, penalties)]

    arrays = [(name, live) for name, live in named_parameters(model) if name in names]
    return arrays, at_point, finish


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
        arrays, at_point, finish = _model_points(model, mols, objective, reg_weight, names)
        _, _, grads = batch_step(model, prepare_batch(mols), objective, reg_weight)
        analytic = flatten(*(g for n, g in named_parameters(grads) if n in names))
        return arrays, analytic, at_point, finish

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
    from its own generator, block_rng."""
    reports = []
    for name in blocks:
        began = time.perf_counter()
        arrays, analytic, at_point, finish = _CHECKS[name](block_rng(name, seed), config)
        numeric = _oracle(arrays, at_point, finish)
        if sabotage and name.startswith(sabotage):
            analytic = analytic * 1.02 + 0.01
        rep = compare_grads(analytic, numeric, tol=tol)
        reports.append(BlockReport(name=name, max_rel_error=rep.max_rel_error, passed=rep.passed,
                                   worst=_entry(arrays, rep.worst_index),
                                   evaluations=2 * numeric.size,
                                   seconds=time.perf_counter() - began))
    return reports
