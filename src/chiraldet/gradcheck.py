"""Per-block gradient audits: every hand-written backward pass against a
central finite-difference oracle on a tiny configuration.

Blocks are named module.op ("encoder.kernel", "attention.layer", ...). A
sabotage prefix corrupts the analytic gradient of every matching block so
the harness can prove the audit actually detects wrong gradients.
"""

from __future__ import annotations

import numbers
import time
import zlib
from dataclasses import dataclass, replace
from functools import partial
from types import SimpleNamespace

import numpy as np

from .attention import (
    init_distance_bias,
    init_layer,
    layer_bwd,
    layer_fwd,
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
    _run_stages,
    batch_step,
    classify_loss,
    dataset_to_pairs,
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
# bytes. A model chunk resumes at the moved leaf's stage, so no stage
# before it reruns per chunk, whatever the chunk's size
AUDIT_CHUNK = 64


def _stacked_call(holder, field, copies, run):
    """run() with `copies`, a (k, *shape) stack of holder.field, set in its
    place, a vector's as (k, 1, n) so that it broadcasts over rows; the
    leaf is restored after, also when run raises."""
    live = getattr(holder, field)
    setattr(holder, field, copies[:, None] if copies.ndim == 2 else copies)
    try:
        return run()
    finally:
        setattr(holder, field, live)


def _slots(*holders) -> list:
    """(name, holder, field) of every array attribute of each holder, in
    vars() order: a parameter dataclass, or a SimpleNamespace of a block's
    plain inputs. A non-array attribute such as KernelBank's kept factors
    is skipped."""
    return [(field, holder, field) for holder in holders
            for field, a in vars(holder).items() if isinstance(a, np.ndarray)]


def _moved(slots, loss):
    """(arrays, losses) of _oracle over `slots`, (name, holder, field)
    triples: losses(name, copies) is loss(name) with the copies stacked
    into that slot (_stacked_call), the one way the audit moves an
    array."""
    where = {name: (holder, field) for name, holder, field in slots}

    def losses(name, copies):
        return _stacked_call(*where[name], copies, partial(loss, name))

    return [(name, getattr(holder, field)) for name, holder, field in slots], losses


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


def _probe(slots, run, backward, *weights):
    """The check of a block whose loss is the sum of (w * out).sum() over
    `weights` and the first outputs of run(), a forward that reads the
    holders of `slots` and returns its cache last; the analytic gradient
    is backward(cache, *weights), flattened. A chunk is one run, the moved
    array's copies in its slot (_moved)."""
    arrays, losses = _moved(
        slots, lambda _: sum(_copy_sums(w, out) for w, out in zip(weights, run())))
    return arrays, flatten(backward(run()[-1], *weights)), losses


def _check_kernel(rng):
    bank = init_kernel_bank(rng, 2, 4)
    bank.gamma[:] = rng.uniform(0.8, 1.2, 4)
    mc = _nonsingular_mc(rng, 2)  # fixed inputs, as a batch's chirality matrices are
    return _probe(_slots(bank), lambda: kernel_fwd(bank, mc), kernel_bwd,
                  rng.standard_normal((2, 2)))


def _check_reg_loss(rng):
    bank = KernelBank(w=rng.standard_normal((2, 4, 3)), gamma=np.ones(4))
    arrays, losses = _moved([("w", bank, "w")], lambda _: regularization_loss(bank))
    return arrays, regularization_grad(bank).ravel(), losses


def _check_layer_norm(rng):
    ln = SimpleNamespace(x=rng.standard_normal((3, 8)), gamma=rng.uniform(0.5, 1.5, 8),
                         beta=rng.standard_normal(8))
    return _probe(_slots(ln), lambda: layer_norm_rows(ln.x, ln.gamma, ln.beta),
                  lambda cache, w: layer_norm_rows_backward(w, cache, ln.gamma),
                  rng.standard_normal((3, 8)))


def _pair_instance(rng):
    """Two molecules, (2 units, 3 related, 2 non-chiral keys) and (1, 2, 1),
    so the second has a pad query and pad keys of both types."""
    mask = BatchMask.of_counts([2, 1], [3, 2], [2, 1])
    # draws that once filled encoder rows; kept so the audited points stay put
    rng.standard_normal(2 * 3 * 8 + 2 * 3 * 8 + 2 * 2 * 8)
    return pair_inputs(mask, 3, rng.uniform(-2, 2, (2, 2, 3)), rng.uniform(-2, 2, (2, 5, 3)))


def _check_distance_bias(rng):
    params = init_distance_bias(rng, 4, 2)
    params.e1 += rng.normal(0, 0.3, params.e1.shape)
    params.sigma = rng.uniform(0.5, 1.5, 4)
    pairs = _pair_instance(rng)
    return _probe(_slots(params), lambda: pair_bias_fwd(params, pairs),
                  partial(pair_bias_bwd, params), rng.standard_normal((2, 3, 5, 2)))


def _check_attention_layer(rng):
    """Padded 3-molecule input: a token plus one unit over 2 related keys
    and 1 non-chiral key, a token-only molecule over 2 non-chiral keys (so
    the first molecule has a pad key), and a token-only molecule without
    keys, whose token row is key-less. Pad entries hold random values: they
    reach the emitted logits, so their gradients are audited as well.

    The loss is (w_out * h_c_out).sum() + (w_bias * bias_out).sum() of
    layer_fwd; the analytic gradient is layer_bwd's."""
    layer = init_layer(rng, 8)
    mask = BatchMask.of_counts([1, 0, 0], [2, 0, 0], [1, 2, 0])
    x = SimpleNamespace(h_c_in=rng.standard_normal((3, 2, 8)), h_r=rng.standard_normal((3, 2, 8)),
                        h_n=rng.standard_normal((3, 2, 8)),
                        bias_in=rng.standard_normal((3, 2, 4, 2)))
    w_out = rng.standard_normal((3, 2, 8))
    w_bias = rng.standard_normal((3, 2, 4, 2))
    return _probe(_slots(layer, x),
                  lambda: layer_fwd(layer, x.h_c_in, x.h_r, x.h_n, x.bias_in, mask),
                  partial(layer_bwd, layer), w_out, w_bias)


def _check_predictor(rng):
    mlp = init_mlp2(rng, 8, 8, 2)
    x = SimpleNamespace(x=rng.standard_normal((3, 8)))
    return _probe(_slots(mlp, x), lambda: mlp2_fwd(mlp, x.x), partial(mlp2_bwd, mlp),
                  rng.standard_normal((3, 2)))


def _model_points(model, batch, objective, reg_weight: float, names):
    """(arrays, losses) of _oracle over the loss batch_step takes of a
    prepared batch, in the named live parameters, in named_parameters
    order.

    One cache-free _run_stages pass at θ0 gives `base`, each stage's
    outputs, set read-only so that an in-place write into one raises.
    losses stacks a chunk's k copies into the moved leaf (_stacked_call)
    and resumes _run_stages at the leaf's parameter_stage t on base[:t]:
    no stage before t reads the leaf, so their outputs are base's bytes,
    and each array the copies move holds them on a leading axis,
    (k, B, ...). One objective call scores the k copies' logits and one
    rank_penalty call adds each copy's penalty, as batch_step adds them:
    every numeric gradient is byte-identical to a full forward per point.
    A stage's NumericError names the stage, the molecule and the copy.
    """
    base = _run_stages(model, batch)
    for out in base:
        for a in out.values():
            a.flags.writeable = False

    def loss(name):
        logits = _run_stages(model, batch, done=base[:parameter_stage(model, name)])[-1]["logits"]
        return np.add(objective(logits)[0], rank_penalty(model, reg_weight))

    return _moved([slot for slot in parameter_slots(model) if slot[0] in names], loss)


# Each *_loss_instance returns (model, mols, objective, reg_weight, the
# audited parameter names) of a model-level block; _check_model audits it.


def _full_loss_instance(rng):
    """Classification loss plus the rank penalty over every parameter, on a
    padded batch: a one-unit gen_rs molecule and a two-unit molecule tiled
    from two more, so the first has pad queries and pad keys. Each
    molecule's features are U(0, 1) draws, not featurize()'s one-hot rows,
    whose all-zero columns would give every projector weight reading them
    a zero gradient and a zero central difference."""
    model = init_model(TINY_CONFIG)
    (mol_a, label_a), (mol_b, label_b), (mol_c, _) = gen_rs(
        SyntheticSpec(count=3, seed=int(rng.integers(1 << 16)), spectator_range=(1, 2))
    )
    mols, labels = zip(*dataset_to_pairs(
        [(mol_a, label_a), (tile_molecules([mol_b, mol_c]), label_b)], TINY_CONFIG.n_classes
    ))
    mols = tuple(replace(m, features=rng.uniform(0.0, 1.0, m.features.shape)) for m in mols)
    objective = classify_loss(labels, TINY_CONFIG.n_classes)
    return model, mols, objective, 0.1, {n for n, _ in named_parameters(model)}


def _rank_loss_instance(rng):
    """Margin-ranking loss of two enantiomer pairs under a 1-dim head, each
    pair ordered so that its score gap is positive. Only the head and the
    kernel gain are audited: the rest of the chain is the backward_batch
    that model.full_loss audits. The margin is the mean gap, so one pair
    is inside the hinge, and both must stay 1e-4 or more from its kink."""
    model = init_model(replace(TINY_CONFIG, n_classes=1))
    pairs = [(mol, mirror(mol)) for mol, _ in gen_rs(
        SyntheticSpec(count=2, seed=int(rng.integers(1 << 16)), spectator_range=(1, 2))
    )]
    scores = _run_stages(model, prepare_batch([m for pair in pairs for m in pair]))[-1]["logits"]
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

    def check(rng):
        model, mols, objective, reg_weight, names = instance(rng)
        batch = prepare_batch(mols)
        arrays, losses = _model_points(model, batch, objective, reg_weight, names)
        _, _, grads = batch_step(model, batch, objective, reg_weight)
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


def run_gradcheck(seed: int = 1, tol: float = 1e-4, sabotage: str | None = None,
                  blocks=BLOCKS) -> list[BlockReport]:
    """Run every block audit; `sabotage` corrupts matching blocks' analytic
    gradients (negative control for the audit itself). Each block draws
    from its own generator, block_rng; the model-level blocks audit
    TINY_CONFIG's model whatever `seed`. A tol that is not finite and
    positive, a seed that is not a non-negative integer, or a sabotage
    prefix that matches none of `blocks`, raises ValueError before any
    block runs, as does a name of `blocks` that is not one of BLOCKS."""
    unknown = [name for name in blocks if name not in _CHECKS]
    if unknown:
        raise ValueError(f"no audit block {unknown[0]!r}; blocks: {', '.join(BLOCKS)}")
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    # block_rng offsets the seed, so a negative one would audit shifted points
    if not (isinstance(seed, numbers.Integral) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, got {seed}")
    if sabotage is not None and not (sabotage and any(n.startswith(sabotage) for n in blocks)):
        raise ValueError(f"sabotage prefix {sabotage!r} matches no audit block; "
                         f"blocks: {', '.join(blocks)}")
    reports = []
    for name in blocks:
        began = time.perf_counter()
        arrays, analytic, losses = _CHECKS[name](block_rng(name, seed))
        numeric = _oracle(arrays, losses)
        if sabotage and name.startswith(sabotage):
            analytic = analytic * 1.02 + 0.01
        rep = compare_grads(analytic, numeric, tol=tol)
        reports.append(BlockReport(name=name, max_rel_error=rep.max_rel_error, passed=rep.passed,
                                   worst=_entry(arrays, rep.worst_index),
                                   evaluations=2 * numeric.size,
                                   seconds=time.perf_counter() - began))
    return reports
