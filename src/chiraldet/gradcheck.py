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

import numpy as np

from .attention import (
    attend_bwd,
    attend_fwd,
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
    batch_loss,
    batch_step,
    classify_loss,
    dataset_to_pairs,
    forward_batch,
    init_model,
    named_parameters,
    parameter_stage,
    rank_loss,
)
from .numerics import (
    compare_grads,
    det3_batch,
    finite_diff_grad,
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
    """An array as itself, a parameter dataclass as its array fields."""
    return [item] if isinstance(item, np.ndarray) else [a for _, a in _leaves(item)]


def flatten(*items) -> np.ndarray:
    """One flat vector of the arrays of every item, in order."""
    return np.concatenate([a.ravel() for item in items for a in _arrays(item)])


def _numeric(arrays, loss_of) -> np.ndarray:
    """Central differences of a scalar loss in every entry of `arrays`,
    (name, array) pairs, in order.

    While an array is moved, each evaluation writes its point into that
    array, in place, and calls loss_of(name)(), so no evaluation unpacks a
    flat vector or rebuilds a parameter dataclass. Each array is restored
    before the next is moved.
    """
    numeric = []
    for name, live in arrays:
        loss = loss_of(name)
        theta0 = live.flatten()

        def loss_at(theta):
            live[...] = theta.reshape(live.shape)
            return loss()

        try:
            numeric.append(finite_diff_grad(loss_at, theta0))
        finally:
            live[...] = theta0.reshape(live.shape)
    return np.concatenate(numeric)


def _entry(arrays, index: int) -> str:
    """The entry at a flat index of the vector _numeric(arrays, ...) returns,
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


# Each _check_* returns (analytic, numeric, arrays): both gradients over the
# entries of the audited (name, array) pairs, in order.


def _check_kernel(rng, config: ModelConfig):
    bank = init_kernel_bank(rng, 2, 4)
    bank.gamma[:] = rng.uniform(0.8, 1.2, 4)
    mc = _nonsingular_mc(rng, 2)
    weights = rng.standard_normal((2, 2))
    arrays = [("w", bank.w), ("gamma", bank.gamma), ("mc", mc)]

    def f():
        return float((weights * kernel_fwd(bank, mc)[0]).sum())

    numeric = _numeric(arrays, lambda _: f)
    _, cache = kernel_fwd(bank, mc)
    grads, d_mc = kernel_bwd(cache, weights)
    return flatten(grads.w, grads.gamma, d_mc), numeric, arrays


def _check_reg_loss(rng, config: ModelConfig):
    bank = KernelBank(w=rng.standard_normal((2, 4, 3)), gamma=np.ones(4))
    arrays = [("w", bank.w)]

    def f():
        return regularization_loss(bank)

    numeric = _numeric(arrays, lambda _: f)
    return regularization_grad(bank).ravel(), numeric, arrays


def _check_layer_norm(rng, config: ModelConfig):
    x = rng.standard_normal((3, 8))
    gamma = rng.uniform(0.5, 1.5, 8)
    beta = rng.standard_normal(8)
    weights = rng.standard_normal((3, 8))
    arrays = [("x", x), ("gamma", gamma), ("beta", beta)]

    def f():
        return float((weights * layer_norm_rows(x, gamma, beta)[0]).sum())

    numeric = _numeric(arrays, lambda _: f)
    _, cache = layer_norm_rows(x, gamma, beta)
    return flatten(*layer_norm_rows_backward(weights, cache, gamma)), numeric, arrays


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
    weights = rng.standard_normal((2, 3, 5, 2))
    arrays = _leaves(params)

    def f():
        return float((weights * pair_bias_fwd(params, pairs)[0]).sum())

    numeric = _numeric(arrays, lambda _: f)
    _, cache = pair_bias_fwd(params, pairs)
    return flatten(pair_bias_bwd(params, cache, weights)), numeric, arrays


def _check_attention_layer(rng, config: ModelConfig):
    """Padded 3-molecule input: a token plus one unit over 2 related keys
    and 1 non-chiral key, a token-only molecule over 2 non-chiral keys (so
    the first molecule has a pad key), and a token-only molecule without
    keys, whose token row is key-less. Pad entries hold random values: they
    reach the emitted logits, so their gradients are audited as well."""
    layer = init_layer(rng, 8, 2)
    mask = BatchMask.of_counts([1, 0, 0], [2, 0, 0], [1, 2, 0])
    inputs = [rng.standard_normal(s) for s in ((3, 2, 8), (3, 2, 8), (3, 2, 8), (3, 2, 4, 2))]
    w_out = rng.standard_normal((3, 2, 8))
    w_bias = rng.standard_normal((3, 2, 4, 2))
    arrays = _leaves(layer) + list(zip(("h_c_in", "h_r", "h_n", "bias_in"), inputs))

    def f():
        out, bias_out, _, _ = attend_fwd(layer, *inputs, mask)
        return float((w_out * out).sum() + (w_bias * bias_out).sum())

    numeric = _numeric(arrays, lambda _: f)
    _, _, _, cache = attend_fwd(layer, *inputs, mask)
    return flatten(*attend_bwd(layer, cache, w_out, w_bias)), numeric, arrays


def _check_predictor(rng, config: ModelConfig):
    mlp = init_mlp2(rng, 8, 8, 2)
    x = rng.standard_normal((3, 8))
    weights = rng.standard_normal((3, 2))
    arrays = _leaves(mlp) + [("x", x)]

    def f():
        return float((weights * mlp2_fwd(mlp, x)[0]).sum())

    numeric = _numeric(arrays, lambda _: f)
    _, cache = mlp2_fwd(mlp, x)
    return flatten(*mlp2_bwd(mlp, cache, weights)), numeric, arrays


def _oracle(model, batch, objective, reg_weight: float, names):
    """Central differences of batch_loss in the named live parameters, in
    named_parameters order; returns (numeric, the audited (name, array)
    pairs).

    One forward at the starting point is the prefix that every evaluation
    resumes from: an evaluation reruns the forward from the first stage
    that the moved array reaches (parameter_stage).
    """
    prefix = forward_batch(model, batch)
    arrays = [(name, live) for name, live in named_parameters(model) if name in names]

    def loss_of(name):
        start = parameter_stage(model, name)
        return lambda: batch_loss(model, batch, objective, reg_weight, prefix, start)

    return _numeric(arrays, loss_of), arrays


def _check_full_loss(rng, config: ModelConfig):
    """Loss of a padded batch: a one-unit gen_rs molecule and a two-unit
    molecule tiled from two more, so the first has pad queries and pad
    keys. The oracle runs forward only, every evaluation on one prepared
    batch, resumed at the stage its coordinate reaches."""
    model = init_model(config)
    (mol_a, label_a), (mol_b, label_b), (mol_c, _) = gen_rs(
        SyntheticSpec(count=3, seed=int(rng.integers(1 << 16)), spectator_range=(1, 2))
    )
    mols, labels = zip(*dataset_to_pairs(
        [(mol_a, label_a), (tile_molecules([mol_b, mol_c]), label_b)]
    ))
    batch = prepare_batch(mols)
    objective = classify_loss(labels, config.n_classes)
    numeric, arrays = _oracle(model, batch, objective, 0.1,
                              {n for n, _ in named_parameters(model)})
    _, _, grads = batch_step(model, batch, objective, reg_weight=0.1)
    return flatten(*(a for _, a in named_parameters(grads))), numeric, arrays


def _check_rank_loss(rng, config: ModelConfig):
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
    batch = prepare_batch(his + los)
    objective = rank_loss(margin)
    live = {"encoder.kernel.gamma"} | {f"head.{n}" for n, _ in _leaves(model.head)}
    numeric, arrays = _oracle(model, batch, objective, 0.0, live)
    _, _, grads = batch_step(model, batch, objective, reg_weight=0.0)
    return flatten(grads.encoder.kernels.gamma, grads.head), numeric, arrays


_CHECKS = {
    "encoder.kernel": _check_kernel,
    "encoder.reg_loss": _check_reg_loss,
    "numerics.layer_norm": _check_layer_norm,
    "attention.distance_bias": _check_distance_bias,
    "attention.layer": _check_attention_layer,
    "model.predictor": _check_predictor,
    "model.full_loss": _check_full_loss,
    "model.rank_loss": _check_rank_loss,
}
BLOCKS = tuple(_CHECKS)


def run_gradcheck(config: ModelConfig = TINY_CONFIG, seed: int = 1, tol: float = 1e-4,
                  sabotage: str | None = None, blocks=BLOCKS) -> list[BlockReport]:
    """Run every block audit; `sabotage` corrupts matching blocks' analytic
    gradients (negative control for the audit itself). Each block draws
    from its own generator, offset from `seed` by a stable hash of the
    block name, so every process audits the same points."""
    reports = []
    for name in blocks:
        began = time.perf_counter()
        rng = np.random.default_rng(seed + zlib.crc32(name.encode()) % 1000)
        analytic, numeric, arrays = _CHECKS[name](rng, config)
        if sabotage and name.startswith(sabotage):
            analytic = analytic * 1.02 + 0.01
        rep = compare_grads(analytic, numeric, tol=tol)
        reports.append(BlockReport(name=name, max_rel_error=rep.max_rel_error, passed=rep.passed,
                                   worst=_entry(arrays, rep.worst_index),
                                   evaluations=2 * numeric.size,
                                   seconds=time.perf_counter() - began))
    return reports
