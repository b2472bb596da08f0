"""Per-block gradient audits: every hand-written backward pass against a
central finite-difference oracle on a tiny configuration.

Blocks are named module.op ("encoder.kernel", "attention.layer", ...). A
sabotage prefix corrupts the analytic gradient of every matching block so
the harness can prove the audit actually detects wrong gradients.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .attention import (
    DistanceBiasParams,
    LayerParams,
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
    kernel_bwd,
    kernel_fwd,
    pair_inputs,
    prepare_batch,
    regularization_grad,
    regularization_loss,
)
from .model import (
    _BIAS_FIELDS,
    _LAYER_FIELDS,
    FROZEN_PARAMS,
    ModelConfig,
    batch_loss_classify,
    batch_step_classify,
    dataset_to_pairs,
    init_model,
    named_parameters,
)
from .numerics import (
    compare_grads,
    det3,
    finite_diff_grad,
    layer_norm_rows,
    layer_norm_rows_backward,
)

TINY_CONFIG = ModelConfig(h=8, d_p=4, n_layers=2, n_heads=2, n_gkpt=8, seed=1)

BLOCKS = (
    "encoder.kernel",
    "encoder.reg_loss",
    "numerics.layer_norm",
    "attention.distance_bias",
    "attention.layer",
    "model.predictor",
    "model.full_loss",
)


@dataclass
class BlockReport:
    name: str
    max_rel_error: float
    passed: bool


def _nonsingular_mc(rng, n, floor=0.3):
    out = []
    while len(out) < n:
        m = rng.standard_normal((3, 3))
        if abs(det3(m)) >= floor:
            out.append(m)
    return np.stack(out)


def _check_kernel(rng):
    bank = init_kernel_bank(rng, 2, 4)
    bank.gamma[:] = rng.uniform(0.8, 1.2, 4)
    mc = _nonsingular_mc(rng, 2)
    weights = rng.standard_normal((2, 2))

    def f(theta):
        i = bank.w.size
        b = KernelBank(w=theta[:i].reshape(bank.w.shape), gamma=theta[i : i + 4], beta=bank.beta)
        return float((weights * kernel_fwd(b, theta[i + 4 :].reshape(2, 3, 3))[0]).sum())

    theta0 = np.concatenate([bank.w.ravel(), bank.gamma, mc.ravel()])
    numeric = finite_diff_grad(f, theta0)
    _, cache = kernel_fwd(bank, mc)
    d_w, d_gamma, d_mc = kernel_bwd(cache, weights)
    return np.concatenate([d_w.ravel(), d_gamma, d_mc.ravel()]), numeric


def _check_reg_loss(rng):
    bank = KernelBank(w=rng.standard_normal((2, 4, 3)), gamma=np.ones(4), beta=np.zeros(4))

    def f(theta):
        return regularization_loss(
            KernelBank(w=theta.reshape(bank.w.shape), gamma=bank.gamma, beta=bank.beta)
        )

    numeric = finite_diff_grad(f, bank.w.ravel())
    return regularization_grad(bank).ravel(), numeric


def _check_layer_norm(rng):
    x = rng.standard_normal((3, 8))
    gamma = rng.uniform(0.5, 1.5, 8)
    beta = rng.standard_normal(8)
    weights = rng.standard_normal((3, 8))

    def f(theta):
        xs = theta[:24].reshape(3, 8)
        out, _ = layer_norm_rows(xs, theta[24:32], theta[32:])
        return float((weights * out).sum())

    numeric = finite_diff_grad(f, np.concatenate([x.ravel(), gamma, beta]))
    _, cache = layer_norm_rows(x, gamma, beta)
    d_x, d_gamma, d_beta = layer_norm_rows_backward(weights, cache, gamma)
    return np.concatenate([d_x.ravel(), d_gamma, d_beta]), numeric


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
    weights = rng.standard_normal((2, 3, 5, 2))

    def f(theta):
        parts, i = {}, 0
        for name in _BIAS_FIELDS:
            arr = getattr(params, name)
            parts[name] = theta[i : i + arr.size].reshape(arr.shape)
            i += arr.size
        return float((weights * pair_bias_fwd(DistanceBiasParams(**parts), pairs)[0]).sum())

    theta0 = np.concatenate([getattr(params, n).ravel() for n in _BIAS_FIELDS])
    numeric = finite_diff_grad(f, theta0)
    _, cache = pair_bias_fwd(params, pairs)
    grads = pair_bias_bwd(params, cache, weights)
    return np.concatenate([grads[n].ravel() for n in _BIAS_FIELDS]), numeric


def _check_attention_layer(rng):
    """Padded 3-molecule input: a token plus one unit over 2 related keys
    and 1 non-chiral key, a token-only molecule over 2 non-chiral keys (so
    the first molecule has a pad key), and a token-only molecule without
    keys, whose token row is key-less. Pad entries hold random values: they
    reach the emitted logits, so their gradients are audited as well."""
    layer = init_layer(rng, 8, 2)
    mask = BatchMask.of_counts([1, 0, 0], [2, 0, 0], [1, 2, 0])
    shapes = {"h_c": (3, 2, 8), "h_r": (3, 2, 8), "h_n": (3, 2, 8), "p": (3, 2, 4, 2)}
    inputs = {name: rng.standard_normal(shape) for name, shape in shapes.items()}
    w_out = rng.standard_normal((3, 2, 8))
    w_bias = rng.standard_normal((3, 2, 4, 2))

    def f(theta):
        parts, i = {}, 0
        for name, arr in [(n, getattr(layer, n)) for n in _LAYER_FIELDS] + list(inputs.items()):
            parts[name] = theta[i : i + arr.size].reshape(arr.shape)
            i += arr.size
        out, bias_out, _, _ = attend_fwd(
            LayerParams(**{n: parts[n] for n in _LAYER_FIELDS}, n_heads=2),
            parts["h_c"], parts["h_r"], parts["h_n"], parts["p"], mask,
        )
        return float((w_out * out).sum() + (w_bias * bias_out).sum())

    theta0 = np.concatenate(
        [getattr(layer, n).ravel() for n in _LAYER_FIELDS] + [a.ravel() for a in inputs.values()]
    )
    numeric = finite_diff_grad(f, theta0)
    _, _, _, cache = attend_fwd(
        layer, inputs["h_c"], inputs["h_r"], inputs["h_n"], inputs["p"], mask
    )
    grads, d_hc, d_hr, d_hn, d_bias = attend_bwd(layer, cache, w_out, w_bias)
    analytic = np.concatenate(
        [grads[n].ravel() for n in _LAYER_FIELDS]
        + [d_hc.ravel(), d_hr.ravel(), d_hn.ravel(), d_bias.ravel()]
    )
    return analytic, numeric


def _check_predictor(rng):
    from .encoder import init_mlp2, mlp2_bwd, mlp2_fwd, Mlp2

    mlp = init_mlp2(rng, 8, 8, 2)
    x = rng.standard_normal((3, 8))
    weights = rng.standard_normal((3, 2))
    names = ("w1", "b1", "w2", "b2")

    def f(theta):
        parts, i = {}, 0
        for name in names:
            arr = getattr(mlp, name)
            parts[name] = theta[i : i + arr.size].reshape(arr.shape)
            i += arr.size
        out, _ = mlp2_fwd(Mlp2(**parts), theta[i:].reshape(3, 8))
        return float((weights * out).sum())

    theta0 = np.concatenate([getattr(mlp, n).ravel() for n in names] + [x.ravel()])
    numeric = finite_diff_grad(f, theta0)
    out, cache = mlp2_fwd(mlp, x)
    grads, d_x = mlp2_bwd(mlp, cache, weights)
    analytic = np.concatenate([grads[n].ravel() for n in names] + [d_x.ravel()])
    return analytic, numeric


def _check_full_loss(rng, config: ModelConfig):
    """Loss of a padded batch: a one-unit gen_rs molecule and a two-unit
    molecule tiled from two more, so the first has pad queries and pad
    keys. The oracle runs forward only, every evaluation on one prepared
    batch with its point written into the live parameters."""
    model = init_model(config)
    (mol_a, label_a), (mol_b, label_b), (mol_c, _) = gen_rs(
        SyntheticSpec(count=3, seed=int(rng.integers(1 << 16)), spectator_range=(1, 2))
    )
    mols, labels = zip(*dataset_to_pairs(
        [(mol_a, label_a), (tile_molecules([mol_b, mol_c]), label_b)]
    ))
    batch = prepare_batch(mols)
    live = [(n, a) for n, a in named_parameters(model) if n not in FROZEN_PARAMS]

    def set_theta(theta):
        i = 0
        for _, a in live:
            a[...] = theta[i : i + a.size].reshape(a.shape)
            i += a.size

    def f(theta):
        set_theta(theta)
        return batch_loss_classify(model, batch, labels, reg_weight=0.1)

    theta0 = np.concatenate([a.ravel() for _, a in live])
    try:
        numeric = finite_diff_grad(f, theta0)
    finally:
        set_theta(theta0)
    _, _, grads = batch_step_classify(model, batch, labels, reg_weight=0.1)
    analytic = np.concatenate([grads[n].ravel() for n, _ in live])
    return analytic, numeric


_CHECKS = {
    "encoder.kernel": _check_kernel,
    "encoder.reg_loss": _check_reg_loss,
    "numerics.layer_norm": _check_layer_norm,
    "attention.distance_bias": _check_distance_bias,
    "attention.layer": _check_attention_layer,
    "model.predictor": _check_predictor,
}


def run_gradcheck(config: ModelConfig = TINY_CONFIG, seed: int = 1, tol: float = 1e-4,
                  sabotage: str | None = None, blocks=BLOCKS) -> list[BlockReport]:
    """Run every block audit; `sabotage` corrupts matching blocks' analytic
    gradients (negative control for the audit itself). Each block draws
    from its own generator, offset from `seed` by a stable hash of the
    block name, so every process audits the same points."""
    reports = []
    for name in blocks:
        rng = np.random.default_rng(seed + zlib.crc32(name.encode()) % 1000)
        if name == "model.full_loss":
            analytic, numeric = _check_full_loss(rng, config)
        else:
            analytic, numeric = _CHECKS[name](rng)
        if sabotage and name.startswith(sabotage):
            analytic = analytic * 1.02 + 0.01
        rep = compare_grads(analytic, numeric, tol=tol)
        reports.append(BlockReport(name=name, max_rel_error=rep.max_rel_error, passed=rep.passed))
    return reports
