"""The audit oracle, _oracle: every block's numeric gradient keeps the
bytes of finite_diff_grad, one evaluation per point. In a model-level
block, evaluation points run their own stage one at a time and the later
stages stacked, AUDIT_CHUNK points per forward."""

import numpy as np
import pytest

import chiraldet.gradcheck
import chiraldet.model
from chiraldet.encoder import prepare_batch
from chiraldet.errors import NumericError
from chiraldet.gradcheck import (
    _CHECKS,
    AUDIT_CHUNK,
    BLOCKS,
    TINY_CONFIG,
    _full_loss_instance,
    _model_points,
    _oracle,
    _rank_loss_instance,
    block_rng,
)
from chiraldet.model import forward_batch, named_parameters
from oracles import batch_loss, finite_diff_grad

INSTANCES = {"model.full_loss": _full_loss_instance, "model.rank_loss": _rank_loss_instance}
SMALL_BLOCKS = [b for b in BLOCKS if b not in INSTANCES]


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_oracle_matches_finite_diff_grad_on_small_blocks(block):
    """Byte for byte against finite_diff_grad over the block's own
    at_point, each array moved through a flat copy of its entries."""
    arrays, analytic, at_point, finish = _CHECKS[block](block_rng(block, 1), TINY_CONFIG)
    numeric = _oracle(arrays, at_point, finish)
    assert numeric.size == analytic.size == sum(live.size for _, live in arrays)
    expect = []
    for name, live in arrays:
        theta0 = live.flatten()

        def loss_at(theta):
            live[...] = theta.reshape(live.shape)
            return at_point(name, live)

        try:
            expect.append(finite_diff_grad(loss_at, theta0))
        finally:
            live[...] = theta0.reshape(live.shape)
    assert numeric.tobytes() == np.concatenate(expect).tobytes()


def test_nonfinite_small_block_evaluation_names_its_coordinate():
    """The 8th evaluation of the layer norm's gamma, the minus point of its
    coordinate 3, is NaN: the error names the coordinate, after every
    point ran, and gamma is restored."""
    arrays, _, at_point, finish = _CHECKS["numerics.layer_norm"](
        block_rng("numerics.layer_norm", 1), TINY_CONFIG)
    gamma = dict(arrays)["gamma"]
    saved = gamma.copy()
    calls = []

    def nan_at_call_8(name, live):
        calls.append(name)
        loss = at_point(name, live)
        return float("nan") if len(calls) == 8 else loss

    with pytest.raises(NumericError, match="^non-finite evaluation at coordinate 3$"):
        _oracle([("gamma", gamma)], nan_at_call_8, finish)
    assert calls == ["gamma"] * (2 * saved.size)
    assert gamma.tobytes() == saved.tobytes()


def audit_instance(block, seed=1):
    """(model, mols, objective, reg_weight, names) as run_gradcheck audits
    the block at `seed`."""
    return INSTANCES[block](block_rng(block, seed), TINY_CONFIG)


@pytest.mark.parametrize("block", list(INSTANCES))
def test_repeated_batch_gives_every_copy_the_bytes_of_the_batch(block):
    model, mols, *_ = audit_instance(block)
    state = forward_batch(model, prepare_batch(mols))
    n = len(mols)
    for k in range(1, AUDIT_CHUNK + 1):
        repeated = forward_batch(model, prepare_batch(mols * k)).outputs
        for stage, outputs, outputs_k in zip(state.stages, state.outputs, repeated, strict=True):
            for a, a_k in zip(outputs.values(), outputs_k.values(), strict=True):
                for j in range(k):
                    assert a_k[j * n : (j + 1) * n].tobytes() == a.tobytes(), (
                        f"{stage.name} output of copy {j} of {k} differs from the batch alone: "
                        f"the audit oracle stacks up to AUDIT_CHUNK = {AUDIT_CHUNK} "
                        "evaluation points per forward and assumes BLAS rounds each "
                        "row of a product alike whatever rows are stacked with it"
                    )


@pytest.mark.parametrize("block", list(INSTANCES))
def test_chunked_oracle_matches_a_full_forward_per_point(block):
    """Byte for byte against finite_diff_grad over batch_loss, which runs
    every stage at every point: in every audited array, its first and last
    five entries, so the points that cross from the first chunk into the
    second and those of the last chunk, short or not."""
    model, mols, objective, reg_weight, names = audit_instance(block)
    arrays, at_point, finish = _model_points(model, mols, objective, reg_weight, names)
    numeric = _oracle(arrays, at_point, finish)
    assert [name for name, _ in arrays] == [n for n, _ in named_parameters(model) if n in names]
    # head.b2 has 2 entries (1 under the ranking head), so its points make
    # one short chunk
    assert (2 * dict(arrays)["head.b2"].size) % AUDIT_CHUNK
    batch = prepare_batch(mols)
    offset = 0
    for name, live in arrays:
        theta0 = live.flatten()
        picked = np.unique(np.r_[0 : min(5, live.size), max(0, live.size - 5) : live.size])

        def loss_at(theta):
            live.flat[picked] = theta
            return batch_loss(model, batch, objective, reg_weight)

        try:
            expect = finite_diff_grad(loss_at, theta0[picked])
        finally:
            live[...] = theta0.reshape(live.shape)
        got = numeric[offset : offset + live.size][picked]
        assert got.tobytes() == expect.tobytes(), name
        offset += live.size
    assert offset == numeric.size


@pytest.fixture(scope="module")
def full_loss():
    return audit_instance("model.full_loss")


@pytest.mark.parametrize("name", ["encoder.kernel.w", "encoder.kernel.gamma", "encoder.token",
                                  "encoder.proj_c.w2", "encoder.proj_r.w1", "encoder.proj_n.b2",
                                  "bias.w_p", "layers.0.wq", "layers.0.wo", "layers.0.ln1_gamma",
                                  "layers.0.ff_w1", "layers.1.ff_b2", "layers.1.ln2_beta",
                                  "head.b2"])
def test_stacked_prefix_resumes_to_the_bytes_of_each_point(full_loss, name):
    """Three points of a parameter, each run by at_point on its own stage
    and then stacked by one finish on the repeated prefix, give each point
    the loss of its own full forward, batch_loss."""
    model, mols, objective, reg_weight, _ = full_loss
    _, at_point, finish = _model_points(model, mols, objective, reg_weight, {name})
    batch = prepare_batch(mols)
    live = dict(named_parameters(model))[name]
    saved = live.flat[0]
    kept, expect = [], []
    try:
        for delta in (0.0, 0.25, -0.5):
            live.flat[0] = saved + delta
            kept.append(at_point(name, live))
            expect.append(batch_loss(model, batch, objective, reg_weight))
    finally:
        live.flat[0] = saved
    assert np.array(finish(name, kept)).tobytes() == np.array(expect).tobytes()


def test_nonfinite_evaluation_names_its_coordinate(full_loss):
    """The 12th evaluation of head.w1, the minus point of its coordinate 5
    in the second chunk, is NaN; the array is restored after the error.
    The objective scores each chunk's stacked copies in one call."""
    model, mols, objective, reg_weight, _ = full_loss
    scored = []  # one entry per evaluation

    def nan_at_evaluation_12(logits):
        losses, d_logits, n_correct = objective(logits)
        losses = [float("nan") if len(scored) + j == 11 else loss
                  for j, loss in enumerate(losses)]
        scored.extend(losses)
        return losses, d_logits, n_correct

    saved = model.head.w1.copy()
    with pytest.raises(NumericError, match="^non-finite evaluation at coordinate 5$"):
        _oracle(*_model_points(model, mols, nan_at_evaluation_12, reg_weight, {"head.w1"}))
    assert len(scored) == 2 * saved.size
    assert np.array_equal(model.head.w1, saved)


@pytest.mark.parametrize("name", ["layers.0.ff_w1", "layers.0.ln1_beta", "layers.1.ff_b2",
                                  "layers.1.ln2_gamma", "layers.0.wq"])
def test_a_feed_forward_point_runs_no_attention(full_loss, monkeypatch, name):
    """An audit point of a feed-forward or layer-norm leaf runs its layer's
    feed-forward alone, in the model.full_loss block and in the
    attention.layer block; a query-weight point runs the attention once."""
    calls = []

    def counted(module):
        attend = module.attend_fwd

        def attend_fwd(*args):
            calls.append(1)
            return attend(*args)

        monkeypatch.setattr(module, "attend_fwd", attend_fwd)

    counted(chiraldet.model)
    counted(chiraldet.gradcheck)
    model, mols, objective, reg_weight, _ = full_loss
    _, at_point, _ = _model_points(model, mols, objective, reg_weight, {name})
    arrays, _, layer_point, _ = _CHECKS["attention.layer"](block_rng("attention.layer", 1),
                                                          TINY_CONFIG)
    leaf = name.rpartition(".")[2]
    calls.clear()
    at_point(name, dict(named_parameters(model))[name])
    layer_point(leaf, dict(arrays)[leaf])
    assert len(calls) == (2 if name.endswith(".wq") else 0)
