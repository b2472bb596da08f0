"""The audit oracle, _oracle: every block's numeric gradient keeps the
bytes of finite_diff_grad over a plain forward per point, and no audited
array is written. Every block scores a chunk of AUDIT_CHUNK points, a
(k, *shape) stack of copies of the moved array, in one call of its
forward; no block runs once per point. A small block, attention.layer
among them, passes the copies to its forward in place of the array. In a
model-level block the copies are stacked into the moved leaf, and the
chunk is one pass of the model's stage loop, _run_stages, on the one
audit batch. Every array the copies move keeps a leading axis of k copies,
(k, B, ...), through every stage, and every other array its single
shape, so the numeric vectors do not depend on the chunk."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import chiraldet.attention
import chiraldet.encoder
import chiraldet.gradcheck
import chiraldet.model
import chiraldet.numerics
from chiraldet.attention import (
    ATTENTION_LEAVES,
    FEED_FORWARD_LEAVES,
    LayerParams,
    attend_fwd,
    feed_forward_fwd,
    init_distance_bias,
    init_layer,
    pair_bias_fwd,
)
from chiraldet.encoder import (
    BatchMask,
    KernelBank,
    init_kernel_bank,
    init_mlp2,
    kernel_fwd,
    mlp2_fwd,
    prepare_batch,
    regularization_loss,
)
from chiraldet.errors import NumericError
from chiraldet.numerics import layer_norm_rows
from chiraldet.gradcheck import (
    _CHECKS,
    AUDIT_CHUNK,
    BLOCKS,
    TINY_CONFIG,
    _full_loss_instance,
    _model_points,
    _nonsingular_mc,
    _oracle,
    _pair_instance,
    _rank_loss_instance,
    _stacked_call,
    block_rng,
    run_gradcheck,
)
from chiraldet.model import (
    _leaves,
    _run_stages,
    forward_batch,
    named_parameters,
    parameter_slots,
)
from oracles import (
    assert_copies_keep_their_bytes,
    batch_loss,
    finite_diff_grad,
    parameter_stage,
)

INSTANCES = {"model.full_loss": _full_loss_instance, "model.rank_loss": _rank_loss_instance}
SMALL_BLOCKS = [b for b in BLOCKS if b not in INSTANCES and b != "attention.layer"]


def replayed_small_block(block):
    """(arrays, loss) of a small block from its seed-1 draws replayed: the
    arrays it audits, as new arrays, and its loss as one plain forward of
    them, a float."""
    rng = block_rng(block, 1)
    if block == "encoder.kernel":
        bank = init_kernel_bank(rng, 2, 4)
        bank.gamma[:] = rng.uniform(0.8, 1.2, 4)
        mc = _nonsingular_mc(rng, 2)
        w = rng.standard_normal((2, 2))
        return _leaves(bank), lambda: float((w * kernel_fwd(bank, mc)[0]).sum())
    if block == "encoder.reg_loss":
        bank = KernelBank(w=rng.standard_normal((2, 4, 3)), gamma=np.ones(4))
        return [("w", bank.w)], lambda: float(regularization_loss(bank))
    if block == "numerics.layer_norm":
        x, gamma, beta = (rng.standard_normal((3, 8)), rng.uniform(0.5, 1.5, 8),
                          rng.standard_normal(8))
        w = rng.standard_normal((3, 8))
        return ([("x", x), ("gamma", gamma), ("beta", beta)],
                lambda: float((w * layer_norm_rows(x, gamma, beta)[0]).sum()))
    if block == "attention.distance_bias":
        params = init_distance_bias(rng, 4, 2)
        params.e1 += rng.normal(0, 0.3, params.e1.shape)
        params.sigma = rng.uniform(0.5, 1.5, 4)
        pairs = _pair_instance(rng)
        w = rng.standard_normal((2, 3, 5, 2))
        return _leaves(params), lambda: float((w * pair_bias_fwd(params, pairs)[0]).sum())
    assert block == "model.predictor"
    mlp = init_mlp2(rng, 8, 8, 2)
    x = rng.standard_normal((3, 8))
    w = rng.standard_normal((3, 2))
    return _leaves(mlp) + [("x", x)], lambda: float((w * mlp2_fwd(mlp, x)[0]).sum())


@pytest.mark.parametrize("block", SMALL_BLOCKS)
def test_oracle_matches_finite_diff_grad_on_small_blocks(block):
    """Byte for byte against finite_diff_grad over the block's forward,
    unstacked, at every point alone, on the block's draws replayed: its
    chunks keep the bytes of one forward per point."""
    arrays, analytic, losses = _CHECKS[block](block_rng(block, 1), TINY_CONFIG)
    numeric = _oracle(arrays, losses)
    assert numeric.size == analytic.size == sum(live.size for _, live in arrays)
    replayed, loss = replayed_small_block(block)
    assert [(n, a.tobytes()) for n, a in replayed] == [(n, a.tobytes()) for n, a in arrays]
    expect = []
    for _, live in replayed:
        theta0 = live.flatten()

        def loss_at(theta):
            live[...] = theta.reshape(live.shape)
            return loss()

        try:
            expect.append(finite_diff_grad(loss_at, theta0))
        finally:
            live[...] = theta0.reshape(live.shape)
    assert numeric.tobytes() == np.concatenate(expect).tobytes()


@pytest.mark.parametrize("block", BLOCKS)
def test_oracle_writes_no_audited_array(block):
    """Every audited array set read-only: _oracle gives the bytes of a run
    on writable arrays, so no evaluation writes into a live array."""
    arrays, _, losses = _CHECKS[block](block_rng(block, 1), TINY_CONFIG)
    expect = _oracle(arrays, losses)
    arrays, _, losses = _CHECKS[block](block_rng(block, 1), TINY_CONFIG)
    for _, live in arrays:
        live.flags.writeable = False
    assert _oracle(arrays, losses).tobytes() == expect.tobytes()


def test_layer_oracle_matches_a_whole_layer_per_point():
    """Byte for byte against finite_diff_grad over the whole layer,
    attend_fwd then feed_forward_fwd, run at every point alone: the
    attention.layer block's chunks keep the bytes of one layer per point."""
    arrays, analytic, losses = _CHECKS["attention.layer"](block_rng("attention.layer", 1),
                                                          TINY_CONFIG)
    numeric = _oracle(arrays, losses)
    assert numeric.size == analytic.size == sum(live.size for _, live in arrays)
    # the block's draws, replayed for the weights of its loss
    rng = block_rng("attention.layer", 1)
    replayed = init_layer(rng, 8, 2)
    inputs = [rng.standard_normal(s) for s in ((3, 2, 8), (3, 2, 8), (3, 2, 8), (3, 2, 4, 2))]
    w_out, w_bias = rng.standard_normal((3, 2, 8)), rng.standard_normal((3, 2, 4, 2))
    live = dict(arrays)
    assert all(live[n].tobytes() == a.tobytes()
               for n, a in _leaves(replayed) + list(zip(("h_c_in", "h_r", "h_n", "bias_in"),
                                                        inputs)))
    # the block's live arrays, so moving one moves this layer too
    layer = LayerParams(**{n: live[n] for n, _ in _leaves(replayed)}, n_heads=2)
    mask = BatchMask.of_counts([1, 0, 0], [2, 0, 0], [1, 2, 0])

    def whole_layer():
        u, bias_out, _, _ = attend_fwd(layer, live["h_c_in"], live["h_r"], live["h_n"],
                                       live["bias_in"], mask)
        outs = (feed_forward_fwd(layer, u)[0], bias_out)
        return float(sum((w * out).sum() for w, out in zip((w_out, w_bias), outs)))

    expect = []
    for name, a in arrays:
        theta0 = a.flatten()

        def loss_at(theta):
            a[...] = theta.reshape(a.shape)
            return whole_layer()

        try:
            expect.append(finite_diff_grad(loss_at, theta0))
        finally:
            a[...] = theta0.reshape(a.shape)
    assert numeric.tobytes() == np.concatenate(expect).tobytes()


def test_nonfinite_small_block_evaluation_names_its_coordinate():
    """The 8th evaluation of the layer norm's gamma, the minus point of its
    coordinate 3, is NaN: the error names the coordinate, after every
    point ran, and gamma keeps its bytes."""
    arrays, _, losses = _CHECKS["numerics.layer_norm"](block_rng("numerics.layer_norm", 1),
                                                       TINY_CONFIG)
    gamma = dict(arrays)["gamma"]
    saved = gamma.copy()
    scored = []  # one entry per evaluation

    def nan_at_evaluation_8(name, copies):
        values = [float("nan") if len(scored) + j == 7 else v
                  for j, v in enumerate(losses(name, copies))]
        scored.extend(values)
        return values

    with pytest.raises(NumericError, match="^non-finite evaluation at coordinate 3$"):
        _oracle([("gamma", gamma)], nan_at_evaluation_8)
    assert len(scored) == 2 * saved.size
    assert gamma.tobytes() == saved.tobytes()


def audit_instance(block, seed=1):
    """(model, mols, objective, reg_weight, names) as run_gradcheck audits
    the block at `seed`."""
    return INSTANCES[block](block_rng(block, seed), TINY_CONFIG)


@pytest.mark.parametrize("block", list(INSTANCES))
def test_every_rerun_stage_gives_each_stacked_read_copy_its_own_bytes(block):
    """Every read of every stage, which a chunk reruns whatever array it
    moves, given as k stacked copies, (k, B, ...), with the stage's other
    reads at θ0, on the one audit batch, gives each copy the bytes of that
    copy alone, for k = 1 ... AUDIT_CHUNK."""
    model, mols, _, _, _ = audit_instance(block)
    batch = prepare_batch(mols)
    state = forward_batch(model, batch)
    latest, checked = {}, 0  # latest: the θ0 array of each name
    for stage, outputs in zip(state.stages, state.outputs, strict=True):
        held = SimpleNamespace(**{n: latest[n] for n in stage.reads})

        def run(stage=stage, held=held):
            return stage.forward(model, batch, *(getattr(held, n) for n in stage.reads))[:-1]

        for read in stage.reads:
            assert_copies_keep_their_bytes(held, read, run)
            checked += 1
        latest.update(outputs)
    # the queries' h_k, each layer's four attention reads and its u, the head's h_c
    assert checked == 1 + 5 * len(model.layers) + 1


@pytest.mark.parametrize("chunk", [32, 64, 128])
@pytest.mark.parametrize("block", ["attention.layer", "model.full_loss"])
def test_audit_vector_does_not_depend_on_the_chunk(monkeypatch, block, chunk):
    """The block's numeric vector at seed 1 has the same bytes in chunks
    of 32, 64 (AUDIT_CHUNK) or 128 points as in chunks of 16: a copy's
    products keep the shapes of a lone forward whatever the chunk."""
    arrays, _, losses = _CHECKS[block](block_rng(block, 1), TINY_CONFIG)
    monkeypatch.setattr(chiraldet.gradcheck, "AUDIT_CHUNK", 16)
    expect = _oracle(arrays, losses)
    monkeypatch.setattr(chiraldet.gradcheck, "AUDIT_CHUNK", chunk)
    assert _oracle(arrays, losses).tobytes() == expect.tobytes()


@pytest.mark.parametrize("block", list(INSTANCES))
def test_chunked_oracle_matches_a_full_forward_per_point(block):
    """Byte for byte against finite_diff_grad over batch_loss, which runs
    every stage at every point: in every audited array, its first
    AUDIT_CHUNK // 2 + 1 and last five entries, so the points that cross
    from the first chunk into the second and those of the last chunk,
    short or not."""
    model, mols, objective, reg_weight, names = audit_instance(block)
    arrays, losses = _model_points(model, mols, objective, reg_weight, names)
    numeric = _oracle(arrays, losses)
    assert [name for name, _ in arrays] == [n for n, _ in named_parameters(model) if n in names]
    # head.b2 has 2 entries (1 under the ranking head), so its points make
    # one short chunk
    assert (2 * dict(arrays)["head.b2"].size) % AUDIT_CHUNK
    batch = prepare_batch(mols)
    offset = 0
    for name, live in arrays:
        theta0 = live.flatten()
        picked = np.unique(np.r_[0 : min(AUDIT_CHUNK // 2 + 1, live.size),
                                 max(0, live.size - 5) : live.size])

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
    """Three points of a parameter, a stack of three copies scored by one
    losses call on the one batch, give each point the loss of its
    own full forward, batch_loss."""
    model, mols, objective, reg_weight, _ = full_loss
    _, losses = _model_points(model, mols, objective, reg_weight, {name})
    batch = prepare_batch(mols)
    live = dict(named_parameters(model))[name]
    saved = live.flat[0]
    points = saved + np.array([0.0, 0.25, -0.5])
    copies = np.stack([live] * 3)
    copies.reshape(3, -1)[:, 0] = points
    expect = []
    try:
        for point in points:
            live.flat[0] = point
            expect.append(batch_loss(model, batch, objective, reg_weight))
    finally:
        live.flat[0] = saved
    assert np.asarray(losses(name, copies)).tobytes() == np.array(expect).tobytes()


def test_nonfinite_evaluation_names_its_coordinate(full_loss):
    """The 100th evaluation of head.w1, the minus point of its coordinate
    49 in the second chunk, is NaN; the array is restored after the error.
    The objective scores each chunk's stacked copies in one call."""
    model, mols, objective, reg_weight, _ = full_loss
    scored = []  # one entry per evaluation
    assert AUDIT_CHUNK < 100 <= 2 * AUDIT_CHUNK

    def nan_at_evaluation_100(logits):
        losses, d_logits, n_correct = objective(logits)
        losses = [float("nan") if len(scored) + j == 99 else loss
                  for j, loss in enumerate(losses)]
        scored.extend(losses)
        return losses, d_logits, n_correct

    saved = model.head.w1.copy()
    with pytest.raises(NumericError, match="^non-finite evaluation at coordinate 49$"):
        _oracle(*_model_points(model, mols, nan_at_evaluation_100, reg_weight, {"head.w1"}))
    assert len(scored) == 2 * saved.size
    assert np.array_equal(model.head.w1, saved)


@pytest.mark.parametrize("name", ["layers.0.ff_w1", "layers.0.ln1_beta", "layers.1.ff_b2",
                                  "layers.1.ln2_gamma", "layers.0.wq"])
def test_a_feed_forward_point_runs_no_attention(full_loss, monkeypatch, name):
    """A chunk of AUDIT_CHUNK points of a layer leaf runs its layer's
    attention once, in the model.full_loss block and in the
    attention.layer block. For a feed-forward or layer-norm leaf that one
    attend_fwd call is at θ0, its outputs at their single shape, so no
    copy runs an attention of its own; for an attention leaf it is
    stacked, its output u holding one block per copy."""
    calls = []  # (the layer, the shape of u) of each attend_fwd call

    def counted(module):
        attend = module.attend_fwd

        def attend_fwd(layer, *args):
            out = attend(layer, *args)
            calls.append((layer, out[0].shape))
            return out

        monkeypatch.setattr(module, "attend_fwd", attend_fwd)

    counted(chiraldet.model)
    counted(chiraldet.gradcheck)
    model, mols, objective, reg_weight, _ = full_loss
    _, losses = _model_points(model, mols, objective, reg_weight, {name})
    arrays, _, layer_losses = _CHECKS["attention.layer"](block_rng("attention.layer", 1),
                                                         TINY_CONFIG)
    leaf = name.rpartition(".")[2]
    stacked = leaf in ATTENTION_LEAVES
    u_shape = next(out["u"] for out in forward_batch(model, prepare_batch(mols)).outputs
                   if "u" in out).shape
    layer = model.layers[int(name.split(".")[1])]
    calls.clear()
    losses(name, np.stack([dict(named_parameters(model))[name]] * AUDIT_CHUNK))
    assert [shape for called, shape in calls if called is layer] == [
        (AUDIT_CHUNK, *u_shape) if stacked else u_shape]
    calls.clear()
    layer_losses(leaf, np.stack([dict(arrays)[leaf]] * AUDIT_CHUNK))
    assert [shape for _, shape in calls] == [(AUDIT_CHUNK, 3, 2, 8) if stacked else (3, 2, 8)]


@pytest.mark.parametrize("name", ["encoder.kernel.w", "encoder.proj_c.w1", "encoder.proj_r.b1",
                                  "encoder.proj_n.w2", "layers.1.wq", "layers.1.ln1_gamma"])
def test_a_chunk_reruns_only_the_stages_its_point_reaches(full_loss, monkeypatch, name):
    """One chunk of AUDIT_CHUNK points calls each stage's forward once, in
    table order, and the moved stage sees the stacked leaf. The copies
    reach only the stages downstream of the moved one: those write their
    arrays with a leading axis of k copies, and every other stage writes
    its θ0 arrays at their single shape. So an encoder chunk runs the pair
    bias once unstacked, a proj_r chunk every other projector too, and a
    layers.1 chunk every stage of layer 0."""
    model, mols, objective, reg_weight, _ = full_loss
    stages = chiraldet.model.forward_stages(model)
    state = forward_batch(model, prepare_batch(mols))
    holder, field = next((h, f) for n, h, f in parameter_slots(model) if n == name)
    calls = []  # (stage index, whether the leaf is stacked, each written array stacked)

    def recorded(t, stage):
        def forward(*args):
            *written, cache = stage.forward(*args)
            single = state.outputs[t].values()
            calls.append((t, getattr(holder, field).shape[0] == AUDIT_CHUNK,
                          [a.shape == (AUDIT_CHUNK, *s.shape) for a, s in zip(written, single)]))
            return *written, cache

        return stage._replace(forward=forward)

    monkeypatch.setattr(chiraldet.model, "forward_stages",
                        lambda model: tuple(recorded(t, st) for t, st in enumerate(stages)))
    arrays, losses = _model_points(model, mols, objective, reg_weight, {name})
    copies = np.stack([dict(arrays)[name]] * AUDIT_CHUNK)
    copies.reshape(AUDIT_CHUNK, -1)[:, 0] += np.arange(1, AUDIT_CHUNK + 1) * 1e-3
    losses(name, copies)
    assert [t for t, _, _ in calls] == list(range(len(stages)))
    assert all(leaf_stacked for _, leaf_stacked, _ in calls)
    moved = parameter_stage(model, name)
    # the kernel readout reaches the queries; every encoder stage and the
    # pair bias reach both layers and the head; a layer stage what follows
    reached = {0: {0, 1}}.get(moved, {moved}) | set(range(max(moved, 5), len(stages)))
    assert [t for t, _, written in calls if all(written)] == sorted(reached)
    assert all(not any(written) for t, _, written in calls if t not in reached)


@pytest.mark.parametrize("block", list(INSTANCES))
def test_every_stage_gives_each_stacked_copy_its_own_bytes(block):
    """Every leaf of every stage, matrices and vectors: the kernel readout,
    the queries (proj_c and the token), proj_r, proj_n, the pair bias,
    each layer's attention and feed-forward, and the head, each run once
    on its θ0 reads."""
    model, mols, _, _, _ = audit_instance(block)
    batch = prepare_batch(mols)
    state = forward_batch(model, batch)
    latest, reads = {}, []  # reads[t]: the θ0 arrays stage t reads
    for stage, outputs in zip(state.stages, state.outputs, strict=True):
        reads.append([latest[n] for n in stage.reads])
        latest.update(outputs)
    stages = []
    for name, holder, field in parameter_slots(model):
        t = parameter_stage(model, name)
        stages.append(t)
        assert_copies_keep_their_bytes(
            holder, field, lambda t=t: state.stages[t].forward(model, batch, *reads[t])[:-1])
    assert sorted(set(stages)) == list(range(len(state.stages)))
    assert len(stages) == 2 + 5 + 4 + 4 + 5 + 6 + 8 + 6 + 8 + 4


def test_feed_forward_leaves_give_each_copy_the_bytes_of_that_copy_alone():
    """attention.layer's layer and u: every feed-forward leaf stacked into
    feed_forward_fwd; a run that raises leaves the original leaf."""
    arrays, *_ = _CHECKS["attention.layer"](block_rng("attention.layer", 1), TINY_CONFIG)
    live = dict(arrays)
    layer = LayerParams(**{n: live[n] for n in ATTENTION_LEAVES + FEED_FORWARD_LEAVES},
                        n_heads=2)
    mask = BatchMask.of_counts([1, 0, 0], [2, 0, 0], [1, 2, 0])
    u = attend_fwd(layer, live["h_c_in"], live["h_r"], live["h_n"], live["bias_in"], mask)[0]
    for leaf in FEED_FORWARD_LEAVES:
        assert_copies_keep_their_bytes(layer, leaf, lambda: (feed_forward_fwd(layer, u)[0],))
    with pytest.raises(ZeroDivisionError):
        _stacked_call(layer, "ff_b1", np.stack([layer.ff_b1] * 2), lambda: 1 / 0)
    assert layer.ff_b1 is live["ff_b1"]


def attention_layer_instance():
    """attention.layer's layer, its four inputs and its mask, as
    run_gradcheck audits them at seed 1."""
    arrays, *_ = _CHECKS["attention.layer"](block_rng("attention.layer", 1), TINY_CONFIG)
    live = dict(arrays)
    layer = LayerParams(**{n: live[n] for n in ATTENTION_LEAVES + FEED_FORWARD_LEAVES},
                        n_heads=2)
    inputs = [live[n] for n in ("h_c_in", "h_r", "h_n", "bias_in")]
    return layer, inputs, BatchMask.of_counts([1, 0, 0], [2, 0, 0], [1, 2, 0])


def test_attention_leaves_give_each_copy_the_bytes_of_that_copy_alone():
    """attention.layer's layer and inputs: every attention weight stacked
    into attend_fwd gives each copy u, bias_out and attn of that copy
    alone, also wv_* and wo, which move neither bias_out nor attn."""
    layer, inputs, mask = attention_layer_instance()
    for leaf in ATTENTION_LEAVES:
        assert_copies_keep_their_bytes(layer, leaf, lambda: attend_fwd(layer, *inputs, mask)[:3])


@pytest.mark.parametrize("j", [0, 2])
def test_stacked_attention_error_row_counts_across_copies(j):
    """Copy j of three stacked wq copies is infinite: the non-finite-logits
    NumericError names molecule j * B + 0, the first molecule of copy j,
    and the leaf is restored after the error."""
    layer, inputs, mask = attention_layer_instance()
    live = layer.wq
    copies = np.stack([live] * 3)
    copies[j, 0, 0] = np.inf
    with pytest.raises(NumericError, match="non-finite attention logits") as err:
        _stacked_call(layer, "wq", copies, lambda: attend_fwd(layer, *inputs, mask))
    assert err.value.row == j * len(inputs[0]) + 0
    assert layer.wq is live
    assert np.isfinite(live).all()


# what a stacked pass raises when copy {j} of a leaf is infinite: layer 1's
# attention logits, or the logits, whose walk finds the head's stage
NONFINITE_COPY = {
    "layers.1.wq": "molecule rs00000, copy {j}: layer 1: non-finite attention logits",
    "head.b2": "molecule rs00000, copy {j}: non-finite logits, "
               "first non-finite stage output: pooling and head",
}


@pytest.mark.parametrize(("k", "j"), [(2, 0), (2, 1), (3, 0), (3, 2)])
@pytest.mark.parametrize("name", list(NONFINITE_COPY))
def test_a_nonfinite_copy_names_its_molecule_and_copy(full_loss, name, k, j):
    """Copy j of k stacked copies of a leaf holds an infinity: a
    _run_stages pass, and the audit's losses over the same copies, raise
    a NumericError naming the first molecule of copy j and the copy,
    never an IndexError, also when k equals the batch's B = 2, so that
    sizes alone cannot tell a copy axis from the molecule axis. The leaf
    is restored after the error."""
    model, mols, objective, reg_weight, _ = full_loss
    batch = prepare_batch(mols)
    assert len(batch.ids) == 2
    holder, field = next((h, f) for n, h, f in parameter_slots(model) if n == name)
    live = getattr(holder, field)
    copies = np.stack([live] * k)
    copies[j].flat[0] = np.inf
    _, losses = _model_points(model, mols, objective, reg_weight, {name})
    for run in (lambda: _stacked_call(holder, field, copies, lambda: _run_stages(model, batch)),
                lambda: losses(name, copies)):
        with np.errstate(invalid="ignore"), pytest.raises(NumericError) as err:
            run()
        assert str(err.value) == NONFINITE_COPY[name].format(j=j)
        assert getattr(holder, field) is live
    assert np.isfinite(live).all()


def test_the_model_blocks_run_the_model_stage_loop(monkeypatch):
    """The two model-level blocks run their forwards through
    model._run_stages: one cache-free call per chunk of points and one for
    the rank instance's scoring, and one call keeping caches per block,
    its analytic batch_step's forward_batch."""
    chunks = sum(math.ceil(2 * live.size / AUDIT_CHUNK) for block in INSTANCES
                 for _, live in _CHECKS[block](block_rng(block, 1), TINY_CONFIG)[0])
    calls = []  # whether each call keeps caches

    def counted(model, batch, caches=None):
        calls.append(caches is not None)
        return _run_stages(model, batch, caches)

    for module in (chiraldet.model, chiraldet.gradcheck):
        monkeypatch.setattr(module, "_run_stages", counted)
    assert all(report.passed for report in run_gradcheck(blocks=tuple(INSTANCES)))
    assert (calls.count(False), calls.count(True)) == (chunks + 1, 2) == (141, 2)


def test_unknown_block_raises_before_any_block_runs(monkeypatch):
    """An unknown name among `blocks`, even after a known one, raises a
    ValueError that names it and lists BLOCKS, before any block runs."""
    def no_block(name, seed):
        raise AssertionError(f"block {name} ran")

    monkeypatch.setattr(chiraldet.gradcheck, "block_rng", no_block)
    with pytest.raises(ValueError) as err:
        run_gradcheck(blocks=("model.full_loss", "bogus"))
    assert str(err.value) == f"no audit block 'bogus'; blocks: {', '.join(BLOCKS)}"


def test_audit_call_counts(monkeypatch):
    """One run_gradcheck() makes these calls, counted at every module
    attribute that reaches the function: every block scores a chunk of
    points in one call of its forward, so a fallback to a call per point
    shows. A model-level chunk runs every stage once, so attend_fwd and
    feed_forward_fwd are called as often. regularization_loss runs once
    per chunk of encoder.reg_loss and of model.full_loss, plus the penalty
    of its analytic batch_step."""
    counts = dict.fromkeys(("kernel_fwd", "pair_bias_fwd", "attend_fwd", "feed_forward_fwd",
                            "mlp2_fwd", "layer_norm_rows", "regularization_loss"), 0)

    def counted(fn, run):
        def wrapper(*args, **kwargs):
            counts[fn] += 1
            return run(*args, **kwargs)

        return wrapper

    for module in (chiraldet.numerics, chiraldet.encoder, chiraldet.attention, chiraldet.model,
                   chiraldet.gradcheck):
        for fn in counts:
            if hasattr(module, fn):
                monkeypatch.setattr(module, fn, counted(fn, getattr(module, fn)))
    assert all(report.passed for report in run_gradcheck())
    assert counts == {"kernel_fwd": 146, "pair_bias_fwd": 149, "attend_fwd": 329,
                      "feed_forward_fwd": 329, "mlp2_fwd": 908, "layer_norm_rows": 662,
                      "regularization_loss": 136}
