"""The padded batch path: one forward/backward over molecules of mixed size
must give each molecule exactly what a batch of one gives it."""

from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chiraldet.model
from chiraldet.attention import (
    attend_fwd,
    feed_forward_fwd,
    head_averaged_rows,
    init_layer,
)
from chiraldet.data import SyntheticSpec, featurize, gen_axial, gen_rs, tile_molecules
from chiraldet.encoder import BatchMask, prepare_batch
from chiraldet.errors import AnnotationError, NumericError
from chiraldet.geometry import ChiralUnit, Molecule, UnitKind, mirror
from chiraldet.gradcheck import TINY_CONFIG
from chiraldet.model import (
    EVAL_CHUNK,
    AdamState,
    ModelConfig,
    _head_rows,
    adam_step,
    attention_export_rows,
    backward_batch,
    embed,
    embed_rows,
    evaluate,
    forward,
    forward_batch,
    forward_stages,
    init_model,
    mirror_consistency,
    named_parameters,
)
from chiraldet.numerics import layer_norm_rows
from oracles import (
    ATTENTION_LEAVES,
    FEED_FORWARD_LEAVES,
    batch_reference,
    loss_classify,
    parameter_stage,
)

TINY = dict(h=8, d_p=4, n_layers=2, n_heads=2, n_gkpt=8)


def token_only_molecule():
    zs = np.array([6, 6, 8])
    coords = np.array([[0.0, 0.0, 0.0], [1.3, 0.0, 0.0], [0.0, 1.2, 0.3]])
    return Molecule(coords=coords, atomic_numbers=zs, features=featurize(zs)).validate()


def keyless_chiral_molecule():
    """Five atoms, each the centre of a unit whose related atoms are the
    other four: every atom is chiral, so the key set is empty."""
    rng = np.random.default_rng(3)
    zs = np.array([6, 7, 8, 9, 15])
    units = tuple(
        ChiralUnit(kind=UnitKind.CENTER, center_atoms=(i,), related=tuple(j for j in range(5) if j != i))
        for i in range(5)
    )
    return Molecule(coords=rng.uniform(-2, 2, (5, 3)), atomic_numbers=zs,
                    features=featurize(zs), chiral_units=units).validate()


@pytest.fixture(scope="module")
def mixed():
    """Centres with 0-3 spectators, axes, 2/3/6-unit molecules and a
    token-only molecule, with a label each."""
    centres = [m for m, _ in gen_rs(SyntheticSpec(count=12, seed=61, spectator_range=(0, 3)))]
    axes = [m for m, _ in gen_axial(4, seed=62)]
    frags = centres[4:] + axes[2:]
    mols = centres[:4] + axes[:2] + [
        tile_molecules(frags[:2]),
        tile_molecules(frags[2:5]),
        tile_molecules(frags[4:10]),
        token_only_molecule(),
    ]
    assert sorted({len(m.chiral_units) for m in mols}) == [0, 1, 2, 3, 6]
    labels = np.arange(len(mols)) % 2
    return mols, labels


def assert_same(got, want, where):
    """Equal values of the same type, arrays also of the same dtype and
    shape, through tuples and dataclasses."""
    assert type(got) is type(want), where
    if isinstance(want, np.ndarray):
        assert got.dtype == want.dtype and np.array_equal(got, want), where
    elif isinstance(want, tuple):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif hasattr(want, "__dataclass_fields__"):
        for f in fields(want):
            assert_same(getattr(got, f.name), getattr(want, f.name), f"{where}.{f.name}")
    else:
        assert got == want, where


def random_molecule(rng, n_atoms, n_units):
    """Up to n_units centres and axes on random atoms, with disjoint centre
    atoms; related atoms may repeat across units or centre another unit."""
    units, taken = [], set()
    for _ in range(n_units):
        n_centre = int(rng.integers(1, 3))
        free = [a for a in range(n_atoms) if a not in taken]
        if len(free) < n_centre or n_atoms < n_centre + 4:
            break
        centre = tuple(int(a) for a in rng.choice(free, n_centre, replace=False))
        others = [a for a in range(n_atoms) if a not in centre]
        units.append(ChiralUnit(
            kind=UnitKind.CENTER if n_centre == 1 else UnitKind.AXIS,
            center_atoms=centre,
            related=tuple(int(a) for a in rng.choice(others, 4, replace=False)),
        ))
        taken.update(centre)
    return Molecule(coords=rng.standard_normal((n_atoms, 3)),
                    atomic_numbers=np.full(n_atoms, 6),
                    features=rng.standard_normal((n_atoms, 5)),
                    chiral_units=tuple(units), id=f"m{n_atoms}.{len(units)}").validate()


@pytest.mark.parametrize("chunk", [1, 3, 10])
def test_prepare_batch_matches_per_unit_reference(mixed, chunk):
    mols = mixed[0]
    for i in range(0, len(mols), chunk):
        assert_same(prepare_batch(mols[i : i + chunk]), batch_reference(mols[i : i + chunk]),
                    f"batch {i}")


def test_prepare_batch_matches_reference_on_overlapping_units():
    # unit 1 centres a related atom of unit 0, both relate to atom 6, and
    # the axis shares related atoms with each
    rng = np.random.default_rng(5)
    units = (
        ChiralUnit(kind=UnitKind.CENTER, center_atoms=(0,), related=(1, 2, 3, 6)),
        ChiralUnit(kind=UnitKind.CENTER, center_atoms=(1,), related=(4, 5, 6, 7)),
        ChiralUnit(kind=UnitKind.AXIS, center_atoms=(8, 9), related=(2, 3, 4, 10)),
    )
    mol = Molecule(coords=rng.standard_normal((12, 3)), atomic_numbers=np.full(12, 6),
                   features=rng.standard_normal((12, 5)), chiral_units=units).validate()
    token_only = replace(token_only_molecule(), features=rng.standard_normal((3, 5)))
    for mols in ([mol], [token_only, mol]):
        assert_same(prepare_batch(mols), batch_reference(mols), "batch")


@given(seed=st.integers(0, 2**32 - 1),
       shapes=st.lists(st.tuples(st.integers(1, 10), st.integers(0, 4)), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_prepare_batch_matches_reference_on_drawn_molecules(seed, shapes):
    rng = np.random.default_rng(seed)
    mols = [random_molecule(rng, n_atoms, n_units) for n_atoms, n_units in shapes]
    assert_same(prepare_batch(mols), batch_reference(mols), "batch")


@pytest.mark.parametrize("config", [ModelConfig(**TINY, seed=4), ModelConfig(seed=5)])
def test_batch_composition_invariance(mixed, config):
    mols, labels = mixed
    model = init_model(config)
    state = forward_batch(model, prepare_batch(mols))
    mask = state.batch.mask
    for b, mol in enumerate(mols):
        # a batch of one has no padding; molecule b is unpadded by its mask
        alone = forward_batch(model, prepare_batch([mol]))
        n_q = int(mask.queries[b].sum())
        keys = np.flatnonzero(mask.keys[b])
        assert np.max(np.abs(state.logits[b] - alone.logits[0])) <= 1e-12
        assert np.max(np.abs(state.pooled[b] - alone.pooled[0])) <= 1e-12
        for a_in, a_alone in zip(state.attn, alone.attn):
            a_in = a_in[b, :n_q][:, keys]
            assert a_in.shape == a_alone[0].shape
            assert np.max(np.abs(a_in - a_alone[0]), initial=0.0) <= 1e-12

    _, d_logits = loss_classify(state.logits, labels)
    grads = dict(named_parameters(backward_batch(model, state, d_logits)))
    summed = {}
    for b, mol in enumerate(mols):
        one = backward_batch(model, forward_batch(model, prepare_batch([mol])),
                             d_logits[b : b + 1])
        for name, g in named_parameters(one):
            summed[name] = summed.get(name, 0.0) + g
    assert grads.keys() == summed.keys()
    for name, g in grads.items():
        scale = max(float(np.max(np.abs(summed[name]))), 1e-300)
        assert np.max(np.abs(g - summed[name])) <= 1e-12 * scale, name


def test_gradients_come_in_the_parameters_layout(mixed):
    mols, labels = mixed
    model = init_model(ModelConfig(**TINY, seed=10))
    state = forward_batch(model, prepare_batch(mols))
    grads = backward_batch(model, state, loss_classify(state.logits, labels)[1])
    assert [(n, a.shape) for n, a in named_parameters(grads)] == [
        (n, a.shape) for n, a in named_parameters(model)
    ]


def test_token_only_batch_gets_zero_bias_gradients():
    # no unit and no (unit, key) pair, so the kernel runs on an empty
    # chirality batch and the distance bias on an empty pair set
    model = init_model(ModelConfig(**TINY, seed=11))
    state = forward_batch(model, prepare_batch([token_only_molecule()] * 2))
    assert state.batch.pairs.dists.size == 0
    grads = backward_batch(model, state, loss_classify(state.logits, [0, 1])[1])
    named = dict(named_parameters(grads))
    for name, g in named.items():
        if name.startswith(("bias.", "encoder.kernel.")):
            assert np.array_equal(g, np.zeros_like(g)), name
    # the token row still attends to the non-chiral keys
    assert np.any(named["layers.0.wk_n"] != 0.0)


def test_attention_masks_pad_keys(mixed):
    mols, _ = mixed
    state = forward_batch(init_model(ModelConfig(**TINY, seed=6)), prepare_batch(mols))
    keys = state.batch.mask.keys
    assert keys.any(axis=1).all()
    for attn in state.attn:
        pad = np.broadcast_to(~keys[:, None, :, None], attn.shape)
        assert np.all(attn[pad] == 0.0)
        assert np.max(np.abs(attn.sum(axis=2) - 1.0)) < 1e-12


def test_keyless_row_keeps_its_input():
    rng = np.random.default_rng(7)
    layer = init_layer(rng, 8, 2)
    # molecule 0: a token and one unit over 3 keys; molecule 1: token only, no keys
    mask = BatchMask.of_counts([1, 0], [2, 0], [1, 0])
    h_c = rng.standard_normal((2, 2, 8))
    bias = rng.standard_normal((2, 2, 3, 2))
    u, _, attn, cache = attend_fwd(layer, h_c, rng.standard_normal((2, 2, 8)),
                                   rng.standard_normal((2, 1, 8)), bias, mask)
    assert np.all(attn[1] == 0.0)
    assert np.all(cache.ctx.reshape(2, 2, 8)[1] == 0.0)
    # u = h_c_in, so the first layer norm sees the input row itself
    assert np.array_equal(u[1], h_c[1])
    expect, _ = layer_norm_rows(h_c[1], layer.ln1_gamma, layer.ln1_beta)
    u_ln = feed_forward_fwd(layer, u)[1].ff[0]  # the feed-forward's input
    assert np.array_equal(u_ln.reshape(2, 2, 8)[1], expect)


def test_chiral_molecule_without_keys_in_batch_raises(mixed):
    """The error names the molecule without keys, by its id or, when the
    id is empty, by its index."""
    mols, _ = mixed
    model = init_model(ModelConfig(**TINY, seed=8))
    for mol_id, named in (("keyless", "keyless"), ("", "at index 1")):
        keyless = replace(keyless_chiral_molecule(), id=mol_id)
        with pytest.raises(NumericError, match=f"^molecule {named}: layer 0: chiral queries "
                                               "present but the key set is empty$"):
            forward_batch(model, prepare_batch([mols[0], keyless, mols[-1]]))


def test_unit_index_past_its_molecule_rejected(mixed):
    # the index exists in the batch's atom numbering, but not in molecule 0
    mol = mixed[0][0]
    unit = mol.chiral_units[0]
    bad = replace(mol, chiral_units=(replace(unit, related=unit.related[:3] + (mol.n_atoms,)),))
    with pytest.raises(AnnotationError, match="out of range of its molecule"):
        prepare_batch([bad, mixed[0][1]])


def test_empty_batch_rejected():
    with pytest.raises(ValueError):
        prepare_batch([])


def test_prepared_batch_holds_nothing_of_the_parameters(mixed):
    mols, labels = mixed
    model = init_model(ModelConfig(**TINY, seed=9))
    batch = prepare_batch(mols)
    state = forward_batch(model, batch)
    _, d_logits = loss_classify(state.logits, labels)
    adam_step(model, backward_batch(model, state, d_logits), AdamState.for_model(model), 1e-2)
    reused = forward_batch(model, batch)
    fresh = forward_batch(model, prepare_batch(mols))
    assert not np.array_equal(reused.logits, state.logits)
    assert np.array_equal(reused.logits, fresh.logits)
    assert np.array_equal(reused.pooled, fresh.pooled)
    for a_reused, a_fresh in zip(reused.attn, fresh.attn):
        assert np.array_equal(a_reused, a_fresh)


PARAMETER_NAMES = [name for name, _ in named_parameters(init_model(ModelConfig(**TINY)))]


def test_stages_own_the_parameter_groups_in_order():
    """forward_stages lists the named_parameters groups in their order, one
    stage for each, with the encoder's token and query projector in one
    and each layer one stage named for it, owning layers.i: its
    attention's leaves and then its feed-forward's; every parameter's
    parameter_stage is its group's stage."""
    model = init_model(ModelConfig(**TINY))
    stages = forward_stages(model)
    assert [(stage.name, stage.groups) for stage in stages] == [
        ("encoder", ("encoder.kernel",)),
        ("encoder", ("encoder.token", "encoder.proj_c")),
        ("encoder", ("encoder.proj_r",)),
        ("encoder", ("encoder.proj_n",)),
        ("pair bias", ("bias",)),
        *((f"layer {i}", (f"layers.{i}",)) for i in range(2)),
        ("pooling and head", ("head",)),
    ]
    for i in range(2):
        assert [name for name in PARAMETER_NAMES if name.startswith(f"layers.{i}.")] == [
            f"layers.{i}.{leaf}" for leaf in ATTENTION_LEAVES + FEED_FORWARD_LEAVES]
    stage_of = {group: s for s, stage in enumerate(stages) for group in stage.groups}
    seen = []
    for name in PARAMETER_NAMES:
        group = next(g for g in stage_of if name == g or name.startswith(g + "."))
        assert parameter_stage(model, name) == stage_of[group], name
        if group not in seen:
            seen.append(group)
    assert seen == list(stage_of)
    with pytest.raises(ValueError, match="no forward stage reads 'encoder'"):
        parameter_stage(model, "encoder")


def leaf_shapes(group, params):
    """{parameter name: shape} of a group's array or parameter dataclass."""
    if isinstance(params, np.ndarray):
        return {group: params.shape}
    return {f"{group}.{f.name}": getattr(params, f.name).shape for f in fields(params)
            if isinstance(getattr(params, f.name), np.ndarray)}


def test_each_stage_backward_mirrors_its_forward(mixed):
    """Run stage by stage over the mixed batch, each stage's forward
    returns one array per name it writes, and its backward returns
    gradients for exactly its own groups, shaped as their parameters, and
    one per name it reads, shaped as that array. Every name a stage reads
    was written by an earlier stage; the arrays no later stage reads are
    each layer's attn, the last layer's bias, pooled and logits. Each
    parameter belongs to one stage, its parameter_stage."""
    model = init_model(ModelConfig(**TINY, seed=14))
    batch = prepare_batch(mixed[0])
    stages = forward_stages(model)
    shapes = {name: arr.shape for name, arr in named_parameters(model)}
    rng = np.random.default_rng(5)
    arrays = {}
    unread, never_read = {}, []  # unread: name -> the stage that wrote it, until read
    for t, stage in enumerate(stages):
        assert set(stage.reads) <= set(arrays), t
        for name in stage.reads:
            unread.pop(name, None)
        *written, cache = stage.forward(model, batch, *(arrays[n] for n in stage.reads))
        assert len(written) == len(stage.writes), t
        grads, *d_read = stage.backward(model, batch, cache,
                                        *(rng.standard_normal(a.shape) for a in written))
        assert tuple(grads) == stage.groups, t
        for group, g in grads.items():
            assert leaf_shapes(group, g) == {n: shape for n, shape in shapes.items()
                                             if n == group or n.startswith(group + ".")}, group
        assert [g.shape for g in d_read] == [arrays[n].shape for n in stage.reads], t
        never_read += [(unread[n], n) for n in stage.writes if n in unread]
        unread.update((n, t) for n in stage.writes)
        arrays.update(zip(stage.writes, written, strict=True))
    never_read += [(t, n) for n, t in unread.items()]
    attention = [parameter_stage(model, f"layers.{i}.wq") for i in range(len(model.layers))]
    head = len(stages) - 1
    assert sorted(never_read) == sorted([(a, "attn") for a in attention]
                                        + [(attention[-1], "bias"), (head, "pooled"),
                                           (head, "logits")])
    for name in shapes:
        owners = [t for t, stage in enumerate(stages)
                  if name in stage.groups or name.rpartition(".")[0] in stage.groups]
        assert owners == [parameter_stage(model, name)], name


@pytest.mark.parametrize("case", ["consumed"])
def test_backward_refuses_a_state_without_every_cache(mixed, case):
    """A state already backpropagated holds no cache; backward_batch says
    so instead of failing inside a stage."""
    model = init_model(ModelConfig(**TINY, seed=15))
    state = forward_batch(model, prepare_batch(mixed[0][:3]))
    backward_batch(model, state, np.ones_like(state.logits))
    with pytest.raises(ValueError, match="consumed by an earlier backward$"):
        backward_batch(model, state, np.ones_like(state.logits))


@pytest.fixture(scope="module")
def staged(mixed):
    """A tiny model, the mixed batch, the model's forward over it (the
    prefix whose arrays single stages run on) and, per parameter, the entry
    with the largest gradient of the summed logits: one that reaches them,
    where a feature weight of an absent one-hot class would not."""
    model = init_model(ModelConfig(**TINY, seed=10))
    batch = prepare_batch(mixed[0])
    prefix = forward_batch(model, batch)
    grads = backward_batch(model, forward_batch(model, batch), np.ones_like(prefix.logits))
    entries = {name: int(np.argmax(np.abs(g))) for name, g in named_parameters(grads)}
    return model, batch, prefix, entries


def arrays_before(state, stage):
    """The latest array of each name that the stages of `state` before
    `stage` wrote: what Stage.forward of `stage` reads from."""
    arrays = {}
    for out in state.outputs[:stage]:
        arrays.update(out)
    return arrays


def run_stage(model, batch, stage, arrays) -> dict:
    """A stage's forward on the arrays of the names it reads, as
    forward_batch runs it: {name: array it wrote}."""
    *written, _ = stage.forward(model, batch, *(arrays[n] for n in stage.reads))
    return dict(zip(stage.writes, written, strict=True))


@pytest.mark.parametrize("name", PARAMETER_NAMES)
def test_resumed_forward_matches_fresh_forward(staged, name):
    """Moving one entry of a parameter leaves the output of every stage
    before its parameter_stage as it was and changes that stage's output;
    the stages from there on, run on the unmoved prefix's arrays, give the
    output of that stage and the logits of a fresh forward, byte for
    byte."""
    model, batch, prefix, entries = staged
    live = dict(named_parameters(model))[name]
    stage = parameter_stage(model, name)
    entry = entries[name]
    arrays = arrays_before(prefix, stage)
    resumed = []
    saved = live.flat[entry]
    live.flat[entry] += 0.25
    try:
        fresh = forward_batch(model, batch)
        for later in forward_stages(model)[stage:]:
            resumed.append(run_stage(model, batch, later, arrays))
            arrays.update(resumed[-1])
    finally:
        live.flat[entry] = saved
    assert np.array_equal(resumed[-1]["logits"], fresh.logits)
    assert np.array_equal(resumed[-1]["pooled"], fresh.pooled)
    assert all(a.tobytes() == b.tobytes()
               for a, b in zip(resumed[0].values(), fresh.outputs[stage].values(), strict=True))
    before, after = prefix.outputs, fresh.outputs
    for k in range(stage):
        assert all(np.array_equal(a, b)
                   for a, b in zip(before[k].values(), after[k].values(), strict=True)), k
    assert not all(np.array_equal(a, b)
                   for a, b in zip(before[stage].values(), after[stage].values(), strict=True))


@pytest.mark.parametrize("name", PARAMETER_NAMES)
def test_a_parameter_reaches_one_stage_alone(staged, name):
    """With one entry of a parameter moved, each stage run alone on the
    unmoved prefix's arrays writes the prefix's bytes, except the
    parameter's own stage."""
    model, batch, prefix, entries = staged
    live = dict(named_parameters(model))[name]
    own = parameter_stage(model, name)
    saved = live.flat[entries[name]]
    live.flat[entries[name]] += 0.25
    try:
        alone = [run_stage(model, batch, stage, arrays_before(prefix, s))
                 for s, stage in enumerate(forward_stages(model))]
    finally:
        live.flat[entries[name]] = saved
    for s, out in enumerate(alone):
        same = all(np.array_equal(a, b) for a, b
                   in zip(out.values(), prefix.outputs[s].values(), strict=True))
        assert same == (s != own), s


@pytest.mark.parametrize(("name", "stage"), [("layers.1.ff_b2", "layer 1"),
                                             ("head.b2", "pooling and head")])
def test_nonfinite_logits_name_first_nonfinite_stage(mixed, name, stage):
    model = init_model(ModelConfig(**TINY, seed=11))
    dict(named_parameters(model))[name].flat[0] = np.nan
    with pytest.raises(NumericError, match=f"first non-finite stage output: {stage}$"):
        forward_batch(model, prepare_batch(mixed[0]))


@pytest.mark.parametrize("keep_ids", [True, False])
def test_nonfinite_logits_name_first_nonfinite_molecule(mixed, keep_ids):
    """Head weights under which only the molecules on one side of a plane
    through their pooled rows overflow, molecule 0 not among them: the
    error names the first that does, by its id or, when the id is empty,
    by its index in the batch."""
    mols = mixed[0][:6] if keep_ids else [replace(m, id="") for m in mixed[0][:6]]
    model = init_model(ModelConfig(**TINY, seed=12))
    pooled = forward_batch(model, prepare_batch(mols)).pooled
    # the plane halfway between molecules 0 and 2, normal to v
    v = pooled[2] - pooled[0]
    c = (pooled[0] + pooled[2]) @ v / 2
    first = int(np.flatnonzero(pooled @ v > c)[0])
    assert 0 < first <= 2
    # hidden unit 0 becomes 1e200 (pooled . v - c); GELU keeps it where it
    # is positive, where the 1e300 readout overflows, and zeroes it elsewhere
    model.head.w1[0] = 1e200 * v
    model.head.b1[0] = -1e200 * c
    model.head.w2[:, 0] = 1e300
    who = mols[first].id if keep_ids else f"at index {first}"
    with pytest.raises(NumericError, match=f"^molecule {who}: non-finite logits, "
                                           "first non-finite stage output: pooling and head$"):
        forward_batch(model, prepare_batch(mols))


def layer_norm_overflows(model, mol) -> bool:
    """Whether a forward over the molecule alone overflows a layer norm."""
    try:
        forward_batch(model, prepare_batch([mol]))
    except NumericError as exc:
        return "layer norm" in str(exc)
    return False


@pytest.mark.parametrize("seed", range(6))
def test_overflowing_layer_norm_variance_raises(seed):
    """A finite non-chiral projector weight of 1e200 overflows the row
    variance of the first layer's norm; the forward raises there instead
    of returning finite logits of rows set to beta, and names the first
    molecule whose forward alone overflows, at some seeds not the first
    of the batch."""
    model = init_model(TINY_CONFIG)
    model.encoder.proj_n.w2[0] = 1e200
    mols = [m for m, _ in gen_rs(SyntheticSpec(count=4, seed=seed))]
    with np.errstate(over="ignore"):
        first = next(m.id for m in mols if layer_norm_overflows(model, m))
        with pytest.raises(NumericError, match=f"^molecule {first}: layer 0: layer norm: "
                                               "a row's variance overflows float64$"):
            forward_batch(model, prepare_batch(mols))


def test_overflowing_layer_norm_names_an_idless_molecule_by_its_index():
    """evaluate names an id-less molecule whose layer norm overflows by its
    index in the dataset: here index EVAL_CHUNK + 1, the last of ten, after
    nine that do not overflow, whichever size-sorted chunk it runs in."""
    model = init_model(TINY_CONFIG)
    model.encoder.proj_n.w2[0] = 1e200
    data = [(replace(m, id=""), c) for m, c in gen_rs(SyntheticSpec(count=8, seed=0))]
    with np.errstate(over="ignore"):
        quiet = next(item for item in data if not layer_norm_overflows(model, item[0]))
        loud = next(item for item in data if layer_norm_overflows(model, item[0]))
        with pytest.raises(NumericError, match=f"^molecule at index {EVAL_CHUNK + 1}: layer 0: "
                                               "layer norm: a row's variance overflows"):
            evaluate(model, [quiet] * (EVAL_CHUNK + 1) + [loud])


@pytest.fixture(scope="module")
def tiled():
    """Twenty molecules of 1-6 tiled centres and axes, sizes interleaved,
    so evaluate runs three chunks whose size order is not input order."""
    units = [6, 1, 3, 1, 5, 2, 4, 1, 6, 2, 1, 3, 5, 1, 4, 2, 1, 6, 3, 2]
    centres = [m for m, _ in gen_rs(SyntheticSpec(count=40, seed=71, spectator_range=(0, 3)))]
    axes = [m for m, _ in gen_axial(30, seed=72)]
    frags = [f for pair in zip(centres, axes) for f in pair]
    ends = np.cumsum(units)
    mols = [tile_molecules(frags[end - n : end]) for n, end in zip(units, ends)]
    assert len(mols) > 2 * EVAL_CHUNK
    return mols


def test_predict_restores_input_order(tiled):
    """The chunk path's logits argmaxes, evaluate and mirror_consistency
    give what one forward per molecule gives, in input order, over a set
    whose chunks run in size order; the mirror pass runs a subset under
    its dataset indices."""
    model = init_model(ModelConfig(**TINY, seed=0))
    alone = np.array([forward(model, m).argmax() for m in tiled])
    assert set(alone) == {0, 1}
    predicted = _head_rows(model, tiled, "logits", range(len(tiled))).argmax(axis=1)
    assert np.array_equal(predicted, alone)
    labels = np.arange(len(tiled)) % 2
    right = alone == labels
    assert 0 < right.sum() < len(tiled)
    assert evaluate(model, list(zip(tiled, labels))) == right.mean()
    kept = np.flatnonzero(right)
    mirrored = np.array([forward(model, mirror(tiled[i])).argmax() for i in kept])
    predicted = _head_rows(model, [mirror(tiled[i]) for i in kept], "logits", kept)
    assert np.array_equal(predicted.argmax(axis=1), mirrored)
    flip = (mirrored == 1 - alone[kept]).sum() / right.sum()
    assert mirror_consistency(model, list(zip(tiled, labels))) == (right.mean(), flip)


@pytest.mark.parametrize("keep_ids", [True, False])
@pytest.mark.parametrize("score", [evaluate, mirror_consistency])
def test_first_failing_chunk_in_size_order_names_the_error(tiled, score, keep_ids):
    """Three molecules overflow: a six-unit one at index 0, which runs in a
    later chunk, and two one-unit ones at 3 and 13, which run in the first.
    The error names the first failing molecule, in input order, of the
    first failing chunk in size order: index 3, by id or by index."""
    assert [len(tiled[i].chiral_units) for i in (0, 3, 13)] == [6, 1, 1]
    assert sum(len(m.chiral_units) == 1 for m in tiled) <= EVAL_CHUNK
    mols = [replace(m, id=f"t{i:02d}" if keep_ids else "") for i, m in enumerate(tiled)]
    for i in (0, 3, 13):
        mols[i] = replace(mols[i], coords=mols[i].coords * 1e150).validate()
    who = "t03" if keep_ids else "at index 3"
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match=f"^molecule {who}: layer 0: non-finite attention logits, "
                                "first non-finite stage output: encoder$"):
        score(init_model(ModelConfig(**TINY, seed=0)), [(m, 0) for m in mols])


def test_forward_only_callers_match_forward_batch(mixed):
    """forward, embed and attention_export_rows, which keep no stage cache,
    give the bytes of forward_batch's logits, pooled and last-layer
    attention on the same batch of one."""
    model = init_model(ModelConfig(**TINY, seed=4))
    for mol in mixed[0]:
        state = forward_batch(model, prepare_batch([mol]))
        assert forward(model, mol).tobytes() == state.logits[0].tobytes()
        assert embed(model, mol).tobytes() == state.pooled[0].tobytes()
        [(keys, rows)] = attention_export_rows(model, [mol])
        assert keys == state.batch.key_atoms[0].tolist()
        assert rows.tobytes() == head_averaged_rows(state.attn[-1][0]).tobytes()


def test_forward_only_callers_build_no_batch_state(mixed, monkeypatch):
    """With BatchState made to raise, forward_batch fails, but every
    forward-only caller still runs."""

    def refuse(**fields):
        raise AssertionError("a forward-only caller built a BatchState")

    monkeypatch.setattr(chiraldet.model, "BatchState", refuse)
    model = init_model(ModelConfig(**TINY, seed=4))
    mols, labels = mixed
    with pytest.raises(AssertionError):
        forward_batch(model, prepare_batch(mols))
    evaluate(model, list(zip(mols, labels)))
    mirror_consistency(model, list(zip(mols, labels)))
    for mol in mols:
        forward(model, mol)
        embed(model, mol)
    embed_rows(model, mols)
    attention_export_rows(model, mols)


def test_nonfinite_attention_logits_name_their_layer(mixed):
    """An infinite query weight makes its layer's attention logits
    non-finite for every molecule; the forward's error names the first
    molecule and that layer's stage, and the NumericError of attend_fwd is
    its cause. No earlier stage output is non-finite, so none is named."""
    for i in range(2):
        model = init_model(ModelConfig(**TINY, seed=14))
        model.layers[i].wq.flat[0] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(
                NumericError, match=f"^molecule {mixed[0][0].id}: layer {i}: "
                                    "non-finite attention logits$") as caught:
            forward_batch(model, prepare_batch(mixed[0]))
        assert isinstance(caught.value.__cause__, NumericError)


def test_overflowing_kernel_names_its_molecule_and_the_encoder():
    """Coordinates scaled by 1e150 are finite, but det(M) and MMᵀ overflow
    in kernel_fwd, so the second molecule's h_k holds NaN. The first check
    to fire is layer 0's on the attention logits; the error names that
    molecule and the encoder, its first non-finite stage output."""
    mols = [m for m, _ in gen_rs(SyntheticSpec(count=3, seed=0))]
    mols[1] = replace(mols[1], coords=mols[1].coords * 1e150).validate()
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match=f"^molecule {mols[1].id}: layer 0: non-finite attention "
                                "logits, first non-finite stage output: encoder$"):
        forward_batch(init_model(TINY_CONFIG), prepare_batch(mols))


def test_nonfinite_chirality_matrix_names_its_molecule():
    """Atoms at +-1.5e308 are finite, so validate passes them, but their
    unit's chirality matrix is not. kernel_fwd gives the unit's row, 2
    after a two-unit molecule, and the kernel stage maps it to molecule 1."""
    mols = [m for m, _ in gen_rs(SyntheticSpec(count=4, seed=0))]
    unit = mols[2].chiral_units[0]
    coords = mols[2].coords.copy()
    coords[unit.center_atoms[0]], coords[unit.related[0]] = 1.5e308, -1.5e308
    batch = [tile_molecules(mols[:2]), replace(mols[2], coords=coords).validate(), mols[3]]
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
            NumericError, match=f"^molecule {mols[2].id}: encoder: chirality matrices "
                                "contain non-finite values$") as caught:
        forward_batch(init_model(TINY_CONFIG), prepare_batch(batch))
    assert (caught.value.__cause__.row, caught.value.__cause__.__cause__.row) == (1, 2)


def test_nonfinite_stage_is_the_named_molecules(mixed):
    """Molecule 1 overflows in the last layer's feed-forward; once the head
    overflows for molecule 0 too, the error names molecule 0 and its own
    first non-finite stage, not molecule 1's earlier one."""
    mols = mixed[0][:2]  # one unit each, so no pad query rows
    model = init_model(ModelConfig(**TINY, seed=13))
    batch = prepare_batch(mols)
    # the rows entering the last feed-forward (its stage's cache), per molecule
    last = parameter_stage(model, f"layers.{len(model.layers) - 1}.ff_w1")
    rows = forward_batch(model, batch).caches[last].feed_forward.ff[0].reshape(2, -1, TINY["h"])
    r1 = rows[1, 0]
    c = (np.max(rows[0] @ r1) + r1 @ r1) / 2
    assert np.max(rows[0] @ r1) < c < r1 @ r1
    last = model.layers[-1]
    last.ff_w1[0] = 1e200 * r1
    last.ff_b1[0] = -1e200 * c
    last.ff_w2[:, 0] = 1e300
    with pytest.raises(NumericError, match=f"^molecule {mols[1].id}: .* output: layer 1$"):
        forward_batch(model, batch)
    p0 = forward_batch(model, prepare_batch(mols[:1])).pooled[0]
    model.head.w1[0] = 1e200 * p0
    model.head.b1[0] = -0.5e200 * (p0 @ p0)
    model.head.w2[:, 0] = 1e300
    with pytest.raises(NumericError,
                       match=f"^molecule {mols[0].id}: .* output: pooling and head$"):
        forward_batch(model, batch)
