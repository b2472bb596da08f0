import math
from dataclasses import replace

import numpy as np
import pytest

import chiraldet.model
from checkpoint_edits import (
    append_tensor,
    insert_header,
    read_tensors,
    rename_tensor,
    resign,
    set_first_beta,
    set_first_value,
    set_header,
)
from chiraldet.data import SyntheticSpec, gen_rs
from chiraldet.encoder import RankStrategy, prepare_batch
from chiraldet.errors import (
    CheckpointChecksumError,
    CheckpointShapeError,
    CheckpointTruncatedError,
    CheckpointVersionError,
    DegeneracyError,
    NumericError,
)
from chiraldet.geometry import Configuration, mirror, random_rotation, transform
from chiraldet.gradcheck import TINY_CONFIG, flatten
from chiraldet.numerics import compare_grads
from chiraldet.model import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    ModelConfig,
    TrainConfig,
    attention_export_rows,
    batch_step,
    classify_loss,
    cosine_lr,
    embed,
    embed_rows,
    evaluate,
    forward,
    init_model,
    load_checkpoint,
    mirror_consistency,
    named_parameters,
    rank_loss,
    adam_step,
    save_checkpoint,
    train,
)
from oracles import batch_loss, finite_diff_grad, loss_classify, unflatten

TINY = dict(h=8, d_p=4, n_layers=2, n_heads=2, n_gkpt=8)


def tiny_model(seed=0, **overrides):
    return init_model(ModelConfig(**{**TINY, **overrides, "seed": seed}))


def narrow(mol):
    """mol with only its first 10 features per atom."""
    return replace(mol, features=mol.features[:, :10])


@pytest.fixture(scope="module")
def small_dataset():
    return gen_rs(SyntheticSpec(count=24, seed=4, spectator_range=(0, 2)))


class TestForward:
    def test_zeroed_predictor_gives_zero_logits(self, small_dataset):
        model = tiny_model()
        model.head.w1[:] = 0.0
        model.head.b1[:] = 0.0
        model.head.w2[:] = 0.0
        model.head.b2[:] = 0.0
        # GELU(0) = 0, so both layers vanish
        assert np.array_equal(forward(model, small_dataset[0][0]), np.zeros(2))

    def test_rigid_motion_invariance(self, small_dataset):
        model = tiny_model(seed=1)
        rng = np.random.default_rng(5)
        for mol, _ in small_dataset[:6]:
            base = forward(model, mol)
            moved = transform(mol, random_rotation(rng), rng.uniform(-10, 10, 3))
            assert np.max(np.abs(forward(model, moved) - base)) < 1e-9

    def test_deterministic(self, small_dataset):
        model = tiny_model(seed=2)
        mol = small_dataset[0][0]
        assert np.array_equal(forward(model, mol), forward(model, mol))

    def test_embed_differs_for_mirror_pair(self, small_dataset):
        model = tiny_model(seed=0)
        mol = small_dataset[0][0]
        d = np.linalg.norm(embed(model, mol) - embed(model, mirror(mol)))
        assert d > 1e-6

    def test_attention_export_rows(self, small_dataset):
        model = tiny_model(seed=3)
        mol = small_dataset[0][0]
        [(keys, rows)] = attention_export_rows(model, [mol])
        assert rows.shape == (len(mol.chiral_units), len(keys))
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-10)


class TestLosses:
    def test_uniform_logits_ln2(self):
        loss, _ = loss_classify(np.zeros(2), 0)
        assert abs(loss - math.log(2.0)) < 1e-12

    def test_large_margin_tiny_loss(self):
        loss, _ = loss_classify(np.array([20.0, 0.0]), 0)
        assert loss < 1e-8

    def test_log_sum_exp_oracle_seed53(self):
        rng = np.random.default_rng(53)
        logits = rng.standard_normal(4)
        label = 2
        loss, grad = loss_classify(logits.copy(), label)
        expect = math.log(np.exp(logits).sum()) - logits[label]
        assert abs(loss - expect) < 1e-12
        probs = np.exp(logits) / np.exp(logits).sum()
        probs[label] -= 1.0
        assert np.allclose(grad, probs, atol=1e-12)

    def test_bad_label(self):
        with pytest.raises(ValueError):
            loss_classify(np.zeros(2), 5)

    # one (hi, lo) pair: the objective's loss is max(0, margin - (hi - lo))
    def test_margin_rank_satisfied(self):
        loss, _, _ = rank_loss(0.5)(np.array([[1.6], [0.1]]))
        assert loss == 0.0

    def test_margin_rank_equal_scores(self):
        loss, _, _ = rank_loss(0.5)(np.array([[0.7], [0.7]]))
        assert loss == 0.5

    def test_margin_rank_direct_formula(self):
        loss, d_logits, _ = rank_loss(0.3)(np.array([[0.2], [0.9]]))
        assert loss == 1.0
        assert d_logits.tolist() == [[-1.0], [1.0]]

    @pytest.mark.parametrize("margin", [float("nan"), float("inf"), float("-inf"), -0.5])
    def test_rank_loss_rejects_bad_margin(self, margin):
        with pytest.raises(ValueError,
                           match=f"^margin must be finite and non-negative, got {margin}$"):
            rank_loss(margin)

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 1]])
    def test_classify_loss_rejects_bad_label_when_built(self, labels):
        with pytest.raises(ValueError, match="out of range"):
            classify_loss(labels, 2)

    def test_classify_loss_is_mean_loss_classify(self):
        rng = np.random.default_rng(54)
        logits = rng.standard_normal((3, 2))
        labels = [1, 0, 1]
        objective = classify_loss(labels, 2)
        total, d_total = loss_classify(logits, labels)
        for _ in range(2):  # the one-hot made with the objective serves every call
            loss, d_logits, n_correct = objective(logits)
            assert loss == total / 3
            assert np.array_equal(d_logits, d_total / 3)
            assert n_correct == int((logits.argmax(axis=1) == labels).sum())
        with pytest.raises(ValueError, match="logits of shape"):
            objective(logits[:, :1])

    @pytest.mark.parametrize("kind", ["classify", "rank"])
    def test_stacked_logits_score_each_copy_as_alone(self, kind):
        """One call on (k, B, C) logits gives each copy's loss, d_logits and
        count with the bytes of a call on that copy alone; 19 molecules or
        13 pairs, so numpy's pairwise sum works in blocks."""
        rng = np.random.default_rng(55)
        if kind == "classify":
            objective = classify_loss(rng.integers(0, 3, 19), 3)
            stacked = rng.standard_normal((5, 19, 3))
        else:
            objective, stacked = rank_loss(0.4), rng.standard_normal((5, 26, 1)) * 0.5
        losses, d_logits, n_correct = objective(stacked)
        alone = [objective(logits) for logits in stacked]
        assert np.array(losses).tobytes() == np.array([a[0] for a in alone]).tobytes()
        assert d_logits.tobytes() == np.stack([a[1] for a in alone]).tobytes()
        assert n_correct == [a[2] for a in alone]
        assert all(type(a[0]) is float and type(a[2]) is int for a in alone)


class TestConfig:
    @pytest.mark.parametrize("d_p", [1, 3])
    def test_d_p_below_4_rejected(self, d_p):
        # centring along d_p leaves a d_p = 3 slice at rank <= 2
        with pytest.raises(ValueError, match="d_p must be >= 4"):
            ModelConfig(**{**TINY, "d_p": d_p}).validate()

    def test_d_p_4_accepted(self):
        ModelConfig(**TINY).validate()

    @pytest.mark.parametrize("field", ["h", "n_heads", "n_gkpt", "n_classes"])
    @pytest.mark.parametrize("value", [0, -2])
    def test_size_below_1_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be >= 1, got {value}$"):
            ModelConfig(**{**TINY, field: value}).validate()

    @pytest.mark.parametrize("field", ["h", "d_p", "n_layers", "n_heads", "n_gkpt", "d_f",
                                       "n_classes", "seed"])
    def test_count_not_an_integer_rejected(self, field):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got 2\.5$"):
            init_model(ModelConfig(**{**TINY, field: 2.5}))
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got 4\.0$"):
            ModelConfig(**{**TINY, field: 4.0}).validate()

    @pytest.mark.parametrize("field", ["epochs", "batch_size"])
    def test_train_count_not_an_integer_rejected(self, small_dataset, field):
        with pytest.raises(ValueError, match=rf"^{field} must be an integer, got 2\.5$"):
            train(tiny_model(seed=2), small_dataset[:4], TrainConfig(**{field: 2.5}))

    @pytest.mark.parametrize(
        ("field", "value"),
        [("batch_size", 0), ("batch_size", -3), ("min_lr_factor", -0.5),
         ("min_lr_factor", 1.5), ("min_lr_factor", float("nan"))],
    )
    def test_bad_train_config_rejected_by_train(self, small_dataset, field, value):
        model = tiny_model(seed=2)
        with pytest.raises(ValueError, match=field):
            train(model, small_dataset[:4], TrainConfig(epochs=1, **{field: value}))

    @pytest.mark.parametrize("field", ["lr", "reg_weight", "min_lr_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
            TrainConfig(**{field: value}).validate()

    @pytest.mark.parametrize("factor", [0.0, 1.0])
    def test_min_lr_factor_bounds_accepted(self, factor):
        TrainConfig(min_lr_factor=factor).validate()


class TestSchedule:
    def test_floor_hit_exactly_at_final_step(self):
        lr = 3e-4
        total = 17
        assert abs(cosine_lr(total - 1, total, lr, 0.1) - 0.1 * lr) < 1e-12 * lr
        assert abs(cosine_lr(0, total, lr, 0.1) - lr) < 1e-12 * lr

    def test_monotone_decay(self):
        vals = [cosine_lr(t, 40, 1e-3, 0.1) for t in range(40)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestTraining:
    def test_final_step_lr_floor(self, small_dataset):
        model = tiny_model(seed=6)
        cfg = TrainConfig(lr=4e-4, epochs=1, batch_size=8)
        records = train(model, small_dataset, cfg)
        assert abs(records[-1].lr - 0.1 * cfg.lr) < 1e-12

    def test_determinism(self, small_dataset):
        r1 = train(tiny_model(seed=7), small_dataset, TrainConfig(lr=1e-3, epochs=2, batch_size=8))
        r2 = train(tiny_model(seed=7), small_dataset, TrainConfig(lr=1e-3, epochs=2, batch_size=8))
        assert [rec.train_loss for rec in r1] == [rec.train_loss for rec in r2]

    def test_reg_loss_decreases_on_frozen_batch(self, small_dataset):
        model = tiny_model(seed=8, rank_strategy=RankStrategy.REGULARIZE)
        model.encoder.kernels.w *= 2.0  # non-orthonormal start
        cfg = TrainConfig(lr=1e-3, epochs=50, batch_size=32, reg_weight=1.0)
        records = train(model, small_dataset[:8], cfg)  # one batch per epoch
        regs = [rec.l_reg for rec in records]
        assert all(a > b for a, b in zip(regs, regs[1:]))

    def test_retraction_keeps_orthonormality_every_step(self, small_dataset):
        model = tiny_model(seed=9, rank_strategy=RankStrategy.QR_RETRACTION)
        cfg = TrainConfig(lr=1e-3, epochs=3, batch_size=8)
        records = train(model, small_dataset[:16], cfg)
        # l_reg is recorded after each epoch's final retraction
        assert all(rec.l_reg < 1e-16 for rec in records)
        w = model.encoder.kernels.w
        for kk in range(w.shape[0]):
            assert np.linalg.norm(w[kk].T @ w[kk] - np.eye(3)) < 1e-8

    def test_learns_rs_quickly(self, small_dataset):
        model = tiny_model(seed=10)
        cfg = TrainConfig(lr=2e-3, epochs=6, batch_size=8)
        train(model, small_dataset, cfg)
        assert evaluate(model, small_dataset) >= 0.95

    def test_mirror_consistency_after_training(self, small_dataset):
        model = tiny_model(seed=11)
        train(model, small_dataset, TrainConfig(lr=2e-3, epochs=6, batch_size=8))
        acc, flip = mirror_consistency(model, small_dataset)
        assert acc >= 0.9
        assert flip >= 0.99

    @pytest.mark.filterwarnings("ignore:invalid value encountered")
    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_resumed_call_repeats_the_schedule(self, small_dataset):
        # the cosine spans each call's own steps; Adam keeps counting
        model = init_model(TINY_CONFIG)
        adam = AdamState.for_model(model)
        cfg = TrainConfig(lr=1e-3, epochs=4, batch_size=8)
        first = train(model, small_dataset[:16], cfg, adam=adam)
        assert adam.step == 8
        second = train(model, small_dataset[:16], cfg, adam=adam)
        assert adam.step == 16
        assert [r.lr for r in second] == [r.lr for r in first]
        assert first[0].lr > first[-1].lr == pytest.approx(0.1 * cfg.lr, rel=1e-12)

    def test_adam_step_matches_textbook_update(self):
        # the update follows the textbook expression order, bit for bit
        model = tiny_model(seed=23)
        rng = np.random.default_rng(23)
        grads = init_model(model.config)
        for _, g in named_parameters(grads):
            g[...] = rng.standard_normal(g.shape)
        adam = AdamState.for_model(model)
        for _ in range(3):
            params = {n: a.copy() for n, a in named_parameters(model)}
            m = {n: a.copy() for n, a in adam.m.items()}
            v = {n: a.copy() for n, a in adam.v.items()}
            adam_step(model, grads, adam, 1e-3)
            t = adam.step
            for (name, param), (_, g) in zip(named_parameters(model), named_parameters(grads)):
                m_new = ADAM_BETA1 * m[name] + (1.0 - ADAM_BETA1) * g
                v_new = ADAM_BETA2 * v[name] + (1.0 - ADAM_BETA2) * g * g
                m_hat = m_new / (1.0 - ADAM_BETA1**t)
                v_hat = v_new / (1.0 - ADAM_BETA2**t)
                expect = params[name] - 1e-3 * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                assert np.array_equal(adam.m[name], m_new)
                assert np.array_equal(adam.v[name], v_new)
                assert np.array_equal(param, expect)

    def test_divergence_aborts_with_step(self, small_dataset):
        model = tiny_model(seed=12)
        model.head.w2[:] = 1e308
        with pytest.raises(NumericError, match="step 0"):
            train(model, small_dataset[:8], TrainConfig(lr=1e-3, epochs=1, batch_size=8))

    def test_sigma_below_the_floor_names_its_step_and_stage(self, small_dataset):
        """A bias.sigma entry below SIGMA_FLOOR fails the first step's pair
        bias. The error keeps its class, DegeneracyError, which the CLI
        maps to exit 2, and names the step and the stage."""
        model = tiny_model(seed=12)
        model.distance_bias.sigma[0] = 1e-7
        with pytest.raises(DegeneracyError, match=r"^training step 0 failed: pair bias: "
                                                  r"bias\.sigma\[0\] = 1\.000e-07 is at or "
                                                  r"below SIGMA_FLOOR = 1e-06$") as err:
            train(model, small_dataset[:8], TrainConfig(lr=1e-3, epochs=1, batch_size=8))
        assert isinstance(err.value.__cause__.__cause__, DegeneracyError)

    def test_rank_deficient_slice_names_its_step_and_stage(self, small_dataset):
        """Under rank_strategy=none nothing retracts the kernels, so a zero
        slice 2 reads out 0 and its backward raises. The error keeps its
        class, DegeneracyError, and names the step and the encoder stage
        whose backward raised."""
        model = tiny_model(seed=12, rank_strategy=RankStrategy.NONE)
        model.encoder.kernels.w[2] = 0.0
        with pytest.raises(DegeneracyError, match=r"^training step 0 failed: encoder: kernel "
                                                  r"slice 2 is rank-deficient \(det G <= 0\), "
                                                  r"its readout has no gradient$"):
            train(model, small_dataset[:8], TrainConfig(lr=1e-3, epochs=1, batch_size=8))

    def test_divergence_names_first_nonfinite_gradient(self, small_dataset):
        """Kernel slices at 1e40 under a 1e300 rank penalty: the forward and
        the classification gradients stay finite (the readout is scale
        free), the penalty and its kernel gradient overflow."""
        model = tiny_model(seed=12, rank_strategy=RankStrategy.REGULARIZE)
        model.encoder.kernels.w *= 1e40
        with pytest.raises(NumericError, match="^training diverged at step 0: "
                                               "first non-finite gradient: encoder.kernel.w$"):
            train(model, small_dataset[:8],
                  TrainConfig(lr=1e-3, epochs=1, batch_size=8, reg_weight=1e300))

    def test_mirror_consistency_of_empty_set_raises(self):
        with pytest.raises(ValueError, match="^empty evaluation set$"):
            mirror_consistency(tiny_model(seed=11), [])

    def test_mirror_flip_rate_is_nan_without_a_correct_prediction(self, small_dataset):
        # a head that always answers S, over the R molecules alone
        model = tiny_model(seed=11)
        model.head.b2[1] = 1e3
        r_only = [(m, c) for m, c in small_dataset if c is Configuration.R]
        assert r_only
        acc, flip = mirror_consistency(model, r_only)
        assert acc == 0.0
        assert math.isnan(flip)

    @pytest.mark.parametrize("score", [evaluate, mirror_consistency])
    def test_idless_molecule_named_by_its_dataset_index(self, score):
        """Nine molecules without ids, more than one chunk of EVAL_CHUNK = 8;
        head weights overflow for the ninth alone, and the error names it at
        index 8 of the dataset, not by its place in its size-sorted chunk."""
        data = [(replace(mol, id=""), label) for mol, label in
                gen_rs(SyntheticSpec(count=9, seed=39, spectator_range=(0, 2)))]
        model = tiny_model(seed=14)
        pooled = np.array([embed(model, m) for m, _ in data])
        # a plane normal to v between the ninth pooled row and the others
        v = pooled[8] - pooled[:8].mean(axis=0)
        top = np.max(pooled[:8] @ v)
        assert top < pooled[8] @ v
        c = (top + pooled[8] @ v) / 2
        # hidden unit 0 becomes 1e200 (pooled . v - c): GELU keeps it for the
        # ninth molecule alone, whose 1e300 readout overflows
        model.head.w1[0] = 1e200 * v
        model.head.b1[0] = -1e200 * c
        model.head.w2[:, 0] = 1e300
        with pytest.raises(NumericError, match="^molecule at index 8: non-finite logits"):
            score(model, data)

    @pytest.mark.parametrize("label", [Configuration.DEGENERATE, 2, 7, -1, 0.5, "S"],
                             ids=["degenerate", "2", "7", "-1", "0.5", "str-S"])
    @pytest.mark.parametrize("score", [
        evaluate, mirror_consistency,
        lambda model, data: train(model, data, TrainConfig(epochs=1)),
    ], ids=["evaluate", "mirror_consistency", "train"])
    def test_label_of_no_class_names_its_item(self, small_dataset, score, label):
        """A label that is neither R nor S, nor a class index of the head,
        is refused with its item's index, not scored wrong or looked up
        into a KeyError."""
        data = [small_dataset[0], (small_dataset[1][0], label)]
        with pytest.raises(ValueError, match="^item 1: label .* names no class of the "
                                             r"2-class head \(R=0, S=1\)$"):
            score(tiny_model(), data)

    def test_one_class_head_has_no_class_for_s(self, small_dataset):
        s_item = next(item for item in small_dataset if item[1] is Configuration.S)
        with pytest.raises(ValueError, match="^item 0: label 'S' names no class of the "
                                             "1-class head"):
            evaluate(tiny_model(n_classes=1), [s_item])

    def test_d_f_mismatch_rejected(self, small_dataset):
        with pytest.raises(ValueError, match="^d_f=10 does not match .* feature width 52$"):
            train(tiny_model(seed=2, d_f=10), small_dataset[:4], TrainConfig(epochs=1))
        # the second member of a ranking pair is checked too
        mol = small_dataset[0][0]
        with pytest.raises(ValueError, match="^d_f=52 does not match .* feature width 10, 52$"):
            train(tiny_model(seed=2, n_classes=1), [(mol, narrow(mol))], TrainConfig(epochs=1),
                  margin=0.5)

    def test_narrow_validation_set_rejected_before_the_first_step(self, small_dataset):
        """A validation set of another feature width is refused with the
        d_f message before training changes any parameter, not by numpy
        inside evaluate after the first epoch's steps."""
        model = tiny_model(seed=2)
        before = [a.tobytes() for _, a in named_parameters(model)]
        val = [(narrow(mol), label) for mol, label in small_dataset[4:6]]
        with pytest.raises(ValueError, match="^d_f=52 does not match .* feature width 10, 52$"):
            train(model, small_dataset[:4], TrainConfig(epochs=1), val_dataset=val)
        assert [a.tobytes() for _, a in named_parameters(model)] == before

    @pytest.mark.parametrize(("val", "message"), [
        (lambda data: [], "^empty validation set$"),
        (lambda data: [data[4], (data[5][0], "X")],
         r"^item 1: label 'X' names no class of the 2-class head \(R=0, S=1\)$"),
    ], ids=["empty", "label-X"])
    def test_unscorable_validation_set_rejected_before_the_first_step(self, small_dataset, val,
                                                                      message):
        """An empty validation set, or one with a label that names no class,
        is refused before training changes any parameter, not by evaluate
        after the first epoch's steps."""
        model = tiny_model(seed=2)
        before = [a.tobytes() for _, a in named_parameters(model)]
        with pytest.raises(ValueError, match=message):
            train(model, small_dataset[:4], TrainConfig(epochs=1), val_dataset=val(small_dataset))
        assert [a.tobytes() for _, a in named_parameters(model)] == before

    @pytest.mark.parametrize("score", [
        evaluate, lambda model, data: embed_rows(model, [mol for mol, _ in data]),
    ], ids=["evaluate", "embed_rows"])
    def test_forward_only_callers_reject_another_feature_width(self, small_dataset, score):
        data = [small_dataset[0], (narrow(small_dataset[1][0]), small_dataset[1][1])]
        with pytest.raises(ValueError, match="^d_f=52 does not match .* feature width 10, 52$"):
            score(tiny_model(), data)

    @pytest.mark.parametrize(
        ("strategy", "reg_weight"),
        [(RankStrategy.REGULARIZE, 0.0), (RankStrategy.NONE, 0.5),
         (RankStrategy.QR_RETRACTION, 0.5)],
        ids=["regularize-without-penalty", "none-with-penalty", "qr-with-penalty"],
    )
    def test_rank_strategy_must_agree_with_reg_weight(self, small_dataset, strategy, reg_weight):
        model = tiny_model(seed=2, rank_strategy=strategy)
        before = [a.copy() for _, a in named_parameters(model)]
        with pytest.raises(ValueError, match=f"^rank_strategy={strategy.value} needs "
                                             f"reg_weight .*, got reg_weight={reg_weight}$"):
            train(model, small_dataset[:4], TrainConfig(epochs=1, reg_weight=reg_weight))
        assert all(np.array_equal(a, b) for (_, a), b in zip(named_parameters(model), before))

    def test_rank_training_rejects_val_dataset(self, small_dataset):
        pairs = [(mol, mirror(mol)) for mol, _ in small_dataset[:2]]
        with pytest.raises(ValueError, match="val_dataset"):
            train(tiny_model(seed=2, n_classes=1), pairs, TrainConfig(epochs=1),
                  val_dataset=small_dataset[2:4], margin=0.5)

    def test_metrics_stream(self, small_dataset):
        lines = []
        model = tiny_model(seed=13)
        train(model, small_dataset[:8],
              TrainConfig(lr=1e-3, epochs=2, batch_size=8),
              val_dataset=small_dataset[8:12], log=lines.append)
        assert len(lines) == 2
        for line in lines:
            fields = dict(kv.split("=") for kv in line.split())
            assert set(fields) == {"epoch", "train_loss", "train_acc", "val_acc", "lr", "l_reg"}
            float(fields["train_loss"])

    def test_rank_training_rejects_multi_class_head(self, small_dataset):
        pairs = [(mol, mirror(mol)) for mol, _ in small_dataset[:2]]
        with pytest.raises(ValueError, match="n_classes=2"):
            train(tiny_model(seed=2, n_classes=2), pairs, TrainConfig(epochs=1), margin=0.5)

    def test_rank_training_orders_pairs(self):
        # R member of each mirror pair should outrank its enantiomer
        base = gen_rs(SyntheticSpec(count=16, seed=14))
        pairs = []
        for mol, label in base:
            ent = mirror(mol)
            hi, lo = (mol, ent) if label.value == "R" else (ent, mol)
            pairs.append((hi, lo))
        model = tiny_model(seed=15, n_classes=1)
        train(model, pairs, TrainConfig(lr=2e-3, epochs=8, batch_size=8), margin=0.5)
        ordered = sum(1 for hi, lo in pairs if forward(model, hi)[0] > forward(model, lo)[0])
        assert ordered >= 15

    def test_rank_step_gradient_matches_fd(self):
        base = gen_rs(SyntheticSpec(count=6, seed=23))
        pairs = [(mol, mirror(mol)) for mol, _ in base]
        batch = prepare_batch([hi for hi, _ in pairs] + [lo for _, lo in pairs])
        model = tiny_model(seed=1, n_classes=1)
        gaps = np.array([forward(model, hi)[0] - forward(model, lo)[0] for hi, lo in pairs])
        # a margin between the middle score gaps: half the pairs are inside
        # the hinge, and every pair stays away from its kink
        margin = float(np.sort(gaps)[2:4].mean())
        assert np.min(np.abs(gaps - margin)) > 1e-4
        objective = rank_loss(margin)
        kept = (model.encoder.kernels.gamma, model.head)

        def f(theta):
            model.encoder.kernels.gamma, model.head = unflatten(theta, *kept)
            try:
                return batch_loss(model, batch, objective, reg_weight=0.0)
            finally:
                model.encoder.kernels.gamma, model.head = kept

        numeric = finite_diff_grad(f, flatten(*kept))
        _, _, grads = batch_step(model, batch, objective, reg_weight=0.0)
        analytic = flatten(grads.encoder.kernels.gamma, grads.head)
        assert compare_grads(analytic, numeric, tol=1e-5).passed


class TestCheckpoint:
    def test_round_trip_bitwise(self, small_dataset, tmp_path):
        model = tiny_model(seed=16)
        adam = AdamState.for_model(model)
        train(model, small_dataset[:8], TrainConfig(lr=1e-3, epochs=1, batch_size=8), adam=adam)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, adam)
        loaded, adam2 = load_checkpoint(path)
        mol = small_dataset[0][0]
        assert np.array_equal(forward(loaded, mol), forward(model, mol))
        assert adam2.step == adam.step
        for name, _ in named_parameters(model):
            assert np.array_equal(adam2.m[name], adam.m[name])
            assert np.array_equal(adam2.v[name], adam.v[name])

    def test_save_load_save_is_byte_identical(self, small_dataset, tmp_path):
        model = init_model(TINY_CONFIG)
        adam = AdamState.for_model(model)
        train(model, small_dataset[:16], TrainConfig(lr=1e-3, epochs=1, batch_size=8), adam=adam)
        first, second = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, first, adam)
        loaded, adam2 = load_checkpoint(first)
        save_checkpoint(loaded, second, adam2)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_missing_moment_rejected(self, tmp_path, moment):
        name = f"adam.{moment}.encoder.kernel.w"
        path = tmp_path / "model.ckpt"
        model = tiny_model(seed=24)
        save_checkpoint(model, path, AdamState.for_model(model))
        resign(path, rename_tensor(name.encode()))
        with pytest.raises(CheckpointShapeError, match=f"missing tensor {name}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize(("name", "message"),
                             [("bogus.tensor", "tensor bogus.tensor is not in the tensor table"),
                              ("head.b2", "tensor head.b2 appears twice in the payload")],
                             ids=["extra", "repeated"])
    def test_tensor_outside_the_table_rejected(self, tmp_path, name, message):
        # either would load silently: an extra name unread, a repeat over the first
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(seed=24), path)
        resign(path, append_tensor(name.encode(), [0.5, -0.5]))
        with pytest.raises(CheckpointShapeError, match=f"^{message}$"):
            load_checkpoint(path)

    @pytest.mark.parametrize("moment", ["m", "v"])
    def test_misshapen_moment_rejected(self, tmp_path, moment):
        path = tmp_path / "model.ckpt"
        model = tiny_model(seed=25)
        adam = AdamState.for_model(model)
        getattr(adam, moment)["head.b2"] = np.zeros(3)
        save_checkpoint(model, path, adam)
        with pytest.raises(CheckpointShapeError, match=rf"adam\.{moment}\.head\.b2 has shape \(3,\)"):
            load_checkpoint(path)

    def test_corrupt_payload_detected(self, tmp_path, small_dataset):
        model = tiny_model(seed=17)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointChecksumError):
            load_checkpoint(path)

    def test_truncated_detected(self, tmp_path):
        model = tiny_model(seed=18)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointTruncatedError):
            load_checkpoint(path)

    def test_version_mismatch(self, tmp_path):
        model = tiny_model(seed=19)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        path.write_bytes(raw.replace(b"checkpoint v1", b"checkpoint v9", 1))
        with pytest.raises(CheckpointVersionError):
            load_checkpoint(path)

    def test_shape_mismatch_names_tensor(self, tmp_path):
        import hashlib

        model = tiny_model(seed=20)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        raw = path.read_bytes()
        blob = raw[:-32]
        # claim a different hidden width but keep the h=8 tensors, then
        # re-sign so only the shape validation can object
        blob = blob.replace(b"\nh=8\n", b"\nh=16\n", 1)
        path.write_bytes(blob + hashlib.sha256(blob).digest())
        with pytest.raises(CheckpointShapeError, match="encoder"):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.ckpt")

    def test_default_config_header_pinned(self, tmp_path):
        # checkpoint format v1: the header text of a default-config model
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(ModelConfig()), path)
        raw = path.read_bytes()
        assert raw[: raw.index(b"\n\n") + 2] == (
            b"chiraldet-checkpoint v1\nh=64\nd_p=32\nn_layers=4\nn_heads=2\nn_gkpt=64\n"
            b"d_f=52\nrank_strategy=qr_retraction\nn_classes=2\nseed=0\nstep=0\n"
            b"tensors=81\npayload_bytes=2126723\n\n"
        )
        assert load_checkpoint(path)[0].config == ModelConfig()

    @pytest.mark.parametrize(
        ("old", "new"),
        [(b"n_heads=2", b"n_heads=two"), (b"rank_strategy=none", b"rank_strategy=bogus"),
         (b"seed=19", b"sead=19"), (b"step=0", b"step=-1"), (b"tensors=53", b"tensors=-1"),
         (b"payload_bytes=31763", b"payload_bytes=-5")],
        ids=["int", "rank_strategy", "missing", "negative-step", "negative-tensors",
             "negative-payload-bytes"],
    )
    def test_bad_config_header_field(self, tmp_path, old, new):
        model = tiny_model(seed=19, rank_strategy=RankStrategy.NONE)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        resign(path, set_header(old, new))
        with pytest.raises(CheckpointVersionError, match="bad header field"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        ("line", "message"),
        [(b"seed=5", "'seed' on line 12 repeats line 10"),
         (b"step=0", "'step' on line 12 repeats line 11"),
         (b"bogus=1", "unknown field 'bogus' on line 12"),
         (b"no equals sign", "unknown field 'no equals sign' on line 12")],
        ids=["repeated-seed", "repeated-step", "unknown", "not-key-value"],
    )
    def test_repeated_or_unknown_header_field_rejected(self, tmp_path, line, message):
        # a TINY_CONFIG header: magic, 9 config lines (seed on line 10),
        # then step on line 11; the inserted line is line 12
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(seed=21), path)
        resign(path, insert_header(b"step=0", line))
        with pytest.raises(CheckpointVersionError, match=f"^bad header field: {message}$"):
            load_checkpoint(path)

    def test_tensor_table_short_of_the_payload_rejected(self, tmp_path):
        # an Adam checkpoint re-signed to count only its model tensors:
        # the walk stops before the moments instead of dropping them
        path = tmp_path / "model.ckpt"
        model = tiny_model(seed=24)
        save_checkpoint(model, path, AdamState.for_model(model))
        tensors = read_tensors(path.read_bytes())
        n_model = sum(not name.startswith("adam.") for name, _ in tensors)
        assert (n_model, len(tensors)) == (53, 159)
        resign(path, set_header(b"tensors=159", b"tensors=53"))
        with pytest.raises(CheckpointTruncatedError, match="^53 tensors end at byte "):
            load_checkpoint(path)

    @pytest.mark.parametrize(("old", "new", "message"), [
        (b"h=8", b"h=1000000",
         r"tensor encoder\.kernel\.w has shape \(8, 4, 3\), expected \(1000000, 4, 3\)"),
        (b"n_layers=2", b"n_layers=200000",
         r"the tensor table holds 2 layers\.\*\.wq tensors, expected n_layers=200000"),
        (b"d_p=4", b"d_p=9999999999999999999",
         r"tensor encoder\.kernel\.w has shape \(8, 4, 3\), "
         r"expected \(8, 9999999999999999999, 3\)"),
        (b"d_f=52", b"d_f=53",
         r"tensor encoder\.proj_c\.w1 has shape \(8, 52\), expected \(8, 53\)"),
        (b"n_gkpt=8", b"n_gkpt=9", r"tensor bias\.w_p has shape \(8, 2\), expected \(9, 2\)"),
        (b"n_heads=2", b"n_heads=4", r"tensor bias\.w_p has shape \(8, 2\), expected \(8, 4\)"),
        (b"n_classes=2", b"n_classes=3",
         r"tensor head\.w2 has shape \(2, 8\), expected \(3, 8\)"),
    ], ids=["h=1000000", "n_layers=200000", "d_p=1e19", "d_f", "n_gkpt", "n_heads", "n_classes"])
    def test_header_dimension_checked_before_allocation(self, tmp_path, monkeypatch, old, new,
                                                        message):
        """A re-signed header dimension that the tensor table contradicts is
        refused, naming the tensor, before init_model would allocate the
        model at the header's size: a bare MemoryError for h=1000000, every
        layer built for n_layers=200000, numpy's ValueError for d_p=1e19."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(TINY_CONFIG), path)
        resign(path, set_header(old, new))

        def no_model(config):
            raise AssertionError("init_model ran before the header was checked")

        monkeypatch.setattr(chiraldet.model, "init_model", no_model)
        with pytest.raises(CheckpointShapeError, match=f"^{message}$"):
            load_checkpoint(path)

    def test_d_p_3_header_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(seed=21), path)
        resign(path, set_header(b"d_p=4", b"d_p=3"))
        with pytest.raises(CheckpointVersionError, match="d_p must be >= 4"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        ("old", "new"),
        [(b"h=8", b"h=0"), (b"n_heads=2", b"n_heads=0"), (b"n_gkpt=8", b"n_gkpt=0"),
         (b"n_classes=2", b"n_classes=0"), (b"d_f=52", b"d_f=0"), (b"d_f=52", b"d_f=-1")],
        ids=["h", "n_heads", "n_gkpt", "n_classes", "d_f", "d_f-negative"],
    )
    def test_zero_size_header_rejected(self, tmp_path, old, new):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(seed=21), path)
        resign(path, set_header(old, new))
        field = old.split(b"=")[0].decode()
        with pytest.raises(CheckpointVersionError, match=f"{field} must be >= 1"):
            load_checkpoint(path)

    def test_negative_seed_header_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(seed=21), path)
        resign(path, set_header(b"seed=21", b"seed=-1"))
        with pytest.raises(CheckpointVersionError, match="seed must be >= 0, got -1"):
            load_checkpoint(path)

    def test_sigma_at_or_below_the_floor_rejected(self, tmp_path):
        """A bias.sigma entry that no forward can run is refused on load,
        named by its index, not at the checkpoint's first forward."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(init_model(TINY_CONFIG), path)
        resign(path, set_first_value(b"bias.sigma", 1e-7))
        with pytest.raises(CheckpointShapeError, match=r"^tensor bias\.sigma holds "
                                                       r"bias\.sigma\[0\] = 1\.000e-07, at or "
                                                       r"below SIGMA_FLOOR = 1e-06, which no "
                                                       r"forward can run$"):
            load_checkpoint(path)

    def test_nonzero_beta_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(seed=22), path)
        resign(path, set_first_beta)
        with pytest.raises(CheckpointShapeError, match="encoder.kernel.beta"):
            load_checkpoint(path)

    def test_missing_beta_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(tiny_model(seed=22), path)
        resign(path, lambda blob: blob.replace(b"encoder.kernel.beta", b"encoder.kernel.bet_"))
        with pytest.raises(CheckpointShapeError, match="missing tensor encoder.kernel.beta"):
            load_checkpoint(path)

    def test_tiny_tensor_table_pinned(self, small_dataset, tmp_path):
        # checkpoint format v1: every tensor of a TINY_CONFIG checkpoint with
        # Adam state, in file order; the kernel shift beta is stored as zeros
        # right after its gain, for the model and both moments
        mlp = [("w1", (8, 52)), ("b1", (8,)), ("w2", (8, 8)), ("b2", (8,))]
        layer = [(n, (8, 8)) for n in ("wq", "wk_r", "wv_r", "wk_n", "wv_n", "wo")]
        layer += [("ff_w1", (32, 8)), ("ff_b1", (32,)), ("ff_w2", (8, 32)), ("ff_b2", (8,))]
        layer += [(f"ln{i}_{n}", (8,)) for i in (1, 2) for n in ("gamma", "beta")]
        params = [("encoder.kernel.w", (8, 4, 3)), ("encoder.kernel.gamma", (4,)),
                  ("encoder.kernel.beta", (4,)), ("encoder.token", (8,))]
        params += [(f"encoder.{p}.{n}", s) for p in ("proj_c", "proj_r", "proj_n") for n, s in mlp]
        params += [("bias.e1", (2, 8)), ("bias.e2", (2, 8)), ("bias.mu", (8,)),
                   ("bias.sigma", (8,)), ("bias.w_p", (8, 2))]
        params += [(f"layers.{i}.{n}", s) for i in (0, 1) for n, s in layer]
        params += [("head.w1", (8, 8)), ("head.b1", (8,)), ("head.w2", (2, 8)), ("head.b2", (2,))]
        expected = params + [(f"adam.{m}.{n}", s) for m in ("m", "v") for n, s in params]

        model = init_model(TINY_CONFIG)
        adam = AdamState.for_model(model)
        train(model, small_dataset[:8], TrainConfig(epochs=1, batch_size=8), adam=adam)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, adam)
        tensors = read_tensors(path.read_bytes())
        assert [(n, a.shape) for n, a in tensors] == expected
        stored = dict(tensors)
        for prefix in ("", "adam.m.", "adam.v."):
            assert not np.any(stored[f"{prefix}encoder.kernel.beta"])
            assert np.all(stored[f"{prefix}encoder.kernel.gamma"] != 0.0)
