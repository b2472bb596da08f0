"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The heavier criteria (A5/A6) train real models, so this module
takes a couple of minutes end to end.
"""

import time

import numpy as np
import pytest

from chiraldet.data import (
    SyntheticSpec,
    featurize,
    gen_axial,
    gen_axial_torsion,
    gen_rs,
    toy_axial_molecule,
)
from chiraldet.encoder import RankStrategy, prepare_batch
from chiraldet.errors import CheckpointChecksumError
from chiraldet.geometry import (
    ChiralUnit,
    Configuration,
    Molecule,
    UnitKind,
    assign_configuration,
    mirror,
    random_rotation,
    transform,
    unit_products,
)
from chiraldet.gradcheck import run_gradcheck
from chiraldet.model import (
    ModelConfig,
    TrainConfig,
    embed,
    evaluate,
    forward,
    forward_batch,
    init_model,
    load_checkpoint,
    save_checkpoint,
    train,
)
from chiraldet.numerics import det3_batch
from oracles import gram_sqrt_det


def report(name, ok, detail):
    print(f"{name} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{name} failed: {detail}"


def random_units(rng, n, min_product=0.1):
    mols = []
    while len(mols) < n:
        coords = rng.uniform(-2.0, 2.0, size=(5, 3))
        zs = np.array([6, 7, 8, 9, 15])
        mol = Molecule(
            coords=coords,
            atomic_numbers=zs,
            features=featurize(zs),
            chiral_units=(
                ChiralUnit(kind=UnitKind.CENTER, center_atoms=(0,), related=(1, 2, 3, 4)),
            ),
        )
        if abs(unit_products(mol)[0]) >= min_product:
            mols.append(mol)
    return mols


class TestA1SE3Invariance:
    def test_a1(self):
        start = time.time()
        rng = np.random.default_rng(101)
        mols = random_units(rng, 100)
        coords = np.stack([m.coords for m in mols])  # (100, 5, 3)
        base = np.array([unit_products(m)[0] for m in mols])
        max_drift = 0.0
        for _ in range(1000):
            rot = random_rotation(rng)
            t = rng.uniform(-10.0, 10.0, size=3)
            moved = coords @ rot.T + t
            rows = np.stack(
                [moved[:, 1] - moved[:, 0], moved[:, 2] - moved[:, 0], moved[:, 4] - moved[:, 3]],
                axis=1,
            )
            prods = np.einsum(
                "ni,ni->n", np.cross(rows[:, 0], rows[:, 1]), rows[:, 2]
            )
            max_drift = max(max_drift, float(np.max(np.abs(prods - base) / np.abs(base))))
        elapsed = time.time() - start
        report(
            "A1",
            max_drift < 1e-10 and elapsed < 5.0,
            f"max rel drift {max_drift:.2e} over 1000 motions x 100 units in {elapsed:.2f}s",
        )


class TestA2ReflectionFlip:
    def test_a2(self):
        rng = np.random.default_rng(102)
        mols = random_units(rng, 100) + [m for m, _ in gen_rs(SyntheticSpec(count=50, seed=11))]
        flipped = 0
        restored = 0
        for mol in mols:
            p = unit_products(mol)[0]
            lab = assign_configuration(p)
            assert lab is not Configuration.DEGENERATE
            lab_m = assign_configuration(unit_products(mirror(mol))[0])
            if {lab, lab_m} == {Configuration.R, Configuration.S}:
                flipped += 1
            if np.array_equal(mirror(mirror(mol)).coords, mol.coords):
                restored += 1
        ok = flipped == len(mols) and restored == len(mols)
        report("A2", ok, f"{flipped}/{len(mols)} labels flipped, {restored}/{len(mols)} exact double-mirror restores")


class TestA3Lemma2Identity:
    def test_a3(self):
        start = time.time()
        rng = np.random.default_rng(103)
        worst = 0.0
        checked = 0
        for d_p in (4, 8, 32):
            while checked < (334 * ((4, 8, 32).index(d_p) + 1)):
                w = rng.standard_normal((d_p, 3))
                m = rng.standard_normal((3, 3))
                if abs(det3_batch(m)) < 1e-2:
                    continue
                det_r = abs(det3_batch(np.linalg.qr(w @ m)[1]))
                expect = abs(det3_batch(m)) * gram_sqrt_det(w)
                worst = max(worst, abs(det_r - expect) / expect)
                checked += 1
        # rank-2 W degenerates the readout
        worst_rank2 = 0.0
        for d_p in (4, 8, 32):
            for _ in range(30):
                w = rng.standard_normal((d_p, 3))
                w[:, 2] = w[:, 0] - 2.0 * w[:, 1]
                m = rng.standard_normal((3, 3))
                worst_rank2 = max(worst_rank2, abs(det3_batch(np.linalg.qr(w @ m)[1])))
        elapsed = time.time() - start
        ok = worst < 1e-8 and worst_rank2 < 1e-10 and elapsed < 10.0
        report(
            "A3",
            ok,
            f"{checked} pairs, worst rel err {worst:.2e}, rank-2 |det R| <= {worst_rank2:.2e}, {elapsed:.2f}s",
        )


class TestA4GradientAudit:
    def test_a4(self):
        start = time.time()
        reports = run_gradcheck(seed=1, tol=1e-4)
        elapsed = time.time() - start
        worst = max(r.max_rel_error for r in reports)
        ok = all(r.passed for r in reports) and elapsed < 60.0
        detail = ", ".join(f"{r.name}={r.max_rel_error:.1e}" for r in reports)
        report("A4", ok, f"worst {worst:.2e} in {elapsed:.1f}s ({detail})")


@pytest.fixture(scope="module")
def desk_run(tmp_path_factory):
    """gen -> train via the CLI at the default desk configuration."""
    from chiraldet.cli import main as cli_main
    from chiraldet.data import read_manifest

    base = tmp_path_factory.mktemp("desk")
    ds = base / "ds"
    run = base / "run"
    start = time.time()
    assert cli_main(["gen", "--task", "rs", "--count", "2000", "--seed", "9",
                     "--out", str(ds)]) == 0
    assert cli_main(["train", "--data", str(ds), "--out", str(run),
                     "--epochs", "6"]) == 0
    elapsed = time.time() - start
    model, _ = load_checkpoint(run / "model.ckpt")
    test_set = read_manifest(ds)[1800:]
    return model, test_set, elapsed, ds, run


class TestA5DeskRS:
    def test_a5(self, desk_run, capsys):
        from chiraldet.cli import main as cli_main

        model, test_set, train_time, ds, run = desk_run
        start = time.time()
        assert cli_main(["eval", "--ckpt", str(run / "model.ckpt"), "--data", str(ds),
                         "--eval-split", "test", "--mirror-check"]) == 0
        printed = capsys.readouterr().out
        acc = float(printed.split("accuracy=")[1].split()[0])
        flip = float(printed.split("mirror_flip_rate=")[1].split()[0])
        total = train_time + (time.time() - start)
        assert abs(acc - evaluate(model, test_set)) < 1e-12
        ok = acc >= 0.99 and flip >= 0.99 and total < 300.0
        report(
            "A5",
            ok,
            f"held-out accuracy {acc:.4f}, mirror flip rate {flip:.4f}, "
            f"gen+train+eval {total:.0f}s (1600/200/200 split, <=10 epochs)",
        )


class TestA6TorsionSweep:
    def test_a6(self):
        toy = toy_axial_molecule()
        conformers = gen_axial_torsion(toy, 20.0)
        signs = [int(np.sign(unit_products(c)[0])) for c in conformers]
        changes = sum(1 for i in range(18) if signs[i] != signs[(i + 1) % 18])
        arcs_ok = (
            len(conformers) == 18
            and all(s != 0 for s in signs)
            and changes == 2
            and signs.count(1) == 9
            and signs.count(-1) == 9
        )

        axial_data = gen_axial(300, seed=21)
        model = init_model(
            ModelConfig(h=32, d_p=16, n_layers=2, n_heads=2, n_gkpt=32, seed=3)
        )
        train(model, axial_data, TrainConfig(lr=1e-3, epochs=4, batch_size=16))
        vecs = np.stack([embed(model, c) for c in conformers])
        ref = vecs[0]
        cos = vecs @ ref / (np.linalg.norm(vecs, axis=1) * np.linalg.norm(ref))
        same_arc = np.array([s == signs[0] for s in signs])
        within = float(cos[same_arc][1:].mean())  # exclude the reference itself
        across = float(cos[~same_arc].mean())
        ok = arcs_ok and within > across
        report(
            "A6",
            ok,
            f"two arcs of 9 ({signs.count(1)}+/{signs.count(-1)}-), "
            f"cosine within-arc {within:.3f} > across {across:.3f}",
        )


class TestA7AttentionSanity:
    def test_a7(self, desk_run):
        model, test_set, _, _, _ = desk_run
        rng = np.random.default_rng(107)
        worst_rowsum = 0.0
        worst_perm = 0.0
        worst_rigid = 0.0
        for mol, _ in test_set[:10]:
            # a batch of one has no padding: attention is (1, n_q, n_k, H)
            state = forward_batch(model, prepare_batch([mol]))
            for attn in state.attn:
                if attn.shape[2]:
                    worst_rowsum = max(
                        worst_rowsum, float(np.max(np.abs(attn.sum(axis=2) - 1.0)))
                    )
            # permute atom order inside the molecule (relabels keys)
            perm = _relabel(mol, rng)
            worst_perm = max(
                worst_perm, float(np.max(np.abs(embed(model, perm) - state.pooled[0])))
            )
            moved = transform(mol, random_rotation(rng), rng.uniform(-10, 10, 3))
            worst_rigid = max(
                worst_rigid,
                float(np.max(np.abs(forward(model, moved) - state.logits[0]))),
            )
        ok = worst_rowsum < 1e-12 and worst_perm < 1e-10 and worst_rigid < 1e-9
        report(
            "A7",
            ok,
            f"row-sum dev {worst_rowsum:.1e}, key-permutation dev {worst_perm:.1e}, "
            f"rigid-motion logit drift {worst_rigid:.1e}",
        )


def _relabel(mol: Molecule, rng) -> Molecule:
    """Random relabeling of atom indices (a within-class key permutation)."""
    perm = rng.permutation(mol.n_atoms)
    inv = np.empty_like(perm)
    inv[perm] = np.arange(mol.n_atoms)
    units = tuple(
        ChiralUnit(
            kind=u.kind,
            center_atoms=tuple(int(inv[i]) for i in u.center_atoms),
            related=tuple(int(inv[i]) for i in u.related),
        )
        for u in mol.chiral_units
    )
    return Molecule(
        coords=mol.coords[perm],
        atomic_numbers=mol.atomic_numbers[perm],
        features=mol.features[perm],
        chiral_units=units,
        id=mol.id,
    ).validate()


class TestA8RankStrategies:
    def test_a8(self):
        data = gen_rs(SyntheticSpec(count=8, seed=31))
        reg_model = init_model(
            ModelConfig(h=8, d_p=4, n_layers=2, n_heads=2, n_gkpt=8, seed=5,
                        rank_strategy=RankStrategy.REGULARIZE)
        )
        reg_model.encoder.kernels.w *= 2.0
        records = train(
            reg_model, data, TrainConfig(lr=1e-3, epochs=50, batch_size=8, reg_weight=1.0)
        )
        regs = [r.l_reg for r in records]
        monotone = all(a > b for a, b in zip(regs, regs[1:]))

        qr_model = init_model(
            ModelConfig(h=8, d_p=4, n_layers=2, n_heads=2, n_gkpt=8, seed=6,
                        rank_strategy=RankStrategy.QR_RETRACTION)
        )
        qr_records = train(qr_model, data, TrainConfig(lr=2e-3, epochs=50, batch_size=8))
        # one batch per epoch: l_reg is sampled after every optimizer step
        qr_ok = all(r.l_reg < 1e-16 for r in qr_records)
        w = qr_model.encoder.kernels.w
        qr_ok = qr_ok and all(
            np.linalg.norm(w[k].T @ w[k] - np.eye(3)) < 1e-8 for k in range(w.shape[0])
        )
        ok = monotone and qr_ok
        report(
            "A8",
            ok,
            f"reg loss fell {regs[0]:.3f} -> {regs[-1]:.3f} strictly over 50 steps; "
            f"retraction keeps ||w^T w - I|| < 1e-8 after every step",
        )


class TestA9Persistence:
    def test_a9(self, desk_run, tmp_path):
        model, test_set, _, _, _ = desk_run
        path = tmp_path / "desk.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        bitwise = all(
            np.array_equal(forward(loaded, mol), forward(model, mol))
            for mol, _ in test_set[:10]
        )
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0x01
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        try:
            load_checkpoint(bad)
            detected = False
        except CheckpointChecksumError:
            detected = True
        ok = bitwise and detected
        report("A9", ok, f"bitwise logits round-trip {bitwise}, corruption detected {detected}")
