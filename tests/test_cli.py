import csv
import math
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import chiraldet.cli
import chiraldet.gradcheck
import chiraldet.model
from checkpoint_edits import (
    append_tensor,
    insert_header,
    rename_tensor,
    resign,
    set_first_beta,
    set_first_value,
    set_header,
    set_size,
)
from chiraldet.cli import build_parser, main
from chiraldet.data import (
    SyntheticSpec,
    featurize,
    gen_axial,
    gen_rs,
    read_manifest,
    tile_molecules,
    toy_axial_molecule,
    write,
    write_dataset,
)
from chiraldet.geometry import ChiralUnit, Configuration, Molecule, UnitKind, mirror
from chiraldet.gradcheck import BLOCKS, TINY_CONFIG, run_gradcheck
from chiraldet.model import (
    EVAL_CHUNK,
    AdamState,
    attention_export_rows,
    embed,
    init_model,
    load_checkpoint,
    save_checkpoint,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def canonical_molecule():
    coords = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, -0.5], [0, 0, 0.5]], dtype=float
    )
    zs = np.array([6, 7, 8, 9, 15])
    return Molecule(
        coords=coords,
        atomic_numbers=zs,
        features=featurize(zs),
        chiral_units=(ChiralUnit(kind=UnitKind.CENTER, center_atoms=(0,), related=(1, 2, 3, 4)),),
        id="canon",
    ).validate()


@pytest.fixture
def canon_file(tmp_path):
    path = tmp_path / "canon.chimol"
    write(canonical_molecule(), path)
    return path


@pytest.fixture
def flat_file(tmp_path):
    """A unit whose four substituents lie in the xy-plane, so P = 0."""
    coords = np.array(
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [-1, 0, 0], [0, -1, 0]], dtype=float
    )
    zs = np.array([6, 7, 8, 9, 15])
    mol = Molecule(
        coords=coords,
        atomic_numbers=zs,
        features=featurize(zs),
        chiral_units=(
            ChiralUnit(kind=UnitKind.CENTER, center_atoms=(0,), related=(1, 2, 3, 4)),
        ),
        id="flat",
    )
    path = tmp_path / "flat.chimol"
    write(mol, path)
    return path


@pytest.fixture
def tiny_ckpt(tmp_path):
    model = init_model(TINY_CONFIG)
    path = tmp_path / "tiny.ckpt"
    save_checkpoint(model, path, AdamState.for_model(model))
    return path


class TestChirality:
    def test_canonical_r(self, canon_file, capsys):
        assert main(["chirality", str(canon_file)]) == 0
        assert "unit 0: P=+1.000000 R" in capsys.readouterr().out

    def test_mirror_s(self, tmp_path, capsys):
        path = tmp_path / "m.chimol"
        write(mirror(canonical_molecule()), path)
        assert main(["chirality", str(path)]) == 0
        assert "unit 0: P=-1.000000 S" in capsys.readouterr().out

    def test_multi_unit_order_matches_oracle(self, tmp_path, capsys):
        from chiraldet.data import parse
        from chiraldet.geometry import unit_products

        rng = np.random.default_rng(2)
        coords = rng.uniform(-2.0, 2.0, size=(10, 3))
        zs = np.array([6, 7, 8, 9, 15, 6, 16, 17, 35, 5])
        units = (
            ChiralUnit(kind=UnitKind.CENTER, center_atoms=(0,), related=(1, 2, 3, 4)),
            ChiralUnit(kind=UnitKind.CENTER, center_atoms=(5,), related=(6, 7, 8, 9)),
        )
        mol = Molecule(
            coords=coords, atomic_numbers=zs,
            features=featurize(zs), chiral_units=units, id="multi",
        ).validate()
        path = tmp_path / "multi.chimol"
        write(mol, path)
        assert main(["chirality", str(path)]) == 0
        out = capsys.readouterr().out.splitlines()
        products = unit_products(parse(path))
        assert len(out) == 2
        for i, line in enumerate(out):
            assert line.startswith(f"unit {i}: P={products[i]:+.6f}")

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.chimol"
        path.write_text("2\n\nC 0 0 0\nC 1 0 0\nCHIRAL center 0 9 9 9 9\n")
        assert main(["chirality", str(path)]) == 2
        assert "line" in capsys.readouterr().err

    def test_missing_file_exit_2(self):
        assert main(["chirality", "nope.chimol"]) == 2

    @pytest.mark.parametrize("line", ["CHIRAL", "CHIRAL center"])
    def test_truncated_chiral_line_exit_2(self, tmp_path, capsys, line):
        path = tmp_path / "short.chimol"
        path.write_text(f"2\n\nC 0 0 0\nC 1 0 0\n{line}\n")
        assert main(["chirality", str(path)]) == 2
        assert capsys.readouterr().err == (f"error: line 5: CHIRAL needs a unit kind and its "
                                           f"centre atoms, got {line.count(' ')} fields\n")

    @pytest.mark.parametrize("priorities", ["nan 1 2 3", "nan nan 1 2", "inf 1 2 3"])
    def test_non_finite_priority_exit_2(self, tmp_path, capsys, priorities):
        # each NaN is unequal to every priority, itself included, so the tie
        # check passes it and sorted() would give an arbitrary order
        path = tmp_path / "nan.chimol"
        path.write_text("5\n\nC 0 0 0\nN 1 0 0\nO 0 1 0\nF 0 0 -0.5\nP 0 0 0.5\n"
                        f"CHIRAL center 0 1 2 3 4 {priorities}\n")
        assert main(["chirality", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: line 8: substituent priorities must be finite")

    def test_directory_exit_2(self, tmp_path, capsys):
        # an OSError other than a missing file is an input error too
        assert main(["chirality", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Is a directory" in err and str(tmp_path) in err


class TestInvariance:
    def test_pass_on_chiral_molecule(self, canon_file, capsys):
        assert main(["invariance", str(canon_file), "--trials", "200"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS")

    def test_degenerate_warns_and_passes(self, flat_file, capsys):
        assert main(["invariance", str(flat_file), "--trials", "10"]) == 0
        captured = capsys.readouterr()
        assert "Degenerate" in captured.err

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("command", ["chirality", "invariance"])
    def test_bad_tol_exit_2(self, flat_file, capsys, command, tol):
        trials = ["--trials", "10"] if command == "invariance" else []
        assert main([command, str(flat_file), "--tol", tol, *trials]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "tolerance must be finite and non-negative" in captured.err

    @pytest.mark.parametrize("scale", [1e150, 1e160])
    @pytest.mark.parametrize("command", ["chirality", "invariance"])
    def test_non_finite_product_exit_3(self, tmp_path, capsys, command, scale):
        # the product overflows to inf at 1e150 and to NaN at 1e160, which
        # used to print an R or Degenerate label, or a FAIL, and no error
        mol = gen_rs(SyntheticSpec(count=1, seed=0))[0][0]
        path = tmp_path / "big.chimol"
        write(replace(mol, coords=mol.coords * scale), path)
        trials = ["--trials", "5"] if command == "invariance" else []
        assert main([command, str(path), *trials]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("numeric error: unit 0: chirality product P=")
        assert captured.err.endswith(" is not finite\n")

    def test_degenerate_band_shared_with_chirality(self, canon_file, capsys):
        # |P| = 1: degenerate for both commands at tol 1, live just below
        assert main(["chirality", str(canon_file), "--tol", "1"]) == 0
        assert main(["invariance", str(canon_file), "--tol", "1", "--trials", "5"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["unit 0: P=+1.000000 Degenerate", "all units degenerate; nothing to check"]
        assert main(["invariance", str(canon_file), "--tol", "0.999", "--trials", "5"]) == 0
        assert capsys.readouterr().out.startswith("PASS trials=5")

    def test_zero_trials_usage_error(self, canon_file, capsys):
        assert main(["invariance", str(canon_file), "--trials", "0"]) == 2
        assert capsys.readouterr().err == "error: --trials must be >= 1, got 0\n"


class TestGen:
    def test_writes_dataset_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "ds"
        assert main(["gen", "--task", "rs", "--count", "8", "--seed", "3",
                     "--out", str(out)]) == 0
        manifest = (out / "manifest.tsv").read_text().strip().splitlines()
        assert len(manifest) == 8
        assert len(list(out.glob("*.chimol"))) == 8

    def test_deterministic_under_seed(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "7", "--out", str(a)])
        main(["gen", "--task", "rs", "--count", "4", "--seed", "7", "--out", str(b)])
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()

    def test_axial_task(self, tmp_path):
        out = tmp_path / "ax"
        assert main(["gen", "--task", "axial", "--count", "4", "--seed", "1",
                     "--out", str(out)]) == 0
        assert len(list(out.glob("*.chimol"))) == 4

    @pytest.mark.parametrize("task", ["rs", "axial"])
    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_nonpositive_min_product_rejected(self, tmp_path, capsys, task, value):
        out = tmp_path / "ds"
        assert main(["gen", "--task", task, "--count", "4", "--min-product", value,
                     "--out", str(out)]) == 2
        assert "min_abs_product must be > 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("task", ["rs", "axial"])
    def test_negative_seed_rejected(self, tmp_path, capsys, task):
        out = tmp_path / "ds"
        assert main(["gen", "--task", task, "--count", "4", "--seed", "-1",
                     "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"
        assert not out.exists()

    def test_axial_spectators_not_clamped(self, tmp_path):
        out = tmp_path / "ax"
        assert main(["gen", "--task", "axial", "--count", "12", "--seed", "1",
                     "--spectators", "5", "--out", str(out)]) == 0
        expect = write_dataset(gen_axial(12, seed=1, spectator_range=(0, 5)), tmp_path / "lib")
        sizes = [int(f.read_text().split()[0]) for f in sorted(out.glob("*.chimol"))]
        assert max(sizes) > 8
        for f in sorted(expect.parent.iterdir()):
            assert (out / f.name).read_bytes() == f.read_bytes()

    @pytest.mark.parametrize(("task", "default"), [("rs", "3"), ("axial", "2")])
    def test_spectator_default_per_task(self, tmp_path, task, default):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen", "--task", task, "--count", "6", "--seed", "2", "--out", str(a)])
        main(["gen", "--task", task, "--count", "6", "--seed", "2", "--spectators", default,
              "--out", str(b)])
        for f in sorted(a.iterdir()):
            assert f.read_bytes() == (b / f.name).read_bytes()


class TestTrainEval:
    def test_train_then_eval(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "40", "--seed", "5", "--out", str(ds)])
        run = tmp_path / "run"
        rc = main(["train", "--data", str(ds), "--out", str(run), "--config", "tiny",
                   "--epochs", "2", "--lr", "2e-3"])
        assert rc == 0
        assert (run / "model.ckpt").exists()
        metrics = (run / "metrics.log").read_text().splitlines()
        assert len(metrics) == 2 and metrics[0].startswith("epoch=0")
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(run / "model.ckpt"), "--data", str(ds)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("accuracy=")

    def test_train_runs_append_to_one_metrics_log(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "12", "--seed", "5", "--out", str(ds)])
        run = tmp_path / "run"
        argv = ["train", "--data", str(ds), "--out", str(run), "--config", "tiny", "--epochs", "2"]
        capsys.readouterr()
        assert main(argv) == 0
        assert main([*argv, "--seed", "1"]) == 0
        printed = [line for line in capsys.readouterr().out.splitlines()
                   if line.startswith("epoch=")]
        lines = (run / "metrics.log").read_text().splitlines()
        assert [line.split()[0] for line in lines] == ["epoch=0", "epoch=1"] * 2
        assert lines == printed

    def test_mirror_check_scores_the_split_once(self, tmp_path, tiny_ckpt, monkeypatch,
                                                capsys):
        # one pass over the split, then one over the mirrors of its
        # correctly classified molecules
        ds = tmp_path / "ds"
        write_dataset(gen_rs(SyntheticSpec(count=8, seed=5)), ds)
        chunks, calls = chiraldet.model._chunks, []
        monkeypatch.setattr(chiraldet.model, "_chunks",
                            lambda *args: calls.append(args) or chunks(*args))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tiny_ckpt), "--data", str(ds), "--eval-split",
                     "all", "--mirror-check"]) == 0
        accuracy = capsys.readouterr().out.splitlines()[0]
        assert accuracy != "accuracy=0.0000 n=8"
        assert len(calls) == 2
        assert len(calls[0][1]) == 8

    def test_nonfinite_split_rejected(self, tmp_path, capsys):
        """A fraction that is NaN or not a number at all gets the documented
        --split message, not float()'s."""
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "5", "--out", str(ds)])
        capsys.readouterr()
        for split in ("nan,0.5,0.5", "a,0.5,0.5"):
            assert main(["train", "--data", str(ds), "--out", str(tmp_path / "run"), "--config",
                         "tiny", "--split", split]) == 2
            assert f"--split must be three fractions summing to 1, got '{split}'" in (
                capsys.readouterr().err)
            assert not (tmp_path / "run" / "model.ckpt").exists()

    def test_degenerate_label_exit_2(self, tmp_path, capsys):
        # refused when the manifest is read, not at the first training step
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "5", "--out", str(ds)])
        manifest = ds / "manifest.tsv"
        lines = manifest.read_text().splitlines()
        lines[1] = lines[1].replace("\tS\t", "\tdegenerate\t")
        manifest.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["train", "--data", str(ds), "--out", str(tmp_path / "run"), "--config",
                     "tiny", "--epochs", "1"]) == 2
        assert capsys.readouterr().err == "error: line 2: label 'degenerate' is not R or S\n"
        assert not (tmp_path / "run").exists()

    def test_out_is_an_existing_file_exit_2(self, tmp_path, capsys):
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "5", "--out", str(ds)])
        out = tmp_path / "run"
        out.write_text("kept\n")
        capsys.readouterr()
        assert main(["train", "--data", str(ds), "--out", str(out), "--config", "tiny",
                     "--epochs", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "File exists" in err and str(out) in err
        assert out.read_text() == "kept\n"

    def test_eval_missing_checkpoint(self, tmp_path):
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "5", "--out", str(ds)])
        assert main(["eval", "--ckpt", str(tmp_path / "none.ckpt"), "--data", str(ds)]) == 2

    def test_eval_corrupt_checkpoint(self, tmp_path, tiny_ckpt):
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "5", "--out", str(ds)])
        raw = bytearray(tiny_ckpt.read_bytes())
        raw[-40] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(raw))
        assert main(["eval", "--ckpt", str(bad), "--data", str(ds)]) == 2

    @pytest.mark.parametrize("extra", [b"\0", None], ids=["one-byte", "second-checkpoint"])
    def test_eval_checkpoint_with_bytes_after_its_checksum(self, tmp_path, tiny_ckpt, capsys,
                                                           extra):
        # the checksum covers header and payload alone, so the file's length
        # must be theirs plus the digest's
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "5", "--out", str(ds)])
        raw = tiny_ckpt.read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(raw + (raw if extra is None else extra))
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(bad), "--data", str(ds)]) == 2
        assert (f"file is {bad.stat().st_size} bytes, expected {len(raw)}"
                in capsys.readouterr().err)

    def test_eval_overflowing_logits_exit_3(self, tmp_path, tiny_ckpt, capsys):
        # finite weights whose product overflows: every logit row gets an inf,
        # which argmax would have read as class 0
        resign(tiny_ckpt, set_first_value(b"head.b1", 1e300))
        resign(tiny_ckpt, set_first_value(b"head.w2", 1e300))
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "5", "--out", str(ds)])
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tiny_ckpt), "--data", str(ds), "--eval-split",
                     "all"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "non-finite logits, first non-finite stage output: pooling and head" in captured.err
        # every molecule overflows, so the error names the first one evaluated
        first = read_manifest(ds)[0][0].id
        assert captured.err.startswith(f"numeric error: molecule {first}: non-finite logits")

    def test_eval_overflowing_layer_norm_exit_3(self, tmp_path, tiny_ckpt, capsys):
        # a finite non-chiral projector weight overflows the first layer
        # norm's row variance, which would otherwise set its rows to beta
        # and let eval report an accuracy
        resign(tiny_ckpt, set_first_value(b"encoder.proj_n.w2", 1e200))
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "5", "--out", str(ds)])
        capsys.readouterr()
        with np.errstate(over="ignore"):
            code = main(["eval", "--ckpt", str(tiny_ckpt), "--data", str(ds), "--eval-split",
                         "all"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == ("numeric error: molecule rs00000: layer 0: layer norm: "
                                "a row's variance overflows float64\n")

    def test_mirror_check_without_a_correct_prediction_prints_nan(self, tmp_path, tiny_ckpt,
                                                                  capsys):
        # class 0 (R) never wins, and the set holds R molecules alone
        resign(tiny_ckpt, set_first_value(b"head.b2", -1e3))
        ds = tmp_path / "ds"
        write_dataset([(m, c) for m, c in gen_rs(SyntheticSpec(count=8, seed=5))
                       if c is Configuration.R], ds)
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tiny_ckpt), "--data", str(ds), "--eval-split",
                     "all", "--mirror-check"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("accuracy=0.0000 n=")
        assert lines[1] == "mirror_flip_rate=nan"

    def test_empty_manifest(self, tmp_path, tiny_ckpt):
        ds = tmp_path / "empty"
        ds.mkdir()
        (ds / "manifest.tsv").write_text("")
        assert main(["eval", "--ckpt", str(tiny_ckpt), "--data", str(ds)]) == 2

    def test_empty_split_exits_2(self, tmp_path, tiny_ckpt, capsys):
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "5", "--out", str(ds)])
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tiny_ckpt), "--data", str(ds),
                     "--split", "1,0,0"]) == 2
        assert capsys.readouterr().err == "error: split 'test' is empty\n"

    def test_empty_training_split_exits_2_before_out_is_made(self, tmp_path, capsys):
        ds, run = tmp_path / "ds", tmp_path / "run"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "5", "--out", str(ds)])
        capsys.readouterr()
        assert main(["train", "--data", str(ds), "--config", "tiny", "--split", "0,0.5,0.5",
                     "--out", str(run)]) == 2
        assert capsys.readouterr().err == (
            "error: --split 0,0.5,0.5 leaves no training molecule\n")
        assert not run.exists()


class TestEmbedAttn:
    def test_embed_mirror_pair_differs(self, tmp_path, tiny_ckpt, capsys):
        a = tmp_path / "a.chimol"
        b = tmp_path / "b.chimol"
        write(canonical_molecule(), a)
        write(mirror(canonical_molecule()), b)
        out = tmp_path / "emb.csv"
        assert main(["embed", "--ckpt", str(tiny_ckpt), str(a), str(b),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("id,e0")
        v1 = np.array([float(x) for x in lines[1].split(",")[1:]])
        v2 = np.array([float(x) for x in lines[2].split(",")[1:]])
        assert np.linalg.norm(v1 - v2) > 1e-6

    def test_attn_rows(self, tmp_path, tiny_ckpt, canon_file):
        out = tmp_path / "attn.csv"
        assert main(["attn", "--ckpt", str(tiny_ckpt), str(canon_file),
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "id,query,weights"
        assert lines[1].startswith("canon,keys,")
        weights = [float(x) for x in lines[2].split(",")[2:]]
        assert abs(sum(weights) - 1.0) < 1e-9

    def test_an_id_with_a_comma_stays_one_field(self, tmp_path, tiny_ckpt):
        """A molecule whose comment line, its id, holds a comma: each embed
        row has the header's fields and each attn row one field per key
        or weight after its id and query, read back by csv.reader."""
        path = tmp_path / "ala.chimol"
        write(replace(canonical_molecule(), id="alanine, L-form"), path)
        for cmd in ("embed", "attn"):
            out = tmp_path / f"{cmd}.csv"
            assert main([cmd, "--ckpt", str(tiny_ckpt), str(path), "--out", str(out)]) == 0
            with out.open(newline="") as f:
                header, *rows = csv.reader(f)
            assert rows and all(row[0] == "alanine, L-form" for row in rows), cmd
            if cmd == "embed":
                assert [len(row) for row in rows] == [len(header)] == [1 + TINY_CONFIG.h]
            else:
                assert [row[1] for row in rows] == ["keys", "0"]
                assert len(rows[0]) == len(rows[1]) == 2 + 4

    def test_embed_overflowing_kernel_exit_3(self, tmp_path, tiny_ckpt, capsys):
        # finite coordinates scaled by 1e150 overflow the kernel readout of
        # the second molecule; the error names it and the encoder
        mols = gen_rs(SyntheticSpec(count=3, seed=0))
        scaled = mols[1][0]
        mols[1] = (replace(scaled, coords=scaled.coords * 1e150), mols[1][1])
        ds = tmp_path / "ds"
        write_dataset(mols, ds)
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            code = main(["embed", "--ckpt", str(tiny_ckpt), str(ds)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err == (f"numeric error: molecule {scaled.id}: layer 0: non-finite "
                                "attention logits, first non-finite stage output: encoder\n")

    def test_embed_overflow_writes_one_stderr_line(self, tmp_path, tiny_ckpt):
        # as a process, so numpy's RuntimeWarnings would reach stderr
        mols = gen_rs(SyntheticSpec(count=3, seed=0))
        scaled = mols[1][0]
        mols[1] = (replace(scaled, coords=scaled.coords * 1e150), mols[1][1])
        write_dataset(mols, tmp_path / "ds")
        proc = subprocess.run([sys.executable, "-m", "chiraldet.cli", "embed", "--ckpt",
                               str(tiny_ckpt), str(tmp_path / "ds")],
                              env={**os.environ, "PYTHONPATH": str(SRC)},
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (f"numeric error: molecule {scaled.id}: layer 0: non-finite "
                               "attention logits, first non-finite stage output: encoder\n")


def chunked_set(path):
    """2 * EVAL_CHUNK + 1 molecules of 1-3 tiled centres and axes, sizes
    interleaved so that size order is not input order, written as a
    dataset at path; returns them as read back."""
    units = [3, 1, 2, 1, 3, 2, 2, 1, 3, 1, 2, 3, 1, 2, 3, 1, 2]
    assert len(units) == 2 * EVAL_CHUNK + 1
    centres = [m for m, _ in gen_rs(SyntheticSpec(count=20, seed=81, spectator_range=(0, 3)))]
    axes = [m for m, _ in gen_axial(20, seed=82)]
    frags = [f for pair in zip(centres, axes) for f in pair]
    ends = np.cumsum(units)
    mols = [replace(tile_molecules(frags[end - n : end]), id=f"m{i:02d}")
            for i, (n, end) in enumerate(zip(units, ends))]
    write_dataset([(m, Configuration.R) for m in mols], path)
    return [m for m, _ in read_manifest(path)]


class TestChunkedInference:
    """embed and attn run the molecules in size-sorted chunks of
    EVAL_CHUNK, one forward each, and write each molecule's row in input
    order, equal to its one-molecule call but for round-off."""

    @pytest.fixture
    def spied(self, tmp_path, tiny_ckpt, monkeypatch):
        mols = chunked_set(tmp_path / "ds")
        forwards, returned = [], {}
        run_stages = chiraldet.model._run_stages
        monkeypatch.setattr(chiraldet.model, "_run_stages",
                            lambda *args: forwards.append(args) or run_stages(*args))
        for name in ("embed_rows", "attention_export_rows"):
            call = getattr(chiraldet.cli, name)
            monkeypatch.setattr(chiraldet.cli, name, lambda *args, call=call, name=name:
                                returned.setdefault(name, call(*args)))
        return mols, forwards, returned

    def run(self, cmd, tmp_path, tiny_ckpt, forwards):
        out = tmp_path / f"{cmd}.csv"
        assert main([cmd, "--ckpt", str(tiny_ckpt), str(tmp_path / "ds"),
                     "--out", str(out)]) == 0
        assert len(forwards) == math.ceil((2 * EVAL_CHUNK + 1) / EVAL_CHUNK) == 3
        with out.open(newline="") as f:
            return list(csv.reader(f))[1:]

    def test_embed(self, tmp_path, tiny_ckpt, spied):
        mols, forwards, returned = spied
        rows = self.run("embed", tmp_path, tiny_ckpt, forwards)
        vecs = returned["embed_rows"]
        assert [row[0] for row in rows] == [m.id for m in mols]
        assert [row[1:] for row in rows] == [[f"{x:.10g}" for x in v] for v in vecs]
        model, _ = load_checkpoint(tiny_ckpt)
        for mol, vec in zip(mols, vecs):
            alone = embed(model, mol)
            assert np.linalg.norm(vec - alone) <= 1e-13 * np.linalg.norm(alone), mol.id

    def test_attn(self, tmp_path, tiny_ckpt, spied):
        mols, forwards, returned = spied
        rows = self.run("attn", tmp_path, tiny_ckpt, forwards)
        exported = returned["attention_export_rows"]
        assert [row[0] for row in rows if row[1] == "keys"] == [m.id for m in mols]
        assert [row[2:] for row in rows if row[1] == "keys"] == [
            [str(k) for k in keys] for keys, _ in exported]
        model, _ = load_checkpoint(tiny_ckpt)
        for mol, (keys, weights) in zip(mols, exported):
            [(keys_alone, alone)] = attention_export_rows(model, [mol])
            assert keys == keys_alone, mol.id
            assert weights.shape == alone.shape == (len(mol.chiral_units), len(keys))
            for got, want in zip(weights, alone):
                assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want), mol.id


class TestRotateAxis:
    def test_sweep_rows_and_arcs(self, tmp_path, tiny_ckpt, capsys):
        path = tmp_path / "toy.chimol"
        write(toy_axial_molecule(), path)
        assert main(["rotate-axis", str(path), "--ckpt", str(tiny_ckpt),
                     "--step", "20"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 19  # header + 18 conformers
        signs = [int(line.split(",")[2]) for line in lines[1:]]
        changes = sum(1 for i in range(18) if signs[i] != signs[(i + 1) % 18])
        assert changes == 2
        assert signs.count(1) == 9 and signs.count(-1) == 9

    def test_generated_axial_molecule_sweeps(self, tmp_path, tiny_ckpt, capsys):
        # gen --task axial marks the upper blade, so its molecules sweep
        out = tmp_path / "ax"
        assert main(["gen", "--task", "axial", "--count", "4", "--seed", "5",
                     "--out", str(out)]) == 0
        capsys.readouterr()
        assert main(["rotate-axis", str(out / "ax00000.chimol"), "--ckpt", str(tiny_ckpt),
                     "--step", "90"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split(",")[0] for line in lines[1:]] == ["0", "90", "180", "270"]
        assert len({line.split(",")[2] for line in lines[1:]}) == 2


@pytest.mark.parametrize("script", ["rs_benchmark.py", "torsion_analysis.py",
                                    "golden_outputs.py"])
def test_script_help_runs(script):
    # the scripts import the package's API, so an API change that breaks
    # their imports fails here
    proc = subprocess.run([sys.executable, str(SRC.parent / "scripts" / script), "--help"],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "usage:" in proc.stdout


# the flags several commands share, and the ones each command reads
SHARED_FLAGS = ("--seed", "--out", "--config", "--verbose")
COMMAND_FLAGS = {
    "chirality": (),
    "invariance": ("--seed",),
    "gradcheck": ("--seed", "--verbose"),
    "gen": ("--seed", "--out"),
    "train": ("--seed", "--out", "--config"),
    "eval": (),
    "embed": ("--out",),
    "rotate-axis": ("--out",),
    "attn": ("--out",),
}
# a command line of each command that parses, and a value of each flag
COMMAND_ARGV = {
    "chirality": ["chirality", "m.chimol"],
    "invariance": ["invariance", "m.chimol"],
    "gradcheck": ["gradcheck"],
    "gen": ["gen"],
    "train": ["train", "--data", "ds"],
    "eval": ["eval", "--ckpt", "m.ckpt", "--data", "ds"],
    "embed": ["embed", "--ckpt", "m.ckpt", "m.chimol"],
    "rotate-axis": ["rotate-axis", "m.chimol", "--ckpt", "m.ckpt"],
    "attn": ["attn", "--ckpt", "m.ckpt", "m.chimol"],
}
FLAG_VALUES = {"--seed": ["3"], "--out": ["r.txt"], "--config": ["big.cfg"], "--verbose": []}
DROPPED_FLAGS = [(cmd, flag) for cmd, kept in COMMAND_FLAGS.items()
                 for flag in SHARED_FLAGS if flag not in kept]


class TestCliContract:
    @pytest.mark.parametrize("cmd", list(COMMAND_FLAGS))
    def test_help_exits_zero(self, cmd, capsys):
        """Each command's help lists exactly the shared flags it reads."""
        with pytest.raises(SystemExit) as exc:
            main([cmd, "--help"])
        assert exc.value.code == 0
        shown = set(re.findall(r"--[a-z-]+", capsys.readouterr().out)) & set(SHARED_FLAGS)
        assert shown == set(COMMAND_FLAGS[cmd])

    @pytest.mark.parametrize(("cmd", "flag"), DROPPED_FLAGS,
                             ids=[f"{cmd}{flag}" for cmd, flag in DROPPED_FLAGS])
    def test_shared_flag_a_command_does_not_read_exits_2(self, cmd, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*COMMAND_ARGV[cmd], flag, *FLAG_VALUES[flag]])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize(("cmd", "seed"), [("invariance", 0), ("gen", 0), ("train", 0),
                                               ("gradcheck", 1)])
    def test_default_seed(self, cmd, seed):
        """gradcheck's own --seed, the block seed, defaults to 1, as
        run_gradcheck() does; the commands sharing --seed keep 0."""
        assert build_parser().parse_args(COMMAND_ARGV[cmd]).seed == seed

    # README's sizes, cut to a test's: each line must hold its text once
    README_CLI_SMALL = {"--trials 1000": "--trials 5", "--count 2000": "--count 24",
                        "--epochs 6": "--epochs 1", " ...": ""}

    def test_readme_cli_lines_parse(self, tmp_path, monkeypatch, capsys):
        """Every `chiraldet` line of README's CLI code block, without its
        comment, parses, the block shows every command, and the lines run
        in order, in a directory holding README's mol.chimol (a gen_rs
        molecule) and toy.chimol (the axial toy), at the small sizes of
        README_CLI_SMALL. Each exits 0 but the negative control, whose
        comment says it must FAIL, which exits 1."""
        readme = (SRC.parent / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
        lines = [line.partition("#")[::2] for line in block.splitlines()
                 if line.startswith("chiraldet ")]
        for line, _ in lines:
            try:
                build_parser().parse_args(shlex.split(line)[1:])
            except SystemExit:
                pytest.fail(f"README's CLI line {line.strip()!r} does not parse")
        assert {shlex.split(line)[1] for line, _ in lines} == set(COMMAND_FLAGS)
        monkeypatch.chdir(tmp_path)
        write(gen_rs(SyntheticSpec(count=1, seed=0))[0][0], "mol.chimol")
        write(toy_axial_molecule(), "toy.chimol")
        found = dict.fromkeys(self.README_CLI_SMALL, 0)
        for line, comment in lines:
            for big, cut in self.README_CLI_SMALL.items():
                found[big] += line.count(big)
                line = line.replace(big, cut)
            code = main(shlex.split(line)[1:])
            assert code == (1 if "must FAIL" in comment else 0), (line, capsys.readouterr().err)
        assert found == dict.fromkeys(self.README_CLI_SMALL, 1)

    def test_unknown_flag_usage_code(self, canon_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["chirality", str(canon_file), "--frobnicate"])
        assert exc.value.code == 2

    def test_bad_config_key_rejected(self, tmp_path, canon_file):
        cfg = tmp_path / "cfg"
        cfg.write_text("bogus_key=1\n")
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "1", "--out", str(ds)])
        assert main(["train", "--data", str(ds), "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2

    @pytest.mark.parametrize("key", ["margin"])
    def test_inert_margin_key_rejected(self, tmp_path, capsys, key):
        # the ranking margin is a train() argument, not a config key
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key}=0.5\n")
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "1", "--out", str(ds)])
        capsys.readouterr()
        assert main(["train", "--data", str(ds), "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2
        assert f"config key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "r" / "model.ckpt").exists()

    def test_seed_config_key_rejected(self, tmp_path, capsys):
        # only --seed sets the seed
        cfg = tmp_path / "cfg"
        cfg.write_text("seed=7\n")
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "1", "--out", str(ds)])
        capsys.readouterr()
        assert main(["train", "--data", str(ds), "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2
        assert "config key 'seed'" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "lines", ["rank_strategy=regularize\n", "rank_strategy=none\nreg_weight=0.5\n",
                  "reg_weight=0.5\n"],
        ids=["regularize-without-penalty", "none-with-penalty", "qr-with-penalty"],
    )
    def test_rank_strategy_must_agree_with_reg_weight(self, tmp_path, capsys, lines):
        cfg = tmp_path / "cfg"
        cfg.write_text(lines)
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "1", "--out", str(ds)])
        capsys.readouterr()
        assert main(["train", "--data", str(ds), "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "rank_strategy=" in err and "reg_weight" in err
        assert not (tmp_path / "r").exists()

    def test_regularize_with_penalty_trains(self, tmp_path):
        cfg = tmp_path / "cfg"
        cfg.write_text("rank_strategy=regularize\nreg_weight=0.1\nh=8\nd_p=4\n"
                       "n_layers=1\nn_gkpt=8\n")
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "1", "--out", str(ds)])
        assert main(["train", "--data", str(ds), "--config", str(cfg), "--epochs", "1",
                     "--out", str(tmp_path / "r")]) == 0
        assert (tmp_path / "r" / "model.ckpt").exists()

    def test_d_p_3_config_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("d_p=3\n")
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "1", "--out", str(ds)])
        assert main(["train", "--data", str(ds), "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2
        assert "d_p must be >= 4" in capsys.readouterr().err
        assert not (tmp_path / "r" / "model.ckpt").exists()

    @pytest.mark.parametrize(
        ("line", "message"),
        [("h=0", "h must be >= 1"), ("n_heads=0", "n_heads must be >= 1"),
         ("n_gkpt=0", "n_gkpt must be >= 1"), ("n_classes=0", "n_classes must be >= 1"),
         ("batch_size=0", "batch_size must be >= 1"),
         ("batch_size=-3", "batch_size must be >= 1"),
         ("min_lr_factor=-0.1", "min_lr_factor must be in [0, 1]"),
         ("lr=inf", "lr must be finite"), ("reg_weight=nan", "reg_weight must be finite"),
         ("d_f=0", "d_f must be >= 1")],
        ids=["h=0", "n_heads=0", "n_gkpt=0", "n_classes=0", "batch_size=0", "batch_size=-3",
             "min_lr_factor=-0.1", "lr=inf", "reg_weight=nan", "d_f=0"],
    )
    def test_invalid_config_value_rejected(self, tmp_path, capsys, line, message):
        cfg = tmp_path / "cfg"
        cfg.write_text(line + "\n")
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "1", "--out", str(ds)])
        capsys.readouterr()
        assert main(["train", "--data", str(ds), "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r" / "model.ckpt").exists()

    def test_repeated_config_key_names_both_lines(self, tmp_path, capsys):
        # the second line would otherwise override the first without a word
        cfg = tmp_path / "cfg"
        cfg.write_text("lr=0.1\nlr=0.2\n")
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "1", "--out", str(ds)])
        capsys.readouterr()
        assert main(["train", "--data", str(ds), "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2
        assert capsys.readouterr().err == "error: line 2: config key 'lr' repeats line 1\n"
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize("line", ["lr=abc", "epochs=1.5", "h=x", "rank_strategy=qr"],
                             ids=["float", "int-train", "int-model", "rank_strategy"])
    def test_unparsable_config_value_names_key_and_line(self, tmp_path, capsys, line):
        cfg = tmp_path / "cfg"
        cfg.write_text("# model\nn_layers=1\n" + line + "\n")
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "1", "--out", str(ds)])
        capsys.readouterr()
        assert main(["train", "--data", str(ds), "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2
        key, value = line.split("=")
        assert capsys.readouterr().err == (f"error: line 3: config key {key!r} cannot take "
                                           f"the value {value!r}\n")
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(("flags", "name"),
                             [(["--lr", "nan"], "lr"), (["--lr=-inf"], "lr"),
                              (["--epochs", "0"], "epochs"),
                              (["--seed", "-1"], "seed must be >= 0, got -1")],
                             ids=["lr=nan", "lr=-inf", "epochs=0", "seed=-1"])
    def test_invalid_train_flag_rejected_before_output(self, tmp_path, capsys, flags, name):
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "1", "--out", str(ds)])
        capsys.readouterr()
        assert main(["train", "--data", str(ds), "--config", "tiny",
                     "--out", str(tmp_path / "r"), *flags]) == 2
        assert name in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_d_f_mismatch_rejected_before_output(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("d_f=10\n")
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "1", "--out", str(ds)])
        capsys.readouterr()
        assert main(["train", "--data", str(ds), "--config", str(cfg),
                     "--out", str(tmp_path / "r")]) == 2
        err = capsys.readouterr().err
        assert "d_f=10" in err and "width 52" in err
        assert not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        ("edit", "message"),
        [(set_header(b"d_p=4", b"d_p=3"), "d_p must be >= 4"),
         (set_header(b"n_heads=2", b"n_heads=0"), "n_heads must be >= 1"),
         (set_first_beta, "encoder.kernel.beta"),
         # a distance bias that no forward can run is refused on load, an input error
         (set_first_value(b"bias.sigma", 0.0), "bias.sigma[0]"),
         (set_first_value(b"bias.sigma", 1e-7),
          "tensor bias.sigma holds bias.sigma[0] = 1.000e-07, at or below SIGMA_FLOOR"),
         (rename_tensor(b"adam.m.encoder.kernel.w"), "missing tensor adam.m.encoder.kernel.w"),
         (rename_tensor(b"adam.v.encoder.kernel.w"), "missing tensor adam.v.encoder.kernel.w"),
         (set_first_value(b"head.b2", np.nan), "tensor head.b2 holds a non-finite value"),
         (set_first_value(b"layers.1.ff_b2", np.nan),
          "tensor layers.1.ff_b2 holds a non-finite value"),
         (set_first_value(b"adam.m.head.w1", np.inf),
          "tensor adam.m.head.w1 holds a non-finite value"),
         (set_first_value(b"adam.v.layers.0.wq", -1e-12),
          "tensor adam.v.layers.0.wq holds a negative second moment"),
         (set_header(b"step=0", b"step=-1"), "bad header field: step must be >= 0, got -1"),
         (append_tensor(b"bogus.tensor", [1.0]), "tensor bogus.tensor is not in the tensor table"),
         (append_tensor(b"head.b2", [0.0, 0.0]), "tensor head.b2 appears twice in the payload"),
         (insert_header(b"step=0", b"seed=5"),
          "bad header field: 'seed' on line 12 repeats line 10"),
         (insert_header(b"step=0", b"bogus=1"),
          "bad header field: unknown field 'bogus' on line 12"),
         # past the count np.frombuffer takes, an OverflowError
         (set_size(b"head.b2", 2**63), "payload ended early"),
         (set_size(b"head.b2", 2**64 - 1), "payload ended early"),
         # header dimensions the tensor table contradicts, refused before allocation
         (set_header(b"h=8", b"h=1000000"), "tensor encoder.kernel.w has shape (8, 4, 3)"),
         (set_header(b"n_layers=2", b"n_layers=200000"), "holds 2 layers.*.wq tensors"),
         (set_header(b"d_p=4", b"d_p=9999999999999999999"),
          "tensor encoder.kernel.w has shape (8, 4, 3), expected (8, 9999999999999999999, 3)")],
        ids=["d_p=3", "n_heads=0", "beta", "sigma=0", "sigma=1e-7", "adam.m", "adam.v",
             "nan-head", "nan-layer", "inf-adam.m", "negative-adam.v", "step=-1", "extra-tensor",
             "repeated-tensor", "repeated-header-field", "unknown-header-field", "size=2**63",
             "size=2**64-1", "h=1000000", "n_layers=200000", "d_p=1e19"],
    )
    def test_invalid_checkpoint_content_rejected(self, tmp_path, tiny_ckpt, capsys, edit,
                                                 message):
        resign(tiny_ckpt, edit)
        ds = tmp_path / "ds"
        main(["gen", "--task", "rs", "--count", "4", "--seed", "5", "--out", str(ds)])
        capsys.readouterr()
        assert main(["eval", "--ckpt", str(tiny_ckpt), "--data", str(ds)]) == 2
        assert message in capsys.readouterr().err


# stdout of `gradcheck --seed 1` and `--seed 2`, pinned so that a change to
# the audited points or to the arithmetic of an audit shows here; a BLAS
# build that rounds differently may move the last digits
GRADCHECK_STDOUT = {
    "1": """PASS encoder.kernel max_rel_error=4.561e-10
PASS encoder.reg_loss max_rel_error=2.866e-09
PASS numerics.layer_norm max_rel_error=1.036e-09
PASS attention.distance_bias max_rel_error=1.094e-08
PASS attention.layer max_rel_error=3.111e-07
PASS model.predictor max_rel_error=3.590e-08
PASS model.full_loss max_rel_error=7.112e-06
PASS model.rank_loss max_rel_error=5.564e-08
""",
    "2": """PASS encoder.kernel max_rel_error=5.206e-09
PASS encoder.reg_loss max_rel_error=6.851e-10
PASS numerics.layer_norm max_rel_error=2.003e-09
PASS attention.distance_bias max_rel_error=3.631e-06
PASS attention.layer max_rel_error=4.132e-07
PASS model.predictor max_rel_error=2.599e-09
PASS model.full_loss max_rel_error=1.651e-05
PASS model.rank_loss max_rel_error=5.551e-06
""",
}

# finite-difference evaluations per block, two per audited coordinate: what
# the audit covers, whatever its speed
AUDIT_EVALUATIONS = {
    "encoder.kernel": 56,
    "encoder.reg_loss": 48,
    "numerics.layer_norm": 80,
    "attention.distance_bias": 64,
    "attention.layer": 2320,
    "model.predictor": 228,
    "model.full_loss": 7372,
    "model.rank_loss": 170,
}


class TestGradcheckCmd:
    def test_pass_and_negative_control(self, capsys):
        assert main(["gradcheck", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out == GRADCHECK_STDOUT["1"]
        assert out.count("PASS") == len(BLOCKS)
        assert "PASS model.rank_loss" in out
        assert main(["gradcheck", "--seed", "1", "--sabotage", "encoder"]) == 1
        captured = capsys.readouterr()
        assert "FAIL encoder.kernel" in captured.out
        assert "encoder" in captured.err
        # FAIL lines name the worst audited entry; PASS lines stay as pinned
        lines = captured.out.splitlines()
        assert [line for line in lines if line.startswith("FAIL")] == [
            "FAIL encoder.kernel max_rel_error=7.558e-02 worst=w[0, 1, 2]",
            "FAIL encoder.reg_loss max_rel_error=8.408e-02 worst=w[1, 2, 1]",
        ]
        assert [line for line in lines if line.startswith("PASS")] == [
            line for line in GRADCHECK_STDOUT["1"].splitlines()
            if not line.startswith("PASS encoder.")
        ]

    def test_bare_gradcheck_audits_block_seed_1(self, capsys):
        assert main(["gradcheck"]) == 0
        assert capsys.readouterr().out == GRADCHECK_STDOUT["1"]

    @pytest.mark.parametrize("seed", [0, 2])
    def test_audits_the_points_of_run_gradcheck(self, seed, capsys):
        """`gradcheck --seed N` prints the reports of run_gradcheck(seed=N):
        TINY_CONFIG's model at block seed N."""
        reports = run_gradcheck(seed=seed)
        assert all(r.passed for r in reports)
        assert main(["gradcheck", "--seed", str(seed)]) == 0
        assert capsys.readouterr().out == "".join(
            f"PASS {r.name} max_rel_error={r.max_rel_error:.3e}\n" for r in reports)

    def test_repeat_runs_identical(self, capsys):
        main(["gradcheck", "--seed", "2"])
        first = capsys.readouterr().out
        assert first == GRADCHECK_STDOUT["2"]
        # --verbose adds each block's wall time on stderr and leaves stdout be
        main(["gradcheck", "--seed", "2", "--verbose"])
        captured = capsys.readouterr()
        assert captured.out == first
        timings = captured.err.splitlines()
        assert [line.split(" took ")[0] for line in timings] == list(BLOCKS)
        assert all(line.endswith(" s") and float(line.split()[-2]) >= 0.0 for line in timings)
        # two evaluations per audited coordinate, next to the wall time
        assert [int(line.split(" took ")[1].split()[0]) for line in timings] == list(
            AUDIT_EVALUATIONS.values())

    @pytest.mark.parametrize(("flag", "value", "message"), [
        ("--tol", "-1", "tolerance must be finite and positive"),
        ("--tol", "nan", "tolerance must be finite and positive"),
        ("--tol", "inf", "tolerance must be finite and positive"),
        ("--tol", "0", "tolerance must be finite and positive"),
        ("--sabotage", "encodr", "sabotage prefix 'encodr' matches no audit block; blocks: "
                                 + ", ".join(BLOCKS)),
        ("--sabotage", "", "sabotage prefix '' matches no audit block"),
        # -5 plus each block's offset still seeds a generator; -999 plus the
        # first block's does not
        ("--seed", "-5", "seed must be a non-negative integer, got -5"),
        ("--seed", "-999", "seed must be a non-negative integer, got -999"),
    ], ids=["tol-negative", "tol-nan", "tol-inf", "tol-zero", "sabotage-typo",
            "sabotage-empty", "seed-minus-5", "seed-minus-999"])
    def test_bad_tol_or_sabotage_exit_2_before_any_block(self, capsys, monkeypatch, flag, value,
                                                          message):
        def no_block(name, seed):
            raise AssertionError(f"block {name} ran")

        monkeypatch.setattr(chiraldet.gradcheck, "block_rng", no_block)
        assert main(["gradcheck", "--seed", "1", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_output_independent_of_hash_seed(self):
        # block seeds must not depend on Python's per-process str hashing
        env = {**os.environ, "PYTHONPATH": str(SRC)}
        cmd = [sys.executable, "-m", "chiraldet.cli", "gradcheck", "--seed", "1"]
        procs = [
            subprocess.Popen(cmd, env={**env, "PYTHONHASHSEED": hs},
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
            for hs in ("1", "2")
        ]
        outs = [p.communicate(timeout=600) for p in procs]
        assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
        assert outs[0][0].count("PASS") == len(BLOCKS)
        assert outs[0][0] == outs[1][0]
