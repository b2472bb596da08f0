import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraldet.data import (
    FEATURE_WIDTH,
    SyntheticSpec,
    featurize,
    gen_axial,
    gen_axial_torsion,
    gen_rs,
    parse,
    read_manifest,
    tile_molecules,
    toy_axial_molecule,
    write,
    write_dataset,
)
from chiraldet.errors import AnnotationError, MoleculeParseError
from chiraldet.geometry import (
    Configuration,
    UnitKind,
    assign_configuration,
    atom_roles,
    mirror,
    unit_atoms,
    unit_products,
)

MINIMAL_FILE = """5
canonical
C 0.0 0.0 0.0
N 1.0 0.0 0.0
O 0.0 1.0 0.0
F 0.0 0.0 -0.5
P 0.0 0.0 0.5
CHIRAL center 0 1 2 3 4 1 2 3 4
"""


@pytest.fixture
def minimal_path(tmp_path):
    p = tmp_path / "canonical.chimol"
    p.write_text(MINIMAL_FILE)
    return p


class TestParse:
    def test_minimal_file(self, minimal_path):
        mol = parse(minimal_path)
        assert mol.n_atoms == 5
        assert mol.id == "canonical"
        assert len(mol.chiral_units) == 1
        assert mol.chiral_units[0].related == (1, 2, 3, 4)
        roles = atom_roles(mol.n_atoms, *unit_atoms(mol.chiral_units))
        assert np.array_equal(np.bincount(roles, minlength=3), [0, 4, 1])
        assert unit_products(mol)[0] == 1.0

    def test_out_of_range_index_reports_line(self, tmp_path):
        p = tmp_path / "bad.chimol"
        p.write_text("2\n\nC 0 0 0\nC 1 0 0\nCHIRAL center 0 7 1 1 1\n")
        with pytest.raises(MoleculeParseError) as err:
            parse(p)
        assert err.value.line == 5

    def test_priorities_reorder_related(self, tmp_path):
        p = tmp_path / "reorder.chimol"
        p.write_text(
            "5\n\nC 0 0 0\nN 1 0 0\nO 0 1 0\nF 0 0 -0.5\nP 0 0 0.5\n"
            "CHIRAL center 0 1 2 3 4 1 4 2 5\n"
        )
        assert parse(p).chiral_units[0].related == (1, 3, 2, 4)

    def test_default_priorities_are_atomic_numbers(self, tmp_path):
        p = tmp_path / "default.chimol"
        p.write_text(
            "5\n\nC 0 0 0\nP 1 0 0\nO 0 1 0\nF 0 0 -0.5\nN 0 0 0.5\n"
            "CHIRAL center 0 1 2 3 4\n"
        )
        # N(7) < O(8) < F(9) < P(15)
        assert parse(p).chiral_units[0].related == (4, 2, 3, 1)

    def test_priority_tie_rejected(self, tmp_path):
        p = tmp_path / "tie.chimol"
        p.write_text(MINIMAL_FILE.replace("1 2 3 4\n", "1 1 3 4\n"))
        with pytest.raises(MoleculeParseError):
            parse(p)

    def test_duplicate_center_rejected(self, tmp_path):
        p = tmp_path / "dup.chimol"
        p.write_text(
            "6\n\nC 0 0 0\nN 1 0 0\nO 0 1 0\nF 0 0 -0.5\nP 0 0 0.5\nS 2 2 2\n"
            "CHIRAL center 0 1 2 3 4\nCHIRAL center 0 1 2 3 5\n"
        )
        with pytest.raises(MoleculeParseError):
            parse(p)

    def test_second_blade_line_rejected(self, tmp_path):
        # a written toy with one more BLADE line: the second would override the first
        p = tmp_path / "blades.chimol"
        write(toy_axial_molecule(), p)
        text = p.read_text()
        assert "BLADE 3 5\n" in text
        p.write_text(text + "BLADE 2 4\n")
        second = len(text.splitlines()) + 1
        with pytest.raises(MoleculeParseError,
                           match=f"^line {second}: second BLADE line, the first is line "
                                 f"{second - 1}$") as err:
            parse(p)
        assert err.value.line == second

    def test_malformed_atom_line(self, tmp_path):
        p = tmp_path / "atom.chimol"
        p.write_text("1\n\nC 0 zero 0\n")
        with pytest.raises(MoleculeParseError) as err:
            parse(p)
        assert err.value.line == 3

    def test_first_bad_atom_line_is_named(self, tmp_path):
        # each atom line is checked in full before the next is read, so a
        # non-finite coordinate on line 3 is named before line 5's symbol
        p = tmp_path / "atoms.chimol"
        p.write_text("3\n\nC 0 inf 0\nN 1 0 0\nXx 0 1 0\n")
        with pytest.raises(MoleculeParseError, match="^line 3: non-finite coordinate$"):
            parse(p)

    def test_unknown_annotation_rejected(self, tmp_path):
        p = tmp_path / "junk.chimol"
        p.write_text("1\n\nC 0 0 0\nWHAT 1 2\n")
        with pytest.raises(MoleculeParseError):
            parse(p)

    def test_round_trip(self, minimal_path, tmp_path):
        mol = parse(minimal_path)
        out = tmp_path / "rt.chimol"
        write(mol, out)
        back = parse(out)
        assert np.allclose(back.coords, mol.coords, atol=1e-9)
        assert back.chiral_units == mol.chiral_units
        assert np.array_equal(back.atomic_numbers, mol.atomic_numbers)
        assert back.blade == mol.blade

    def test_write_parse_write_keeps_the_bytes(self, tmp_path):
        # an axis with a blade, a tiled centre pair and a -0.0 coordinate
        tiled = tile_molecules([m for m, _ in gen_rs(SyntheticSpec(count=2, seed=4,
                                                                  spectator_range=(0, 3)))])
        mols = [toy_axial_molecule(), replace(tiled, id="tiled")]
        mols[1].coords[0, 2] = -0.0
        for i, mol in enumerate(mols):
            first, second = tmp_path / f"{i}a.chimol", tmp_path / f"{i}b.chimol"
            write(mol, first)
            write(parse(first), second)
            assert second.read_bytes() == first.read_bytes()


class TestFeatures:
    def test_width_and_one_hot_blocks(self):
        assert FEATURE_WIDTH == 52
        (vec,) = featurize([6])
        assert vec.shape == (52,)
        blocks = [32, 6, 5, 5, 4]
        offset = 0
        for width in blocks:
            assert vec[offset : offset + width].sum() == 1.0
            assert vec[offset + (2 if width == 32 else 0)] == 1.0  # C slot, zero classes
            offset += width

    def test_position_independent_and_deterministic(self):
        rows = featurize([8, 6, 8])
        assert rows.shape == (3, 52)
        assert np.array_equal(rows[0], rows[2])
        assert not np.array_equal(rows[0], rows[1])

    def test_unknown_element_goes_to_last_slot(self):
        (vec,) = featurize([99])
        assert vec[31] == 1.0


class TestGenRs:
    def test_exact_balance_count2(self):
        labels = [lab for _, lab in gen_rs(SyntheticSpec(count=2, seed=61))]
        assert sorted(l.value for l in labels) == ["R", "S"]

    @pytest.mark.parametrize("product", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_min_product_rejected(self, product):
        # a NaN floor would keep every draw, an infinite one exhaust the budget
        with pytest.raises(ValueError, match="^min_abs_product must be > 0 and finite, got "):
            gen_rs(SyntheticSpec(count=4, min_abs_product=product))

    def test_min_product_respected(self):
        spec = SyntheticSpec(count=30, seed=11)
        for mol, _ in gen_rs(spec):
            assert abs(unit_products(mol)[0]) >= spec.min_abs_product

    def test_labels_match_product_oracle(self):
        for mol, label in gen_rs(SyntheticSpec(count=30, seed=5)):
            assert assign_configuration(unit_products(mol)[0]) is label

    def test_even_counts_balanced(self):
        labels = [lab for _, lab in gen_rs(SyntheticSpec(count=20, seed=2))]
        assert labels.count(Configuration.R) == labels.count(Configuration.S) == 10

    def test_write_parse_fixpoint(self, tmp_path):
        dataset = gen_rs(SyntheticSpec(count=4, seed=9))
        manifest = write_dataset(dataset, tmp_path / "ds")
        loaded = read_manifest(manifest)
        assert len(loaded) == 4
        for (mol, label), (mol2, label2) in zip(dataset, loaded):
            assert label is label2
            assert np.allclose(mol.coords, mol2.coords, atol=1e-9)
            assert mol.chiral_units == mol2.chiral_units

    @given(st.integers(0, 1000))
    @settings(max_examples=10, deadline=None)
    def test_prefix_stability(self, seed):
        for generate in (lambda n: gen_rs(SyntheticSpec(count=n, seed=seed)),
                         lambda n: gen_axial(n, seed=seed)):
            a, b = generate(2), generate(4)
            for (m1, l1), (m2, l2) in zip(a, b):
                assert l1 is l2
                assert np.array_equal(m1.coords, m2.coords)


class TestEnantiomer:
    def test_involution_and_flip(self):
        mol, _ = gen_rs(SyntheticSpec(count=1, seed=3))[0]
        ent = mirror(mol)
        assert unit_products(ent)[0] == -unit_products(mol)[0]
        back = mirror(ent)
        assert np.array_equal(back.coords, mol.coords)
        assert ent.chiral_units == mol.chiral_units


class TestAxialTorsion:
    def test_18_conformers(self):
        assert len(gen_axial_torsion(toy_axial_molecule(), 20.0)) == 18

    def test_step_360_is_base(self):
        toy = toy_axial_molecule()
        confs = gen_axial_torsion(toy, 360.0)
        assert len(confs) == 1
        assert np.array_equal(confs[0].coords, toy.coords)

    def test_two_arcs_of_nine(self):
        confs = gen_axial_torsion(toy_axial_molecule(), 20.0)
        signs = [int(np.sign(unit_products(c)[0])) for c in confs]
        assert all(s != 0 for s in signs)
        changes = sum(1 for i in range(18) if signs[i] != signs[(i + 1) % 18])
        assert changes == 2
        assert signs.count(1) == 9 and signs.count(-1) == 9

    def test_blade_distances_rigid(self):
        toy = toy_axial_molecule()
        blade = list(toy.blade)
        base_d = np.linalg.norm(toy.coords[blade[0]] - toy.coords[blade[1]])
        for conf in gen_axial_torsion(toy, 20.0):
            d = np.linalg.norm(conf.coords[blade[0]] - conf.coords[blade[1]])
            assert abs(d - base_d) < 1e-10

    def test_bad_step_rejected(self):
        with pytest.raises(ValueError):
            gen_axial_torsion(toy_axial_molecule(), 50.0)

    @pytest.mark.parametrize(("step", "count"), [(7.2, 50), (3.6, 100), (0.9, 400)])
    def test_step_dividing_360_under_round_off_accepted(self, step, count):
        # 360.0 % 7.2 is 7.1999..., not 0, yet 50 steps of 7.2 make the turn
        assert len(gen_axial_torsion(toy_axial_molecule(), step)) == count

    @pytest.mark.parametrize("step", [7.0, 0.0, -20.0, float("nan"), float("inf"), 1000.0])
    def test_step_not_dividing_360_rejected(self, step):
        with pytest.raises(ValueError, match="^step must divide 360, got "):
            gen_axial_torsion(toy_axial_molecule(), step)

    def test_blade_on_both_sides_rejected(self):
        toy = toy_axial_molecule()
        bad = toy.__class__(
            coords=toy.coords,
            atomic_numbers=toy.atomic_numbers,
            features=toy.features,
            chiral_units=toy.chiral_units,
            id=toy.id,
            blade=(2, 3),  # one lower, one upper atom
        )
        with pytest.raises(AnnotationError):
            gen_axial_torsion(bad, 20.0)

    def test_blade_with_axis_atom_rejected(self):
        toy = toy_axial_molecule()
        bad = toy.__class__(
            coords=toy.coords,
            atomic_numbers=toy.atomic_numbers,
            features=toy.features,
            chiral_units=toy.chiral_units,
            id=toy.id,
            blade=(1, 3, 5),
        )
        with pytest.raises(AnnotationError):
            gen_axial_torsion(bad, 20.0)


class TestGenAxial:
    def test_balanced_and_labeled_by_product(self):
        dataset = gen_axial(12, seed=7)
        labels = [lab for _, lab in dataset]
        assert labels.count(Configuration.R) == labels.count(Configuration.S) == 6
        for mol, label in dataset:
            assert assign_configuration(unit_products(mol)[0]) is label
            assert mol.chiral_units[0].kind is UnitKind.AXIS

    @pytest.mark.parametrize(
        "kwargs",
        [dict(count=0), dict(min_abs_product=0.0), dict(min_abs_product=-1.0),
         dict(min_abs_product=math.nan), dict(min_abs_product=math.inf),
         dict(spectator_range=(0, -1))],
        ids=["count", "product=0", "product<0", "product=nan", "product=inf", "spectators"],
    )
    def test_invalid_arguments_rejected(self, kwargs):
        with pytest.raises(ValueError):
            gen_axial(**{"count": 4, **kwargs})

    def test_round_trip_through_files(self, tmp_path):
        dataset = gen_axial(3, seed=1)
        manifest = write_dataset(dataset, tmp_path / "ax")
        loaded = read_manifest(manifest)
        for (mol, _), (mol2, _) in zip(dataset, loaded):
            assert np.allclose(mol.coords, mol2.coords, atol=1e-9)


class TestManifest:
    def test_empty_manifest_rejected(self, tmp_path):
        d = tmp_path / "empty"
        d.mkdir()
        (d / "manifest.tsv").write_text("")
        with pytest.raises(MoleculeParseError):
            read_manifest(d)

    @pytest.mark.parametrize("label", ["degenerate", "X", "r"])
    def test_label_other_than_r_or_s_rejected(self, tmp_path, label):
        """A degenerate molecule has no class, so a manifest may not label
        one: train would fail on it only at its first step."""
        manifest = write_dataset(gen_rs(SyntheticSpec(count=3, seed=2)), tmp_path / "ds")
        lines = manifest.read_text().splitlines()
        lines[1] = lines[1].replace("\tS\t", f"\t{label}\t")
        manifest.write_text("\n".join(lines) + "\n")
        with pytest.raises(MoleculeParseError, match=f"^line 2: label '{label}' is not R or S$"):
            read_manifest(manifest)

    def test_repeated_id_rejected_before_anything_is_written(self, tmp_path):
        """Two items of one id would share one file, so the R item would
        read back as the S molecule."""
        (r_mol, r), (s_mol, s) = gen_rs(SyntheticSpec(count=2, seed=2))
        assert (r, s) == (Configuration.R, Configuration.S)
        dataset = [(r_mol, r), (replace(s_mol, id=r_mol.id), s)]
        with pytest.raises(AnnotationError,
                           match=f"^item 1: id '{r_mol.id}' repeats an earlier item's$"):
            write_dataset(dataset, tmp_path / "ds")
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("mol_id", ["../x", "a\tb", "a\nb", "a\rb"],
                             ids=["separator", "tab", "newline", "carriage-return"])
    def test_id_that_breaks_its_file_or_line_rejected(self, tmp_path, mol_id):
        """An id with a path separator would write outside the dataset
        directory, and one with a tab or a line break would write a manifest
        line that read_manifest refuses."""
        dataset = gen_rs(SyntheticSpec(count=3, seed=2))
        dataset[2] = (replace(dataset[2][0], id=mol_id), dataset[2][1])
        with pytest.raises(AnnotationError, match=r"^item 2: id .* holds a path separator, "
                                                  r"a tab or a line break$"):
            write_dataset(dataset, tmp_path / "ds")
        assert list(tmp_path.iterdir()) == []
