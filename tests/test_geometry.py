import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chiraldet.errors import AnnotationError
from chiraldet.geometry import (
    ChiralUnit,
    Configuration,
    Molecule,
    UnitKind,
    assign_configuration,
    atom_roles,
    chirality_matrices,
    mirror,
    order_substituents,
    random_reflection,
    random_rotation,
    reference_point,
    transform,
    unit_atoms,
    unit_products,
)
from oracles import partition_reference, unit_reference


def make_molecule(coords, units=(), blade=None):
    coords = np.asarray(coords, dtype=np.float64)
    n = coords.shape[0]
    return Molecule(
        coords=coords,
        atomic_numbers=np.full(n, 6),
        features=np.zeros((n, 4)),
        chiral_units=tuple(units),
        blade=blade,
    ).validate()


def center_unit(center, related):
    return ChiralUnit(kind=UnitKind.CENTER, center_atoms=(center,), related=tuple(related))


CANONICAL_COORDS = [
    (0.0, 0.0, 0.0),  # center
    (1.0, 0.0, 0.0),  # r1
    (0.0, 1.0, 0.0),  # r2
    (0.0, 0.0, -0.5),  # r3
    (0.0, 0.0, 0.5),  # r4
]


def canonical_molecule():
    return make_molecule(CANONICAL_COORDS, [center_unit(0, (1, 2, 3, 4))])


def random_chiral_molecule(rng, min_product=0.1):
    while True:
        coords = rng.uniform(-2.0, 2.0, size=(5, 3))
        mol = make_molecule(coords, [center_unit(0, (1, 2, 3, 4))])
        if abs(unit_products(mol)[0]) >= min_product:
            return mol


def roles_of(mol):
    return atom_roles(mol.n_atoms, *unit_atoms(mol.chiral_units))


def matrix_of(unit, coords):
    """The (3, 3) chirality matrix of one unit."""
    return chirality_matrices(coords, *unit_atoms([unit]))[0][0]


class TestPartition:
    def test_five_atom_center(self):
        assert np.array_equal(roles_of(canonical_molecule()), [2, 1, 1, 1, 1])

    def test_no_units(self):
        assert np.array_equal(roles_of(make_molecule(np.zeros((3, 3)))), [0, 0, 0])

    def test_two_units_shared_related_atom(self):
        units = [center_unit(0, (2, 3, 4, 5)), center_unit(1, (2, 5, 6, 7))]
        mol = make_molecule(np.arange(24.0).reshape(8, 3), units)
        roles = roles_of(mol)
        # set-arithmetic oracle over the explicit index lists
        chiral, related, nonchiral = partition_reference(mol)
        assert (chiral, related, nonchiral) == ((0, 1), (2, 3, 4, 5, 6, 7), ())
        for role, atoms in enumerate((nonchiral, related, chiral)):
            assert tuple(np.flatnonzero(roles == role)) == atoms

    def test_related_atom_that_centers_another_unit_goes_chiral(self):
        units = [center_unit(0, (1, 2, 3, 4)), center_unit(1, (2, 5, 6, 7))]
        mol = make_molecule(np.arange(24.0).reshape(8, 3), units)
        assert roles_of(mol)[1] == 2

    def test_overlapping_centers_rejected(self):
        units = [center_unit(0, (1, 2, 3, 4)), center_unit(0, (1, 2, 3, 5))]
        with pytest.raises(AnnotationError, match=r"^center atoms \[0\] appear in more than one"):
            atom_roles(6, *unit_atoms(units))
        mol = Molecule(
            coords=np.zeros((6, 3)),
            atomic_numbers=np.full(6, 6),
            features=np.zeros((6, 4)),
            chiral_units=tuple(units),
        )
        with pytest.raises(AnnotationError, match=r"^center atoms \[0\] appear in more than one"):
            mol.validate()

    def test_axis_atom_shared_with_a_centre_rejected(self):
        units = [ChiralUnit(kind=UnitKind.AXIS, center_atoms=(0, 1), related=(2, 3, 4, 5)),
                 center_unit(1, (2, 3, 4, 5))]
        with pytest.raises(AnnotationError, match=r"^center atoms \[1\] appear"):
            atom_roles(6, *unit_atoms(units))


class TestReferencePoint:
    def test_center_identity(self):
        unit = center_unit(0, (1, 2, 3, 4))
        coords = np.array([[1.0, 2.0, 3.0]] + [[0.0, 0.0, 0.0]] * 4)
        assert np.array_equal(reference_point(unit, coords), [1.0, 2.0, 3.0])

    def test_axis_midpoint(self):
        unit = ChiralUnit(kind=UnitKind.AXIS, center_atoms=(0, 1), related=(2, 3, 4, 5))
        coords = np.zeros((6, 3))
        coords[1] = [2.0, 0.0, 0.0]
        assert np.array_equal(reference_point(unit, coords), [1.0, 0.0, 0.0])

    def test_axis_mean_oracle(self):
        unit = ChiralUnit(kind=UnitKind.AXIS, center_atoms=(0, 1), related=(2, 3, 4, 5))
        coords = np.zeros((6, 3))
        coords[0] = [-1.0, 4.0, 2.0]
        coords[1] = [3.0, -2.0, 0.0]
        expect = (coords[0] + coords[1]) / 2.0
        assert np.array_equal(reference_point(unit, coords), expect)
        assert np.array_equal(expect, [1.0, 1.0, 1.0])


class TestChiralityMatrix:
    def test_canonical_frame(self):
        mc = matrix_of(center_unit(0, (1, 2, 3, 4)), CANONICAL_COORDS)
        assert np.array_equal(mc, np.eye(3))

    def test_translation_cancels(self):
        shifted = np.asarray(CANONICAL_COORDS) + 5.0
        mc = matrix_of(center_unit(0, (1, 2, 3, 4)), shifted)
        assert np.allclose(mc, np.eye(3), atol=1e-12)

    def test_rowwise_subtraction_oracle(self):
        rng = np.random.default_rng(7)
        coords = rng.uniform(-3.0, 3.0, size=(5, 3))
        unit = center_unit(0, (1, 2, 3, 4))
        mc = matrix_of(unit, coords)
        expect = np.array(
            [coords[1] - coords[0], coords[2] - coords[0], coords[4] - coords[3]]
        )
        assert np.array_equal(mc, expect)


    def test_centres_and_axes_in_one_call(self):
        rng = np.random.default_rng(8)
        coords = rng.uniform(-3.0, 3.0, size=(9, 3))
        units = [center_unit(0, (1, 2, 3, 4)),
                 ChiralUnit(kind=UnitKind.AXIS, center_atoms=(5, 6), related=(1, 7, 8, 0)),
                 center_unit(7, (0, 5, 6, 8))]
        mats, refs = chirality_matrices(coords, *unit_atoms(units))
        for unit, mc, ref in zip(units, mats, refs):
            want_ref, want_mc, _ = unit_reference(unit, coords, np.zeros((9, 1)))
            assert np.array_equal(ref, want_ref)
            assert np.array_equal(mc, want_mc)


def cross_dot(m):
    """Signed volume ((r1-ref) x (r2-ref)) . (r4-r3) of a chirality matrix."""
    return float(np.dot(np.cross(m[0], m[1]), m[2]))


def unit_with_rows(m):
    """A one-center molecule whose chirality matrix is m."""
    coords = np.vstack([np.zeros(3), m[0], m[1], np.zeros(3), m[2]])
    return make_molecule(coords, [center_unit(0, (1, 2, 3, 4))])


class TestChiralityProduct:
    # unit_products is det(M) by the cofactor expansion of det3_batch; the
    # cross/dot signed volume is the oracle
    def test_identity_rows(self):
        assert unit_products(unit_with_rows(np.eye(3))) == [1.0]

    def test_single_reflection(self):
        assert unit_products(unit_with_rows(np.diag([1.0, 1.0, -1.0]))) == [-1.0]

    def test_cross_dot_matches_cofactor_seed11(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((3, 3))
        mol = unit_with_rows(m)
        assert np.array_equal(matrix_of(mol.chiral_units[0], mol.coords), m)
        (p,) = unit_products(mol)
        expect = cross_dot(m)
        assert abs(p - expect) <= 1e-12 * abs(expect)

    @given(st.integers(0, 100_000))
    @settings(max_examples=100, deadline=None)
    def test_cross_dot_vs_cofactor_property(self, seed):
        m = np.random.default_rng(seed).standard_normal((3, 3))
        (p,) = unit_products(unit_with_rows(m))
        assert abs(p - cross_dot(m)) <= 1e-12 * max(1.0, abs(p))


class TestAssignConfiguration:
    def test_positive_is_r(self):
        assert assign_configuration(2.5, 1e-9) is Configuration.R

    def test_negative_is_s(self):
        assert assign_configuration(-0.3, 1e-9) is Configuration.S

    def test_below_tolerance_degenerate(self):
        assert assign_configuration(1e-12, 1e-9) is Configuration.DEGENERATE

    def test_negative_tol_rejected(self):
        with pytest.raises(ValueError):
            assign_configuration(1.0, -1.0)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf")])
    def test_non_finite_tol_rejected(self, tol):
        with pytest.raises(ValueError, match="^tolerance must be finite and non-negative"):
            assign_configuration(1.0, tol)


class TestTransform:
    def test_identity_bitwise(self):
        mol = canonical_molecule()
        out = transform(mol, np.eye(3), np.zeros(3))
        assert np.array_equal(out.coords, mol.coords)

    def test_reflection_flips_product(self):
        mol = canonical_molecule()
        out = transform(mol, np.diag([1.0, 1.0, -1.0]), np.zeros(3))
        assert unit_products(mol)[0] == 1.0
        assert unit_products(out)[0] == -1.0

    def test_rigid_motion_preserves_product_seed3(self):
        rng = np.random.default_rng(3)
        rot = random_rotation(rng)
        t = rng.uniform(-10.0, 10.0, size=3)
        mol = random_chiral_molecule(rng)
        p0 = unit_products(mol)[0]
        p1 = unit_products(transform(mol, rot, t))[0]
        assert abs(p1 - p0) / abs(p0) < 1e-10

    def test_nonorthogonal_rejected(self):
        with pytest.raises(ValueError):
            transform(canonical_molecule(), np.eye(3) * 1.5, np.zeros(3))

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_invariance_property(self, seed):
        rng = np.random.default_rng(seed)
        mol = random_chiral_molecule(rng)
        rot = random_rotation(rng)
        t = rng.uniform(-20.0, 20.0, size=3)
        p0 = unit_products(mol)[0]
        p1 = unit_products(transform(mol, rot, t))[0]
        assert abs(p1 - p0) / abs(p0) < 1e-10

    @given(st.integers(0, 100_000))
    @settings(max_examples=60, deadline=None)
    def test_reflection_flip_property(self, seed):
        rng = np.random.default_rng(seed)
        mol = random_chiral_molecule(rng)
        refl = random_reflection(rng)
        p0 = unit_products(mol)[0]
        p1 = unit_products(transform(mol, refl, np.zeros(3)))[0]
        assert abs(p1 + p0) <= 1e-12 * abs(p0)


class TestBulkInvariance:
    def test_thousand_units_thousand_rigid_pairs(self):
        # vectorized: each unit gets its own random rotation + translation
        rng = np.random.default_rng(77)
        coords = np.empty((1000, 5, 3))
        n = 0
        while n < 1000:
            c = rng.uniform(-2.0, 2.0, size=(5, 3))
            p = np.dot(np.cross(c[1] - c[0], c[2] - c[0]), c[4] - c[3])
            if abs(p) >= 0.1:
                coords[n] = c
                n += 1
        base = np.einsum(
            "ni,ni->n",
            np.cross(coords[:, 1] - coords[:, 0], coords[:, 2] - coords[:, 0]),
            coords[:, 4] - coords[:, 3],
        )
        rots = np.stack([random_rotation(rng) for _ in range(1000)])
        trans = rng.uniform(-10.0, 10.0, size=(1000, 1, 3))
        moved = np.einsum("nij,nkj->nki", rots, coords) + trans
        prods = np.einsum(
            "ni,ni->n",
            np.cross(moved[:, 1] - moved[:, 0], moved[:, 2] - moved[:, 0]),
            moved[:, 4] - moved[:, 3],
        )
        assert np.max(np.abs(prods - base) / np.abs(base)) < 1e-10


class TestMirror:
    def test_canonical_flips_to_minus_one(self):
        assert unit_products(mirror(canonical_molecule()))[0] == -1.0

    def test_involution(self):
        mol = random_chiral_molecule(np.random.default_rng(44))
        assert np.array_equal(mirror(mirror(mol)).coords, mol.coords)

    def test_products_negate_exactly_seed5(self):
        rng = np.random.default_rng(5)
        units = [center_unit(0, (1, 2, 3, 4)), center_unit(5, (6, 7, 8, 9))]
        mol = make_molecule(rng.uniform(-2.0, 2.0, size=(10, 3)), units)
        orig = unit_products(mol)
        flipped = unit_products(mirror(mol))
        for a, b in zip(orig, flipped):
            assert b == -a  # exact negation, 0 ulp

    def test_labels_flip_when_nondegenerate(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            mol = random_chiral_molecule(rng)
            lab = assign_configuration(unit_products(mol)[0])
            lab_m = assign_configuration(unit_products(mirror(mol))[0])
            assert {lab, lab_m} == {Configuration.R, Configuration.S}


class TestOrderSubstituents:
    def test_cip_example(self):
        # indices (A, B, C, D) = (10, 11, 12, 13) with priorities (1, 4, 2, 5)
        assert order_substituents((10, 11, 12, 13), (1.0, 4.0, 2.0, 5.0)) == (10, 12, 11, 13)

    def test_already_ascending(self):
        assert order_substituents((3, 1, 4, 2), (0.1, 0.2, 0.3, 0.4)) == (3, 1, 4, 2)

    def test_all_24_input_orderings_agree(self):
        import itertools

        indices = (7, 3, 9, 5)
        priorities = (2.0, 8.0, 1.0, 4.0)
        expected = order_substituents(indices, priorities)
        for perm in itertools.permutations(range(4)):
            shuffled_idx = tuple(indices[i] for i in perm)
            shuffled_pri = tuple(priorities[i] for i in perm)
            assert order_substituents(shuffled_idx, shuffled_pri) == expected

    @given(st.permutations(list(range(4))), st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_permutation_invariant_random_priorities(self, perm, seed):
        rng = np.random.default_rng(seed)
        indices = tuple(int(i) for i in rng.choice(50, size=4, replace=False))
        priorities = tuple(float(p) for p in rng.standard_normal(4))
        shuffled_idx = tuple(indices[i] for i in perm)
        shuffled_pri = tuple(priorities[i] for i in perm)
        assert order_substituents(shuffled_idx, shuffled_pri) == order_substituents(
            indices, priorities
        )

    def test_tie_broken_by_index(self):
        assert order_substituents((9, 2, 5, 7), (1.0, 1.0, 0.5, 2.0)) == (5, 2, 9, 7)

    def test_duplicate_index_rejected(self):
        with pytest.raises(AnnotationError):
            order_substituents((1, 1, 2, 3), (1.0, 1.0, 2.0, 3.0))
