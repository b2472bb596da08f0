"""Molecule containers, chirality matrices, and the exact sign oracle.

A stereogenic unit is read in one index form, centre and axis alike:
unit_atoms gives each unit two centre atoms (a centre repeats its atom)
and four related atoms. chirality_matrices builds every unit's matrix and
reference point from those index arrays, and serves the batch encoder, the
R/S oracle unit_products and the generators' rejection test; atom_roles
splits atoms into chiral, related and non-chiral.

All geometry is plain float64 numpy. Molecules are treated as immutable
after construction; every operation returns new arrays, which makes the
whole module safe to use from multiple threads.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from .errors import AnnotationError
from .numerics import det3_batch


class UnitKind(Enum):
    CENTER = "center"
    AXIS = "axis"


class Configuration(Enum):
    R = "R"
    S = "S"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class ChiralUnit:
    """One stereogenic unit: a tetrahedral center or a stereogenic axis.

    `related` is the priority-ordered substituent quadruple (ascending
    priority); `center_atoms` holds one index for a center, two for an axis.
    """

    kind: UnitKind
    center_atoms: tuple[int, ...]
    related: tuple[int, int, int, int]

    def validate(self, n_atoms: int):
        expected = 1 if self.kind is UnitKind.CENTER else 2
        if len(self.center_atoms) != expected:
            raise AnnotationError(
                f"{self.kind.value} unit needs {expected} center atom(s), got {len(self.center_atoms)}"
            )
        if len(self.related) != 4:
            raise AnnotationError("a chiral unit needs exactly 4 related atoms")
        atoms = self.center_atoms + self.related
        if len(set(atoms)) != len(atoms):
            raise AnnotationError(f"chiral unit atoms must be distinct, got {atoms}")
        for idx in atoms:
            if not 0 <= idx < n_atoms:
                raise AnnotationError(f"atom index {idx} out of range for {n_atoms} atoms")


@dataclass(frozen=True)
class Molecule:
    coords: np.ndarray  # (M, 3), Angstrom
    atomic_numbers: np.ndarray  # (M,)
    features: np.ndarray  # (M, d_f)
    chiral_units: tuple[ChiralUnit, ...] = ()
    id: str = ""
    blade: tuple[int, ...] | None = None  # rotatable atom set for torsion sweeps

    @property
    def n_atoms(self) -> int:
        return self.coords.shape[0]

    def validate(self):
        if self.coords.ndim != 2 or self.coords.shape[1] != 3 or self.coords.shape[0] < 1:
            raise AnnotationError(f"coords must be (M, 3) with M >= 1, got {self.coords.shape}")
        if not np.all(np.isfinite(self.coords)):
            raise AnnotationError("coords contain non-finite values")
        if self.features.shape[0] != self.n_atoms:
            raise AnnotationError("features row count must match atom count")
        for unit in self.chiral_units:
            unit.validate(self.n_atoms)
        # a set, not atom_roles: numpy's per-call cost dwarfs a few atoms
        centres = [atom for unit in self.chiral_units for atom in unit.center_atoms]
        if len(set(centres)) < len(centres):
            raise _shared_centres_error(sorted({int(a) for a in centres if centres.count(a) > 1}))
        if self.blade is not None:
            for idx in self.blade:
                if not 0 <= idx < self.n_atoms:
                    raise AnnotationError(f"blade atom {idx} out of range")
        return self


def unit_atoms(units) -> tuple[np.ndarray, np.ndarray]:
    """(U, 2) centre atoms and (U, 4) related atoms of the units.

    A centre unit repeats its one atom, so every unit's reference point is
    the midpoint of its two centre atoms: 0.5 * (x + x) == x exactly.
    """
    atoms = np.array([(u.center_atoms[0], u.center_atoms[-1], *u.related) for u in units],
                     dtype=np.int64).reshape(-1, 6)
    return atoms[:, :2], atoms[:, 2:]


def _shared_centres_error(atoms: list) -> AnnotationError:
    return AnnotationError(f"center atoms {atoms} appear in more than one chiral unit")


def atom_roles(n_atoms: int, centres, related) -> np.ndarray:
    """Role of every atom: 0 non-chiral, 1 related, 2 chiral.

    An atom that centres one unit and is related to another is chiral. A
    centre atom of two units raises AnnotationError.
    """
    roles = np.zeros(n_atoms, dtype=np.int8)
    roles[related] = 1
    roles[centres] = 2
    # units own 1 centre atom each, axes 2; disjoint only if none is shared
    axes = centres[:, 0] != centres[:, 1]
    if np.count_nonzero(roles == 2) < len(centres) + np.count_nonzero(axes):
        own = np.concatenate([centres[:, 0], centres[axes, 1]])
        shared = np.flatnonzero(np.bincount(own) > 1)
        raise _shared_centres_error(shared.tolist())
    return roles


def chirality_matrices(coords, centres, related) -> tuple[np.ndarray, np.ndarray]:
    """(U, 3, 3) chirality matrices with rows (x_r1 - x_ref, x_r2 - x_ref,
    x_r4 - x_r3), and the (U, 3) reference points x_ref of unit_atoms'
    index arrays."""
    coords = np.asarray(coords, dtype=np.float64)
    # take, not fancy indexing: several times cheaper on a molecule's few units
    c = coords.take(centres, axis=0)
    ref = 0.5 * (c[:, 0] + c[:, 1])
    r = coords.take(related, axis=0)
    mats = r[:, :3] - ref[:, None]
    mats[:, 2] = r[:, 3] - r[:, 2]
    return mats, ref


def reference_point(unit: ChiralUnit, coords) -> np.ndarray:
    """The midpoint of the unit's two centre atoms in unit_atoms' form:
    a centre's own position, or the midpoint of the axis."""
    coords = np.asarray(coords, dtype=np.float64)
    return 0.5 * (coords[unit.center_atoms[0]] + coords[unit.center_atoms[-1]])


def assign_configuration(p: float, tol: float = 1e-9) -> Configuration:
    if not 0.0 <= tol < np.inf:
        raise ValueError(f"tolerance must be finite and non-negative, got {tol}")
    if p > tol:
        return Configuration.R
    if p < -tol:
        return Configuration.S
    return Configuration.DEGENERATE


def transform(mol: Molecule, rotation, translation) -> Molecule:
    """Apply an orthogonal transform plus translation to all coordinates.

    Reflections (det = -1) are allowed; non-orthogonal matrices are not.
    """
    rotation = np.asarray(rotation, dtype=np.float64)
    translation = np.asarray(translation, dtype=np.float64)
    if rotation.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got {rotation.shape}")
    if np.max(np.abs(rotation.T @ rotation - np.eye(3))) > 1e-10:
        raise ValueError("rotation matrix is not orthogonal to 1e-10")
    coords = mol.coords @ rotation.T + translation
    return replace(mol, coords=coords)


def mirror(mol: Molecule) -> Molecule:
    """Reflect across the xy-plane (negate z); flips every chirality product."""
    coords = mol.coords.copy()
    coords[:, 2] = -coords[:, 2]
    return replace(mol, coords=coords)


def order_substituents(indices, priorities) -> tuple[int, int, int, int]:
    """Sort four substituent indices by ascending priority.

    Equal priorities are broken by ascending atom index; a fully duplicated
    (priority, index) pair can only come from malformed input.
    """
    if len(indices) != 4 or len(priorities) != 4:
        raise AnnotationError("expected exactly 4 substituents with 4 priorities")
    keys = sorted(zip(priorities, indices))
    if len(set(keys)) != 4 or len(set(indices)) != 4:
        raise AnnotationError(f"substituent priorities are ambiguous after tie-breaking: {keys}")
    return tuple(idx for _, idx in keys)


def unit_products(mol: Molecule) -> list[float]:
    """Chirality product det(M), the signed volume
    ((r1-ref) x (r2-ref)) . (r4-r3), of every unit in annotation order."""
    return det3_batch(chirality_matrices(mol.coords, *unit_atoms(mol.chiral_units))[0]).tolist()


def random_rotation(rng) -> np.ndarray:
    """Uniform-ish random element of SO(3) (QR of Gaussian, det fixed to +1)."""
    q, r = np.linalg.qr(rng.standard_normal((3, 3)))
    q = q * np.sign(np.diag(r))
    if det3_batch(q) < 0:
        q[:, 2] = -q[:, 2]
    return q


def random_reflection(rng) -> np.ndarray:
    """Random orthogonal matrix with determinant -1."""
    q = random_rotation(rng)
    q[:, 2] = -q[:, 2]
    return q
