"""Molecule containers, chirality matrices, and the exact sign oracle.

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
        seen_centers: set[int] = set()
        for unit in self.chiral_units:
            unit.validate(self.n_atoms)
            overlap = seen_centers.intersection(unit.center_atoms)
            if overlap:
                raise AnnotationError(f"center atoms {sorted(overlap)} appear in more than one chiral unit")
            seen_centers.update(unit.center_atoms)
        if self.blade is not None:
            for idx in self.blade:
                if not 0 <= idx < self.n_atoms:
                    raise AnnotationError(f"blade atom {idx} out of range")
        return self


@dataclass(frozen=True)
class AtomPartition:
    """Disjoint chiral / chiral-related / non-chiral atom index sets."""

    chiral: tuple[int, ...]
    related: tuple[int, ...]
    nonchiral: tuple[int, ...]


def partition_atoms(mol: Molecule) -> AtomPartition:
    """Split atom indices into chiral, chiral-related, and non-chiral sets.

    An atom that is a related atom of one unit and a center of another
    lands in the chiral set (set subtraction happens after the union).
    """
    chiral: set[int] = set()
    for unit in mol.chiral_units:
        overlap = chiral.intersection(unit.center_atoms)
        if overlap:
            raise AnnotationError(f"center atoms {sorted(overlap)} appear in more than one chiral unit")
        chiral.update(unit.center_atoms)
    related: set[int] = set()
    for unit in mol.chiral_units:
        related.update(unit.related)
    related -= chiral
    nonchiral = set(range(mol.n_atoms)) - chiral - related
    return AtomPartition(
        chiral=tuple(sorted(chiral)),
        related=tuple(sorted(related)),
        nonchiral=tuple(sorted(nonchiral)),
    )


def reference_point(unit: ChiralUnit, coords) -> np.ndarray:
    """Center atom position, or the midpoint of the two axis atoms."""
    coords = np.asarray(coords, dtype=np.float64)
    if unit.kind is UnitKind.CENTER:
        return coords[unit.center_atoms[0]].copy()
    a, b = unit.center_atoms
    return 0.5 * (coords[a] + coords[b])


def chirality_matrix(unit: ChiralUnit, coords) -> np.ndarray:
    """(3, 3) matrix with rows (x_r1 - x_ref, x_r2 - x_ref, x_r4 - x_r3)."""
    coords = np.asarray(coords, dtype=np.float64)
    ref = reference_point(unit, coords)
    r1, r2, r3, r4 = unit.related
    return np.stack([coords[r1] - ref, coords[r2] - ref, coords[r4] - coords[r3]])


def assign_configuration(p: float, tol: float = 1e-9) -> Configuration:
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
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
    mats = [chirality_matrix(u, mol.coords) for u in mol.chiral_units]
    return det3_batch(np.reshape(mats, (-1, 3, 3))).tolist()


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
