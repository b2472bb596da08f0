"""Input parsing, atom featurization, and synthetic dataset generation.

The on-disk molecule format is an annotated XYZ variant:

    line 1      atom count M
    line 2      free comment (used as the molecule id when non-empty)
    M lines     "symbol x y z"
    0+ lines    "CHIRAL center <i> r1 r2 r3 r4 [p1 p2 p3 p4]"
                "CHIRAL axis <a>-<b> r1 r2 r3 r4 [p1 p2 p3 p4]"
                "BLADE i1 i2 ..."

Indices are 0-based. Substituent priorities default to atomic numbers when
omitted (ties broken by atom index); explicit priorities must be distinct.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .errors import AnnotationError, GenerationError, MoleculeParseError
from .fieldtypes import check_types
from .geometry import (
    ChiralUnit,
    Configuration,
    Molecule,
    UnitKind,
    assign_configuration,
    chirality_matrices,
    mirror,
    order_substituents,
    random_rotation,
    reference_point,
    transform,
    unit_atoms,
    unit_products,
)
from .numerics import det3_batch

SYMBOL_TO_Z = {
    "H": 1, "He": 2, "Li": 3, "Be": 4, "B": 5, "C": 6, "N": 7, "O": 8,
    "F": 9, "Ne": 10, "Na": 11, "Mg": 12, "Al": 13, "Si": 14, "P": 15,
    "S": 16, "Cl": 17, "Ar": 18, "K": 19, "Ca": 20, "Ti": 22, "Cr": 24,
    "Mn": 25, "Fe": 26, "Co": 27, "Ni": 28, "Cu": 29, "Zn": 30, "As": 33,
    "Se": 34, "Br": 35, "Zr": 40, "Ag": 47, "Sn": 50, "I": 53, "Pt": 78,
    "Au": 79, "Hg": 80, "Pb": 82,
}
Z_TO_SYMBOL = {z: s for s, z in SYMBOL_TO_Z.items()}

# Slot order for the element one-hot block; the final slot catches the rest.
ELEMENT_SLOTS = [
    1, 5, 6, 7, 8, 9, 11, 12, 13, 14, 15, 16, 17, 19, 20, 22, 24, 25, 26,
    27, 28, 29, 30, 33, 34, 35, 40, 47, 50, 53, 78,
]
_SLOT_OF_Z = {z: i for i, z in enumerate(ELEMENT_SLOTS)}
_N_ELEMENT = len(ELEMENT_SLOTS) + 1
# one-hot blocks after the element block: degree, charge, hydrogens and
# hybridization. Without a bond graph each stays in its zero class (its
# first column), keeping the layout compatible with richer featurizers.
_BLOCK_WIDTHS = (6, 5, 5, 4)
_ZERO_CLASS_COLUMNS = _N_ELEMENT + np.cumsum((0,) + _BLOCK_WIDTHS[:-1])
FEATURE_WIDTH = _N_ELEMENT + sum(_BLOCK_WIDTHS)  # 52


def featurize(atomic_numbers) -> np.ndarray:
    """(M, FEATURE_WIDTH) one-hot atom features: an element slot (the last
    one for elements outside ELEMENT_SLOTS) plus the zero class of every
    other block."""
    slots = [_SLOT_OF_Z.get(int(z), _N_ELEMENT - 1) for z in atomic_numbers]
    out = np.zeros((len(slots), FEATURE_WIDTH))
    out[np.arange(len(slots)), slots] = 1.0
    out[:, _ZERO_CLASS_COLUMNS] = 1.0
    return out


def _parse_chiral_line(tokens, lineno, n_atoms, atomic_numbers):
    if len(tokens) < 3:
        raise MoleculeParseError("CHIRAL needs a unit kind and its centre atoms, got "
                                 f"{len(tokens) - 1} fields", lineno)
    kind_tok = tokens[1].lower()
    if kind_tok not in ("center", "axis"):
        raise MoleculeParseError(f"unknown chiral unit kind {tokens[1]!r}", lineno)
    if kind_tok == "center":
        kind = UnitKind.CENTER
        try:
            centers = (int(tokens[2]),)
        except ValueError:
            raise MoleculeParseError(f"bad center index {tokens[2]!r}", lineno) from None
    else:
        kind = UnitKind.AXIS
        parts = tokens[2].split("-")
        if len(parts) != 2:
            raise MoleculeParseError(f"axis spec must be idxA-idxB, got {tokens[2]!r}", lineno)
        try:
            centers = (int(parts[0]), int(parts[1]))
        except ValueError:
            raise MoleculeParseError(f"bad axis indices {tokens[2]!r}", lineno) from None
    rest = tokens[3:]
    if len(rest) not in (4, 8):
        raise MoleculeParseError(
            f"expected 4 related indices with optional 4 priorities, got {len(rest)} fields", lineno
        )
    try:
        related = [int(t) for t in rest[:4]]
    except ValueError:
        raise MoleculeParseError("related atom indices must be integers", lineno) from None
    for idx in list(centers) + related:
        if not 0 <= idx < n_atoms:
            raise MoleculeParseError(f"atom index {idx} out of range (M={n_atoms})", lineno)
    if len(rest) == 8:
        try:
            priorities = [float(t) for t in rest[4:]]
        except ValueError:
            raise MoleculeParseError("priorities must be numeric", lineno) from None
        if len(set(priorities)) != 4:
            raise MoleculeParseError(f"tie in substituent priorities {priorities}", lineno)
    else:
        priorities = [float(atomic_numbers[i]) for i in related]
    try:
        ordered = order_substituents(tuple(related), tuple(priorities))
        unit = ChiralUnit(kind=kind, center_atoms=centers, related=ordered)
        unit.validate(n_atoms)
    except AnnotationError as exc:
        raise MoleculeParseError(str(exc), lineno) from None
    return unit


def parse(path) -> Molecule:
    """Parse an annotated XYZ file into a validated Molecule."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise MoleculeParseError("empty file", 1)
    try:
        n_atoms = int(lines[0].strip())
    except ValueError:
        raise MoleculeParseError(f"atom count expected, got {lines[0]!r}", 1) from None
    if n_atoms < 1:
        raise MoleculeParseError("atom count must be >= 1", 1)
    if len(lines) < 2 + n_atoms:
        raise MoleculeParseError(f"file ends before {n_atoms} atom lines", len(lines))
    comment = lines[1].strip()
    rows, numbers = [], []
    for lineno, line in enumerate(lines[2 : 2 + n_atoms], start=3):
        tokens = line.split()
        if len(tokens) != 4:
            raise MoleculeParseError(f"expected 'symbol x y z', got {line!r}", lineno)
        symbol = tokens[0]
        if symbol not in SYMBOL_TO_Z:
            raise MoleculeParseError(f"unknown element symbol {symbol!r}", lineno)
        numbers.append(SYMBOL_TO_Z[symbol])
        try:
            xyz = [float(t) for t in tokens[1:]]
        except ValueError:
            raise MoleculeParseError(f"bad coordinate in {line!r}", lineno) from None
        if not all(map(math.isfinite, xyz)):
            raise MoleculeParseError("non-finite coordinate", lineno)
        rows.append(xyz)
    coords = np.array(rows, dtype=np.float64)
    atomic_numbers = np.array(numbers, dtype=np.int64)

    units: list[ChiralUnit] = []
    seen_centers: set[int] = set()
    blade, blade_line = None, None
    for offset, raw in enumerate(lines[2 + n_atoms:]):
        lineno = 3 + n_atoms + offset
        tokens = raw.split()
        if not tokens:
            continue
        if tokens[0] == "CHIRAL":
            unit = _parse_chiral_line(tokens, lineno, n_atoms, atomic_numbers)
            overlap = seen_centers.intersection(unit.center_atoms)
            if overlap:
                raise MoleculeParseError(f"duplicate CHIRAL center atom {sorted(overlap)}", lineno)
            seen_centers.update(unit.center_atoms)
            units.append(unit)
        elif tokens[0] == "BLADE":
            if blade_line is not None:
                raise MoleculeParseError(f"second BLADE line, the first is line {blade_line}",
                                         lineno)
            blade_line = lineno
            try:
                blade = tuple(int(t) for t in tokens[1:])
            except ValueError:
                raise MoleculeParseError("BLADE indices must be integers", lineno) from None
            if not blade:
                raise MoleculeParseError("BLADE needs at least one atom", lineno)
        else:
            raise MoleculeParseError(f"unrecognized annotation line {raw!r}", lineno)

    mol = Molecule(
        coords=coords,
        atomic_numbers=atomic_numbers,
        features=featurize(atomic_numbers),
        chiral_units=tuple(units),
        id=comment if comment else path.stem,
        blade=blade,
    )
    try:
        return mol.validate()
    except AnnotationError as exc:
        raise MoleculeParseError(str(exc)) from None


def write(mol: Molecule, path):
    """Serialize a Molecule back to the annotated XYZ format.

    Related quadruples are written in stored (priority-ascending) order with
    explicit priorities 1..4 so a round-trip preserves the ordering.
    """
    path = Path(path)
    lines = [str(mol.n_atoms), mol.id]
    for z, xyz in zip(mol.atomic_numbers.tolist(), mol.coords.tolist()):
        sym = Z_TO_SYMBOL.get(int(z))
        if sym is None:
            raise AnnotationError(f"no symbol for atomic number {z}")
        lines.append(f"{sym} {xyz[0]:.10f} {xyz[1]:.10f} {xyz[2]:.10f}")
    for unit in mol.chiral_units:
        if unit.kind is UnitKind.CENTER:
            spec = str(unit.center_atoms[0])
        else:
            spec = f"{unit.center_atoms[0]}-{unit.center_atoms[1]}"
        related = " ".join(str(i) for i in unit.related)
        lines.append(f"CHIRAL {unit.kind.value} {spec} {related} 1 2 3 4")
    if mol.blade is not None:
        lines.append("BLADE " + " ".join(str(i) for i in mol.blade))
    path.write_text("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Synthetic data
# ---------------------------------------------------------------------------

TETRA_DIRECTIONS = np.array(
    [[1.0, 1.0, 1.0], [1.0, -1.0, -1.0], [-1.0, 1.0, -1.0], [-1.0, -1.0, 1.0]]
) / math.sqrt(3.0)

# substituent element pool; distinct atomic numbers double as priorities
SUBSTITUENT_POOL = [7, 8, 9, 15, 16, 17, 35]
SPECTATOR_POOL = [1, 6]


# x offset between tiled fragments; far beyond bond lengths, so the atoms
# of different fragments never overlap or fall within each other's units
_TILE_SPACING = 8.0


def tile_molecules(mols) -> Molecule:
    """One molecule holding the given ones, each shifted by its position in
    the list times `_TILE_SPACING` along x; their chiral units are kept."""
    offsets = np.cumsum([0] + [m.n_atoms for m in mols[:-1]])
    return Molecule(
        coords=np.vstack([m.coords + [i * _TILE_SPACING, 0.0, 0.0] for i, m in enumerate(mols)]),
        atomic_numbers=np.concatenate([m.atomic_numbers for m in mols]),
        features=np.vstack([m.features for m in mols]),
        chiral_units=tuple(
            ChiralUnit(kind=u.kind, center_atoms=tuple(int(o) + a for a in u.center_atoms),
                       related=tuple(int(o) + a for a in u.related))
            for m, o in zip(mols, offsets)
            for u in m.chiral_units
        ),
    ).validate()


# gen_rs substituent bond lengths are uniform in this range, then jittered
# by Gaussian noise of this standard deviation per coordinate
BOND_LENGTH_RANGE = (1.4, 1.8)
SUBSTITUENT_NOISE = 0.1
# closest distance of a spectator atom to any atom placed before it
SPECTATOR_MIN_DIST = 2.0


@dataclass(frozen=True)
class SyntheticSpec:
    count: int
    spectator_range: tuple[int, int] = (0, 3)
    min_abs_product: float = 0.5
    seed: int = 0

    def __post_init__(self):
        # a NaN floor rejects no draw and an infinite one every draw; this
        # bound is checked before the types, whose rule refuses both too, so
        # that its message names the bound
        if (isinstance(self.min_abs_product, numbers.Real)
                and not 0 < self.min_abs_product < math.inf):
            raise ValueError(f"min_abs_product must be > 0 and finite, got {self.min_abs_product}")
        check_types(self)
        if self.count < 1:
            raise ValueError("count must be >= 1")
        if not 0 <= self.spectator_range[0] <= self.spectator_range[1]:
            raise ValueError(f"spectator_range must be 0 <= lo <= hi, got {self.spectator_range}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


def _place_spectators(rng, occupied, n_spec):
    placed = []
    for _ in range(n_spec):
        for _attempt in range(200):
            direction = rng.standard_normal(3)
            direction /= np.linalg.norm(direction)
            pos = direction * rng.uniform(2.5, 4.5)
            allpos = np.concatenate([occupied, placed]) if placed else occupied
            if np.min(np.linalg.norm(allpos - pos, axis=1)) >= SPECTATOR_MIN_DIST:
                placed.append(pos)
                break
        else:
            raise GenerationError("could not place spectator atom")
    return placed


def _generate(spec: SyntheticSpec, id_prefix: str, draw, random_pose: bool, blade=None):
    """The rejection loop both generators share.

    Sample t draws from seed + t, so generation parallelizes and any prefix
    of the dataset is stable. Each attempt takes the task's geometry from
    `draw(rng)` as (coords, atomic numbers, unit), adds spectators and
    rejects a chirality product below spec.min_abs_product; with
    `random_pose` the accepted molecule is then rotated and shifted.
    Every molecule carries `blade`, atom indices of the drawn geometry,
    which the spectators, appended after it, leave valid.
    Labels alternate R, S, ... and are realized by mirroring, which keeps
    even counts exactly balanced.
    """
    dataset = []
    for t in range(spec.count):
        rng = np.random.default_rng(spec.seed + t)
        target = Configuration.R if t % 2 == 0 else Configuration.S
        for _attempt in range(1000):
            coords, zs, unit = draw(rng)
            n_spec = int(rng.integers(spec.spectator_range[0], spec.spectator_range[1] + 1))
            if n_spec:
                coords = np.concatenate([coords, _place_spectators(rng, coords, n_spec)])
                zs.extend(rng.choice(SPECTATOR_POOL, size=n_spec))
            product = float(det3_batch(chirality_matrices(coords, *unit_atoms([unit]))[0])[0])
            if abs(product) < spec.min_abs_product:
                continue
            mol = Molecule(
                coords=coords,
                atomic_numbers=np.asarray(zs, dtype=np.int64),
                features=featurize(zs),
                chiral_units=(unit,),
                id=f"{id_prefix}{t:05d}",
                blade=blade,
            ).validate()
            if random_pose:
                mol = transform(mol, random_rotation(rng), rng.uniform(-5.0, 5.0, size=3))
                # the label reads the posed atoms, as the R/S oracle does
                product = unit_products(mol)[0]
            if assign_configuration(product) is not target:
                mol = mirror(mol)
            dataset.append((mol, target))
            break
        else:
            raise GenerationError(f"rejection budget exhausted at sample {t}")
    return dataset


def _draw_center(rng):
    """A carbon with four distinct substituents on jittered tetrahedral
    bonds."""
    lengths = rng.uniform(*BOND_LENGTH_RANGE, size=4)
    order = rng.permutation(4)
    subs = TETRA_DIRECTIONS[order] * lengths[:, None]
    subs = subs + rng.normal(0.0, SUBSTITUENT_NOISE, size=(4, 3))
    elements = rng.choice(SUBSTITUENT_POOL, size=4, replace=False)
    related = order_substituents((1, 2, 3, 4), tuple(float(z) for z in elements))
    unit = ChiralUnit(kind=UnitKind.CENTER, center_atoms=(0,), related=related)
    return np.concatenate([np.zeros((1, 3)), subs]), [6, *elements], unit


def gen_rs(spec: SyntheticSpec):
    """Synthetic tetrahedral-center molecules with exact R/S labels."""
    return _generate(spec, "rs", _draw_center, random_pose=False)


# the upper substituents c1 and c2 of _axial_coords, which a torsion sweep
# turns about the axis
_AXIAL_BLADE = (3, 5)


def _axial_coords(axis_len, radius, drop, torsion_deg):
    """Toy biaryl skeleton: two axis atoms plus two substituents per side."""
    psi = math.radians(torsion_deg)
    a0 = np.zeros(3)
    a1 = np.array([0.0, 0.0, axis_len])
    b1 = np.array([radius, 0.0, -drop])
    b2 = np.array([-radius, 0.0, -drop])
    c1 = np.array([radius * math.cos(psi), radius * math.sin(psi), axis_len + drop])
    c2 = np.array([-radius * math.cos(psi), -radius * math.sin(psi), axis_len + drop])
    return np.stack([a0, a1, b1, c1, b2, c2])


def toy_axial_molecule(torsion_deg: float = 90.0) -> Molecule:
    """Six-atom axially chiral toy with the upper blade marked for rotation.

    Substituent elements are picked so the default atomic-number priorities
    order the quadruple as (lower-1, upper-1, lower-2, upper-2); the sign of
    the chirality product then tracks sin(torsion).
    """
    coords = _axial_coords(axis_len=1.5, radius=1.4, drop=0.4, torsion_deg=torsion_deg)
    zs = np.array([6, 6, 7, 8, 9, 15], dtype=np.int64)  # C C N O F P
    unit = ChiralUnit(kind=UnitKind.AXIS, center_atoms=(0, 1), related=(2, 3, 4, 5))
    return Molecule(
        coords=coords,
        atomic_numbers=zs,
        features=featurize(zs),
        chiral_units=(unit,),
        id=f"axial_toy_{torsion_deg:g}",
        blade=_AXIAL_BLADE,
    ).validate()


def _rotate_about_axis(points, origin, direction, angle_rad):
    """Rodrigues rotation of points about the line (origin, direction)."""
    u = direction / np.linalg.norm(direction)
    rel = points - origin
    cos_a, sin_a = math.cos(angle_rad), math.sin(angle_rad)
    rotated = (
        rel * cos_a
        + np.cross(u, rel) * sin_a
        + np.outer(rel @ u, u) * (1.0 - cos_a)
    )
    return rotated + origin


def gen_axial_torsion(base: Molecule, step_deg: float):
    """Rigid torsion sweep of the annotated blade about the stereogenic axis."""
    axis_units = [u for u in base.chiral_units if u.kind is UnitKind.AXIS]
    if len(axis_units) != 1 or len(base.chiral_units) != 1:
        raise AnnotationError("torsion sweep needs exactly one axis unit")
    # a whole number of steps to within round-off: 360.0 % 3.6 is 3.5999...
    n_steps = round(360.0 / step_deg) if 0.0 < step_deg < math.inf else 0
    if n_steps < 1 or abs(n_steps * step_deg - 360.0) > 1e-9 * 360.0:
        raise ValueError(f"step must divide 360, got {step_deg}")
    if base.blade is None:
        raise AnnotationError("torsion sweep needs a BLADE annotation")
    unit = axis_units[0]
    blade = set(base.blade)
    if blade.intersection(unit.center_atoms):
        raise AnnotationError("blade must not contain axis atoms")
    a = base.coords[unit.center_atoms[0]]
    b = base.coords[unit.center_atoms[1]]
    direction = b - a
    midpoint = reference_point(unit, base.coords)
    sides = {int(np.sign(round(float((base.coords[i] - midpoint) @ direction), 12))) for i in blade}
    if len(sides) > 1:
        raise AnnotationError("blade atoms lie on both sides of the axis midpoint")

    conformers = []
    blade_idx = sorted(blade)
    for t in range(n_steps):
        coords = base.coords.copy()
        if t:
            coords[blade_idx] = _rotate_about_axis(
                base.coords[blade_idx], a, direction, math.radians(t * step_deg)
            )
        conformers.append(replace(base, coords=coords, id=f"{base.id}@{t * step_deg:g}"))
    return conformers


def _draw_axial(rng):
    """A toy biaryl of random dimensions and torsion, jittered per atom."""
    coords = _axial_coords(
        axis_len=rng.uniform(1.3, 1.7),
        radius=rng.uniform(1.2, 1.6),
        drop=rng.uniform(0.3, 0.5),
        torsion_deg=rng.uniform(0.0, 360.0),
    )
    coords = coords + rng.normal(0.0, 0.05, size=coords.shape)
    unit = ChiralUnit(kind=UnitKind.AXIS, center_atoms=(0, 1), related=(2, 3, 4, 5))
    return coords, [6, 6, 7, 8, 9, 15], unit


def gen_axial(count: int, seed: int = 0, spectator_range=(0, 2), min_abs_product: float = 0.5):
    """Randomized axial toys labeled by the sign of the chirality product,
    each with its upper blade marked for gen_axial_torsion.

    Geometry, torsion, and pose vary per sample; sampling and labels follow
    gen_rs, whose SyntheticSpec checks the arguments.
    """
    spec = SyntheticSpec(count=count, spectator_range=spectator_range,
                         min_abs_product=min_abs_product, seed=seed)
    return _generate(spec, "ax", _draw_axial, random_pose=True, blade=_AXIAL_BLADE)


# ---------------------------------------------------------------------------
# Dataset directories
# ---------------------------------------------------------------------------

def write_dataset(dataset, out_dir):
    """One file per molecule plus a manifest of id<TAB>label<TAB>path lines.

    Each id names its file and its manifest line, so before anything is
    written an id that repeats an earlier one, or holds a path separator,
    a tab or a line break, raises AnnotationError naming its item.
    """
    seen = set()
    for i, (mol, _) in enumerate(dataset):
        if mol.id in seen:
            raise AnnotationError(f"item {i}: id {mol.id!r} repeats an earlier item's")
        if any(c in mol.id for c in ("\t", "/", os.sep)) or "".join(mol.id.splitlines()) != mol.id:
            raise AnnotationError(f"item {i}: id {mol.id!r} holds a path separator, a tab "
                                  "or a line break")
        seen.add(mol.id)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest_lines = []
    for mol, label in dataset:
        rel = f"{mol.id}.chimol"
        write(mol, out_dir / rel)
        manifest_lines.append(f"{mol.id}\t{label.value}\t{rel}")
    (out_dir / "manifest.tsv").write_text("\n".join(manifest_lines) + "\n")
    return out_dir / "manifest.tsv"


def read_manifest(manifest_path):
    """Load (Molecule, Configuration) pairs listed in a manifest file; a
    label other than R or S raises MoleculeParseError naming its line."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "manifest.tsv"
    base = manifest_path.parent
    dataset = []
    text = manifest_path.read_text()
    if not text.strip():
        raise MoleculeParseError(f"empty manifest {manifest_path}")
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise MoleculeParseError("manifest lines are id<TAB>label<TAB>path", lineno)
        mol_id, label, rel = parts
        # a degenerate molecule has no class to train or score
        if label not in (Configuration.R.value, Configuration.S.value):
            raise MoleculeParseError(f"label {label!r} is not R or S", lineno)
        config = Configuration(label)
        mol = parse(base / rel)
        if mol.id != mol_id:
            mol = replace(mol, id=mol_id)
        dataset.append((mol, config))
    return dataset
