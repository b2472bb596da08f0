"""The three benchmark workloads: generated inputs, timed rounds and checks.

A workload is set up from `--seed` alone, then runs rounds of public calls.
Each timed call is kept as a wall-clock interval and drift-corrected from
the yardstick samples around and inside it (see drift.py). Output checks
run outside the timed regions and feed `failed` and `error_rate`.
"""

from __future__ import annotations

import copy
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

DESK_COUNT = 320  # train-desk molecules, one epoch per train() call
MULTI_COUNT = 300  # infer-multi molecules
MULTI_MAX_UNITS = 6
FRAGMENT_POOL = 96  # gen_rs / gen_axial fragments per kind
FRAGMENT_SPACING = 12.0  # angstrom between tiled fragments, beyond any fragment radius
ROTATION_SAMPLE = 16  # infer-multi molecules checked for rigid-motion invariance
RIGID_TOL = 1e-9  # A7's bound on logit drift under rotation plus translation
AUDIT_TOL = 1e-4  # the CLI default, as A4 and `chiraldet gradcheck` run it

# the 7 audited blocks at the first baseline; fixes the per-layer metric names
AUDIT_BLOCKS = (
    "encoder.kernel",
    "encoder.reg_loss",
    "numerics.layer_norm",
    "attention.distance_bias",
    "attention.layer",
    "model.predictor",
    "model.full_loss",
)


@dataclass
class Round:
    """One round of timed calls, as wall-clock intervals per part.

    `settle` turns the intervals into raw and drift-corrected seconds once
    the clock holds every yardstick sample of the run.
    """

    intervals: dict = field(default_factory=dict)  # part -> [(t0, t1)]
    parts: dict = field(default_factory=dict)  # part -> [(raw_s, corrected_s)]
    raw_s: float = 0.0
    corrected_s: float = 0.0

    def timed(self, part: str, fn):
        t0 = time.perf_counter()
        out = fn()
        self.intervals.setdefault(part, []).append((t0, time.perf_counter()))
        return out

    def settle(self, clock):
        self.parts = {p: [clock.correct(*iv) for iv in ivs] for p, ivs in self.intervals.items()}
        pairs = [pair for values in self.parts.values() for pair in values]
        self.raw_s = sum(r for r, _ in pairs)
        self.corrected_s = sum(c for _, c in pairs)

    @property
    def factor(self) -> float:
        """Time-weighted drift factor of the round."""
        return self.corrected_s / self.raw_s if self.raw_s > 0 else 1.0


class Checks:
    """Counts output checks; a failure is kept with a one-line reason."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _percentile_tail(samples_ms):
    """Highest of p90/p95/p99/p99.9 with at least ten samples beyond it."""
    n = len(samples_ms)
    best = None
    for p in (90.0, 95.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= 10.0:
            best = p
    if best is None:
        return None, float("nan")
    return best, float(np.percentile(samples_ms, best))


def unit_labels_match(pkg, mol, labels) -> bool:
    """Every unit's chirality-product sign gives its generated R/S label."""
    products = pkg.geometry.unit_products(mol)
    return len(products) == len(labels) and all(
        pkg.geometry.assign_configuration(p) is lab for p, lab in zip(products, labels)
    )


class TrainDesk:
    """`gen_rs` desk molecules trained by repeated identical `train()` calls."""

    name = "train-desk"

    def __init__(self, pkg, seed: int, workdir):
        self.pkg = pkg
        self.dataset = pkg.data.gen_rs(pkg.data.SyntheticSpec(count=DESK_COUNT, seed=seed))
        self.model0 = pkg.model.init_model(pkg.model.ModelConfig(seed=seed))
        self.losses: list[float] = []

    def _config(self):
        return self.pkg.model.TrainConfig(lr=5e-4, batch_size=32, epochs=1)

    def warmup(self):
        self.pkg.model.train(copy.deepcopy(self.model0), self.dataset[:64], self._config())

    def round(self, tracer=None) -> Round:
        model = copy.deepcopy(self.model0)
        rnd = Round()
        records = rnd.timed("train", lambda: self.pkg.model.train(model, self.dataset, self._config()))
        self.losses.append(records[-1].train_loss)
        return rnd

    def check(self, checks: Checks):
        for mol, label in self.dataset:
            checks.expect(unit_labels_match(self.pkg, mol, [label]), f"{mol.id}: product sign != label")
        for i, loss in enumerate(self.losses[1:], start=1):
            checks.expect(loss == self.losses[0], f"train() call {i} loss {loss!r} != {self.losses[0]!r}")
        checks.expect(all(np.isfinite(self.losses)), "non-finite training loss")

    def summary(self, rounds):
        med = float(np.median([r.corrected_s for r in rounds]))
        raw = float(np.median([r.raw_s for r in rounds]))
        return {
            "train_mol_per_s": (DESK_COUNT / med, "mol/s"),
            "raw.train_mol_per_s": (DESK_COUNT / raw, "mol/s"),
            "train_final_loss": (self.losses[0], "nat"),
        }


def build_multi_unit_set(pkg, seed: int):
    """Molecules with 1-6 stereogenic units tiled from gen_rs centre fragments
    and gen_axial axis fragments at fixed offsets along x.

    Returns [(Molecule, label of unit 0)] and the per-unit generated labels.
    """
    data, geometry = pkg.data, pkg.geometry
    rng = np.random.default_rng(seed)
    centres = data.gen_rs(data.SyntheticSpec(count=FRAGMENT_POOL, seed=int(rng.integers(1 << 30))))
    axes = data.gen_axial(FRAGMENT_POOL, seed=int(rng.integers(1 << 30)))
    dataset, unit_labels = [], []
    for i in range(MULTI_COUNT):
        n_units = 1 + i % MULTI_MAX_UNITS  # same unit count per seed, so work varies little
        coords, zs, feats, units, labels = [], [], [], [], []
        offset = 0
        for u in range(n_units):
            pool = centres if rng.random() < 0.5 else axes
            frag, label = pool[int(rng.integers(len(pool)))]
            (unit,) = frag.chiral_units
            origin = geometry.reference_point(unit, frag.coords)
            coords.append(frag.coords - origin + np.array([u * FRAGMENT_SPACING, 0.0, 0.0]))
            zs.append(frag.atomic_numbers)
            feats.append(frag.features)
            units.append(geometry.ChiralUnit(
                kind=unit.kind,
                center_atoms=tuple(offset + a for a in unit.center_atoms),
                related=tuple(offset + a for a in unit.related),
            ))
            labels.append(label)
            offset += frag.n_atoms
        mol = geometry.Molecule(
            coords=np.vstack(coords),
            atomic_numbers=np.concatenate(zs),
            features=np.vstack(feats),
            chiral_units=tuple(units),
            id=f"multi{i:04d}",
        ).validate()
        dataset.append((mol, labels[0]))
        unit_labels.append(labels)
    return dataset, unit_labels


class InferMulti:
    """Forward-only inference on multi-unit molecules: bulk `evaluate()` and
    one `embed()` call per molecule, after file and checkpoint round trips."""

    name = "infer-multi"

    def __init__(self, pkg, seed: int, workdir):
        self.pkg = pkg
        generated, self.unit_labels = build_multi_unit_set(pkg, seed)
        ds_dir = workdir / "dataset"
        shutil.rmtree(ds_dir, ignore_errors=True)
        manifest = pkg.data.write_dataset(generated, ds_dir)
        self.dataset = pkg.data.read_manifest(manifest)
        self.generated = generated
        fresh = pkg.model.init_model(pkg.model.ModelConfig(seed=seed))
        ckpt = workdir / "model.ckpt"
        pkg.model.save_checkpoint(fresh, ckpt)
        self.model, _ = pkg.model.load_checkpoint(ckpt)
        self.fresh = fresh
        self.accuracies: list[float] = []
        self.embed_finite = True
        self.reference_embeds = None

    def warmup(self):
        self.pkg.model.evaluate(self.model, self.dataset[:20])
        for mol, _ in self.dataset[:20]:
            self.pkg.model.embed(self.model, mol)

    def round(self, tracer=None) -> Round:
        model_mod = self.pkg.model
        rnd = Round()
        self.accuracies.append(rnd.timed("evaluate", lambda: model_mod.evaluate(self.model, self.dataset)))
        embeds = [rnd.timed("embed", lambda: model_mod.embed(self.model, mol)) for mol, _ in self.dataset]
        stacked = np.stack(embeds)
        self.embed_finite &= bool(np.all(np.isfinite(stacked)))
        if self.reference_embeds is None:
            self.reference_embeds = stacked
        else:
            self.embed_finite &= bool(np.array_equal(stacked, self.reference_embeds))
        return rnd

    def check(self, checks: Checks):
        pkg = self.pkg
        checks.expect(len(self.dataset) == len(self.generated), "dataset round trip lost molecules")
        for (mol, label), (gen, gen_label), labels in zip(self.dataset, self.generated, self.unit_labels):
            checks.expect(
                mol.id == gen.id and label is gen_label
                and np.allclose(mol.coords, gen.coords, rtol=0.0, atol=1e-9),
                f"{gen.id}: dataset round trip changed the molecule",
            )
            checks.expect(unit_labels_match(pkg, mol, labels), f"{mol.id}: product sign != label")
        same = all(
            np.array_equal(a, b)
            for (_, a), (_, b) in zip(pkg.model.named_parameters(self.fresh),
                                      pkg.model.named_parameters(self.model))
        )
        checks.expect(same, "checkpoint round trip is not bit-exact")
        rng = np.random.default_rng(len(self.dataset))
        for mol, _ in self.dataset[:ROTATION_SAMPLE]:
            moved = pkg.geometry.transform(
                mol, pkg.geometry.random_rotation(rng), rng.uniform(-10.0, 10.0, 3)
            )
            drift = float(np.max(np.abs(
                pkg.model.forward(self.model, moved) - pkg.model.forward(self.model, mol)
            )))
            checks.expect(drift <= RIGID_TOL, f"{mol.id}: logits moved {drift:.1e} under rigid motion")
        checks.expect(self.embed_finite, "embed() returned non-finite or non-repeatable vectors")
        checks.expect(len(set(self.accuracies)) <= 1, f"evaluate() not repeatable: {self.accuracies}")

    def summary(self, rounds):
        n = len(self.dataset)
        ev_raw, ev = np.array([r.parts["evaluate"][0] for r in rounds]).T
        embed_raw, embed = 1e3 * np.array([pair for r in rounds for pair in r.parts["embed"]]).T
        tail_p, tail = _percentile_tail(embed)
        _, tail_raw = _percentile_tail(embed_raw)
        return {
            "infer_mol_per_s": (n / float(np.median(ev)), "mol/s"),
            "raw.infer_mol_per_s": (n / float(np.median(ev_raw)), "mol/s"),
            "embed_p50_ms": (float(np.median(embed)), "ms"),
            "raw.embed_p50_ms": (float(np.median(embed_raw)), "ms"),
            "embed_tail_ms": (tail, "ms"),
            "raw.embed_tail_ms": (tail_raw, "ms"),
            "embed_tail_percentile": (tail_p, "pct"),
            "embed_samples": (len(embed), "count"),
        }

    def size_distribution(self):
        units = np.bincount([len(m.chiral_units) for m, _ in self.dataset], minlength=MULTI_MAX_UNITS + 1)
        atoms = np.array([m.n_atoms for m, _ in self.dataset])
        return {
            "molecules": len(self.dataset),
            "units_per_molecule": {str(k): int(units[k]) for k in range(1, MULTI_MAX_UNITS + 1)},
            "atoms_per_molecule": {
                "min": int(atoms.min()), "p25": float(np.percentile(atoms, 25)),
                "median": float(np.median(atoms)), "p75": float(np.percentile(atoms, 75)),
                "max": int(atoms.max()),
            },
        }


class Audit:
    """`run_gradcheck()` on the tiny config, all blocks, as the CLI runs it."""

    name = "audit"

    def __init__(self, pkg, seed: int, workdir):
        self.gradcheck = pkg.gradcheck
        self.reports: list[list] = []

    def warmup(self):
        self.gradcheck.run_gradcheck(blocks=("encoder.kernel",))

    def round(self, tracer=None) -> Round:
        gc = self.gradcheck
        rnd = Round()
        if tracer is None:
            reports = rnd.timed("run_gradcheck", lambda: gc.run_gradcheck(tol=AUDIT_TOL))
        else:
            # per-block calls do the same work as one call, since every block
            # is seeded on its own; their spans give gradcheck.block.<name>.s
            reports = []
            for block in gc.BLOCKS:
                def one_block():
                    with tracer.span(f"gradcheck.block.{block}"):
                        return gc.run_gradcheck(tol=AUDIT_TOL, blocks=(block,))

                reports.extend(rnd.timed(block, one_block))
        self.reports.append(reports)
        return rnd

    def check(self, checks: Checks):
        for reports in self.reports:
            checks.expect(
                [r.name for r in reports] == list(self.gradcheck.BLOCKS), "audit skipped blocks"
            )
            for r in reports:
                checks.expect(r.passed, f"block {r.name} failed: max_rel_error {r.max_rel_error:.2e}")
        control = self.gradcheck.run_gradcheck(blocks=("encoder.kernel",), sabotage="encoder")
        checks.expect(
            len(control) == 1 and not control[0].passed, "sabotaged encoder.kernel audit passed"
        )

    def summary(self, rounds):
        last = self.reports[-1]
        out = {
            "audit_s": (float(np.median([r.corrected_s for r in rounds])), "s"),
            "raw.audit_s": (float(np.median([r.raw_s for r in rounds])), "s"),
        }
        for r in last:
            out[f"max_rel_error.{r.name}"] = (r.max_rel_error, "ratio")
        return out


WORKLOADS = {w.name: w for w in (TrainDesk, InferMulti, Audit)}
