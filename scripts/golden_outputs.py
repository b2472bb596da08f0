#!/usr/bin/env python3
"""Write, from fixed seeds, every CLI output that a change meant to leave
the numbers alone must reproduce byte for byte, into OUT_DIR:

- `gradcheck --seed 1/2/3/7` stdout;
- `gradcheck --sabotage encoder/attention/model` stdout;
- a `gen` rs set, a `train --config tiny` checkpoint and `metrics.log`;
- `eval --mirror-check` stdout over that set;
- the `embed` and `attn` CSVs of that set, and the `rotate-axis` CSV and
  the `chirality` and `invariance --trials 50` stdout of
  `data.toy_axial_molecule()`, written to `axial_toy.chimol`;
- a `gen` axial set and the `rotate-axis` stdout of its first molecule;
- the exit-3 `embed` of `data_overflow`, a written 3-molecule rs set
  whose second molecule's coordinates are scaled by 1e150;
- `audit_vectors.out`: per seed 1, 2, 3 and 7 and per audit block, the
  sha256 of the oracle's numeric vector, the sha256 of the analytic
  vector and the evaluation count, computed in this process;
- `backward_hashes.out`: the sha256 of every `backward_batch` gradient of
  a fixed mixed batch, at `TINY_CONFIG` and at the default config,
  computed in this process;
- `forward_hashes.out`: the sha256 of every array `forward_batch` writes
  over that batch at both configs, by stage index and array name, read
  from `BatchState.outputs` alone; then the same at the default config
  with one head, over that batch and over one token-only molecule, whose
  softmax is a single row.

Each command runs in this process through `cli.main(argv)`, with OUT_DIR
as the working directory and relative paths, so the outputs hold no trace
of where OUT_DIR is. Its stdout and exit code go to `<step>.out`, its
stderr to `<step>.err`. `golden.sha256` lists, as `sha256  path` lines,
every file the CLI steps and their inputs leave in OUT_DIR; the tier-1
`tests/test_golden.py` holds them to the committed `tests/golden.sha256`.
OUT_DIR must be new or empty, because `train` appends to `metrics.log`.
Run it once against each tree and compare:

    PYTHONPATH=<tree a>/src python scripts/golden_outputs.py /tmp/a
    PYTHONPATH=<tree b>/src python scripts/golden_outputs.py /tmp/b
    diff -r /tmp/a /tmp/b
"""

import argparse
import hashlib
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from pathlib import Path

from chiraldet import cli
from chiraldet.data import (
    SyntheticSpec,
    gen_axial,
    gen_rs,
    tile_molecules,
    toy_axial_molecule,
    write,
    write_dataset,
)
from chiraldet.encoder import prepare_batch
from chiraldet.gradcheck import _CHECKS, BLOCKS, TINY_CONFIG, _oracle, block_rng
from chiraldet.model import (
    ModelConfig,
    backward_batch,
    classify_loss,
    forward_batch,
    init_model,
    named_parameters,
)

STEPS = (
    *((f"gradcheck_seed{s}", ["gradcheck", "--seed", str(s)]) for s in (1, 2, 3, 7)),
    *((f"gradcheck_sabotage_{b}", ["gradcheck", "--sabotage", b])
      for b in ("encoder", "attention", "model")),
    ("gen_rs", ["gen", "--task", "rs", "--count", "40", "--seed", "5", "--out", "data_rs"]),
    ("train", ["train", "--data", "data_rs", "--config", "tiny", "--epochs", "3",
               "--seed", "3", "--out", "run"]),
    ("eval", ["eval", "--ckpt", "run/model.ckpt", "--data", "data_rs", "--eval-split", "all",
              "--mirror-check"]),
    ("embed", ["embed", "--ckpt", "run/model.ckpt", "data_rs", "--out", "embed.csv"]),
    ("attn", ["attn", "--ckpt", "run/model.ckpt", "data_rs", "--out", "attn.csv"]),
    ("rotate_axis", ["rotate-axis", "axial_toy.chimol", "--ckpt", "run/model.ckpt",
                     "--out", "rotate_axis.csv"]),
    ("chirality", ["chirality", "axial_toy.chimol"]),
    ("invariance", ["invariance", "axial_toy.chimol", "--trials", "50"]),
    ("gen_axial", ["gen", "--task", "axial", "--count", "4", "--seed", "5",
                   "--out", "data_axial"]),
    ("rotate_axis_gen", ["rotate-axis", "data_axial/ax00000.chimol", "--ckpt",
                         "run/model.ckpt"]),
    ("embed_overflow", ["embed", "--ckpt", "run/model.ckpt", "data_overflow"]),
)


def sha256(arr) -> str:
    return hashlib.sha256(arr.tobytes()).hexdigest()


def audit_vectors() -> str:
    """One line per seed and block: the sha256 of the numeric and of the
    analytic gradient vector, and the number of loss evaluations."""
    lines = []
    for seed in (1, 2, 3, 7):
        for block in BLOCKS:
            arrays, analytic, losses = _CHECKS[block](block_rng(block, seed))
            numeric = _oracle(arrays, losses)
            lines.append(f"seed={seed} {block} "
                         f"numeric={sha256(numeric)} analytic={sha256(analytic)} "
                         f"evaluations={2 * numeric.size}\n")
    return "".join(lines)


CONFIGS = (("tiny", TINY_CONFIG), ("default", ModelConfig()))
ONE_HEAD = ModelConfig(n_heads=1)


def overflow_set() -> list:
    """Three gen_rs molecules, the second with its coordinates scaled by
    1e150, so its kernel readout overflows."""
    mols = gen_rs(SyntheticSpec(count=3, seed=0))
    mol, label = mols[1]
    mols[1] = (replace(mol, coords=mol.coords * 1e150), label)
    return mols


def mixed_batch() -> list:
    """A padded batch of centres with 0-3 spectators, axes and tiled two-
    and three-unit molecules."""
    centres = [m for m, _ in gen_rs(SyntheticSpec(count=8, seed=61, spectator_range=(0, 3)))]
    axes = [m for m, _ in gen_axial(3, seed=62)]
    return centres[:4] + axes[:2] + [tile_molecules(centres[4:6]),
                                     tile_molecules(centres[6:] + axes[2:])]


def lone_batch() -> list:
    """The last mixed_batch() molecule without its chiral units: at one
    head, its attention is one softmax row over its 21 keys."""
    return [replace(mixed_batch()[-1], chiral_units=())]


def backward_hashes() -> str:
    """One line per config and parameter: the sha256 of its backward_batch
    gradient under the classification loss of mixed_batch()."""
    mols = mixed_batch()
    lines = []
    for tag, config in CONFIGS:
        model = init_model(config)
        state = forward_batch(model, prepare_batch(mols))
        _, d_logits, _ = classify_loss([i % 2 for i in range(len(mols))],
                                       config.n_classes)(state.logits)
        for name, g in named_parameters(backward_batch(model, state, d_logits)):
            lines.append(f"{tag} {name} {sha256(g)}\n")
    return "".join(lines)


def forward_hashes() -> str:
    """One line per config, stage and array it wrote: the sha256 of each
    array forward_batch writes over mixed_batch(), then over mixed_batch()
    and lone_batch() at ONE_HEAD."""
    mixed = mixed_batch()
    runs = [(tag, config, mixed) for tag, config in CONFIGS]
    runs += [("default-1head", ONE_HEAD, mixed), ("default-1head-lone", ONE_HEAD, lone_batch())]
    lines = []
    for tag, config, mols in runs:
        for t, out in enumerate(forward_batch(init_model(config), prepare_batch(mols)).outputs):
            lines += [f"{tag} {t} {name} {sha256(arr)}\n" for name, arr in out.items()]
    return "".join(lines)


def run_cli_steps(out_dir) -> str:
    """Write the CLI steps' inputs into out_dir, run every step there in
    this process, and return the digest of every file they leave, one
    `sha256  path` line per file in path order."""
    out_dir = Path(out_dir)
    write(toy_axial_molecule(), out_dir / "axial_toy.chimol")
    write_dataset(overflow_set(), out_dir / "data_overflow")
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        for name, argv in STEPS:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(argv)
            Path(f"{name}.out").write_text(f"{out.getvalue()}exit={code}\n")
            Path(f"{name}.err").write_text(err.getvalue())
            print(f"{name}: exit {code}", file=sys.stderr)
    finally:
        os.chdir(cwd)
    files = sorted(p.relative_to(out_dir).as_posix() for p in out_dir.rglob("*") if p.is_file())
    return "".join(f"{hashlib.sha256((out_dir / f).read_bytes()).hexdigest()}  {f}\n"
                   for f in files)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out_dir", help="directory to write the outputs into (created)")
    out_dir = Path(ap.parse_args().out_dir)
    if out_dir.exists() and any(out_dir.iterdir()):
        ap.error(f"{out_dir} is not empty")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "golden.sha256").write_text(run_cli_steps(out_dir))
    (out_dir / "audit_vectors.out").write_text(audit_vectors())
    print("audit_vectors: written", file=sys.stderr)
    (out_dir / "backward_hashes.out").write_text(backward_hashes())
    print("backward_hashes: written", file=sys.stderr)
    (out_dir / "forward_hashes.out").write_text(forward_hashes())
    print("forward_hashes: written", file=sys.stderr)


if __name__ == "__main__":
    main()
