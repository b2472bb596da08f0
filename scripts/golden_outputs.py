#!/usr/bin/env python3
"""Write, from fixed seeds, every CLI output that a change meant to leave
the numbers alone must reproduce byte for byte, into OUT_DIR:

- `gradcheck --seed 1/2/3/7` stdout;
- `gradcheck --sabotage encoder/attention/model` stdout;
- a `gen` rs set, a `train --config tiny` checkpoint and `metrics.log`;
- `eval --mirror-check` stdout over that set;
- the `embed` and `attn` CSVs of that set and the `rotate-axis` CSV of
  `data.toy_axial_molecule()`, written to `axial_toy.chimol`;
- a `gen` axial set and the `rotate-axis` stdout of its first molecule;
- `audit_vectors.out`: per seed 1, 2, 3 and 7 and per audit block, the
  sha256 of the oracle's numeric vector, the sha256 of the analytic
  vector and the evaluation count, computed in this process;
- `backward_hashes.out`: the sha256 of every `backward_batch` gradient of
  a fixed mixed batch, at `TINY_CONFIG` and at the default config,
  computed in this process.

Each command's stdout and exit code go to `<step>.out`, its stderr to
`<step>.err`. Every command runs the chiraldet this script imports, with
OUT_DIR as its working directory and relative paths, so the outputs hold
no trace of where OUT_DIR is. Run it once against each tree and compare:

    PYTHONPATH=<tree a>/src python scripts/golden_outputs.py /tmp/a
    PYTHONPATH=<tree b>/src python scripts/golden_outputs.py /tmp/b
    diff -r /tmp/a /tmp/b
"""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import chiraldet
from chiraldet.data import (
    SyntheticSpec,
    gen_axial,
    gen_rs,
    tile_molecules,
    toy_axial_molecule,
    write,
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
    ("gen_axial", ["gen", "--task", "axial", "--count", "4", "--seed", "5",
                   "--out", "data_axial"]),
    ("rotate_axis_gen", ["rotate-axis", "data_axial/ax00000.chimol", "--ckpt",
                         "run/model.ckpt"]),
)


def audit_vectors() -> str:
    """One line per seed and block: the sha256 of the numeric and of the
    analytic gradient vector, and the number of loss evaluations."""
    lines = []
    for seed in (1, 2, 3, 7):
        for block in BLOCKS:
            arrays, analytic, at_point, finish = _CHECKS[block](block_rng(block, seed),
                                                                TINY_CONFIG)
            numeric = _oracle(arrays, at_point, finish)
            lines.append(f"seed={seed} {block} "
                         f"numeric={hashlib.sha256(numeric.tobytes()).hexdigest()} "
                         f"analytic={hashlib.sha256(analytic.tobytes()).hexdigest()} "
                         f"evaluations={2 * numeric.size}\n")
    return "".join(lines)


def backward_hashes() -> str:
    """One line per config and parameter: the sha256 of its backward_batch
    gradient under the classification loss of a padded batch of centres
    with 0-3 spectators, axes and tiled two- and three-unit molecules."""
    centres = [m for m, _ in gen_rs(SyntheticSpec(count=8, seed=61, spectator_range=(0, 3)))]
    axes = [m for m, _ in gen_axial(3, seed=62)]
    mols = centres[:4] + axes[:2] + [tile_molecules(centres[4:6]),
                                     tile_molecules(centres[6:] + axes[2:])]
    lines = []
    for tag, config in (("tiny", TINY_CONFIG), ("default", ModelConfig())):
        model = init_model(config)
        state = forward_batch(model, prepare_batch(mols))
        _, d_logits, _ = classify_loss([i % 2 for i in range(len(mols))],
                                       config.n_classes)(state.logits)
        for name, g in named_parameters(backward_batch(model, state, d_logits)):
            lines.append(f"{tag} {name} {hashlib.sha256(g.tobytes()).hexdigest()}\n")
    return "".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("out_dir", help="directory to write the outputs into (created)")
    out_dir = Path(ap.parse_args().out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write(toy_axial_molecule(), out_dir / "axial_toy.chimol")
    # absolute, since the commands run from OUT_DIR
    env = {**os.environ, "PYTHONPATH": str(Path(chiraldet.__file__).resolve().parents[1])}
    for name, argv in STEPS:
        proc = subprocess.run([sys.executable, "-m", "chiraldet.cli", *argv], cwd=out_dir,
                              env=env, capture_output=True, text=True)
        (out_dir / f"{name}.out").write_text(f"{proc.stdout}exit={proc.returncode}\n")
        (out_dir / f"{name}.err").write_text(proc.stderr)
        print(f"{name}: exit {proc.returncode}", file=sys.stderr)
    (out_dir / "audit_vectors.out").write_text(audit_vectors())
    print("audit_vectors: written", file=sys.stderr)
    (out_dir / "backward_hashes.out").write_text(backward_hashes())
    print("backward_hashes: written", file=sys.stderr)


if __name__ == "__main__":
    main()
