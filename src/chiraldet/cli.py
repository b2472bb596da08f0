"""Command-line surface.

Subcommands: chirality, invariance, gradcheck, gen, train, eval, embed,
rotate-axis, attn. Exit codes: 0 success, 1 check failure, 2 input error,
3 internal numeric error. Reports go to stdout, diagnostics to stderr.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import replace
from dataclasses import fields as dataclass_fields
from pathlib import Path

import numpy as np

from . import data as data_mod
from .errors import ChiralDetError, MoleculeParseError, NumericError
from .geometry import (
    Configuration,
    assign_configuration,
    random_reflection,
    random_rotation,
    transform,
    unit_products,
)
from .gradcheck import TINY_CONFIG, run_gradcheck
from .model import (
    AdamState,
    ModelConfig,
    TrainConfig,
    attention_export_rows,
    check_feature_width,
    check_rank_penalty,
    embed_rows,
    evaluate,
    init_model,
    load_checkpoint,
    mirror_consistency,
    parse_config_value,
    save_checkpoint,
    train,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_NUMERIC_ERROR = 3

# --seed alone sets the seed, so it is no config file key
_MODEL_KEYS = {f.name for f in dataclass_fields(ModelConfig)} - {"seed"}
_TRAIN_KEYS = {f.name for f in dataclass_fields(TrainConfig)}


def read_config_file(path) -> dict:
    """key=value lines mirroring ModelConfig/TrainConfig field names, each
    value parsed by its field's annotation; a line that does not parse, or
    that sets a key an earlier line set, raises MoleculeParseError."""
    values, set_at = {}, {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise MoleculeParseError(f"expected key=value, got {line!r}", lineno)
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _MODEL_KEYS | _TRAIN_KEYS:
            raise MoleculeParseError(f"unknown config key {key!r}", lineno)
        if key in set_at:
            raise MoleculeParseError(f"config key {key!r} repeats line {set_at[key]}", lineno)
        set_at[key] = lineno
        try:
            values[key] = parse_config_value(ModelConfig if key in _MODEL_KEYS else TrainConfig,
                                             key, val)
        except ValueError:
            raise MoleculeParseError(f"config key {key!r} cannot take the value {val!r}",
                                     lineno) from None
    return values


def _load_config_arg(arg, seed: int, epochs, lr) -> tuple[ModelConfig, TrainConfig]:
    """The configs of a --config value (None, 'tiny' or a file), the seed and
    each of epochs and lr that is not None overriding the file; each config
    is checked once, when built, the model's first."""
    values = {} if arg in (None, "tiny") else read_config_file(arg)
    values.update((key, val) for key, val in (("epochs", epochs), ("lr", lr)) if val is not None)
    model_cfg = replace(TINY_CONFIG if arg == "tiny" else ModelConfig(), seed=seed,
                        **{key: val for key, val in values.items() if key in _MODEL_KEYS})
    return model_cfg, TrainConfig(**{key: val for key, val in values.items()
                                     if key in _TRAIN_KEYS})


def _write_or_print(text: str, out):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _csv_text(rows) -> str:
    """The rows as CSV text: a field holding a comma, a quote or a line
    break, such as a molecule id from a free comment line, is quoted, and
    every other field is written as it is."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_chirality(args) -> int:
    mol = data_mod.parse(args.file)
    for i, product in enumerate(unit_products(mol)):
        label = assign_configuration(product, args.tol)
        name = label.value if label is not Configuration.DEGENERATE else "Degenerate"
        print(f"unit {i}: P={product:+.6f} {name}")
    return EXIT_OK


def cmd_invariance(args) -> int:
    if args.trials < 1:
        raise ValueError(f"--trials must be >= 1, got {args.trials}")
    if args.seed < 0:
        raise ValueError(f"--seed must be >= 0, got {args.seed}")
    mol = data_mod.parse(args.file)
    products = unit_products(mol)
    live = [i for i, p in enumerate(products)
            if assign_configuration(p, args.tol) is not Configuration.DEGENERATE]
    for i, p in enumerate(products):
        if i not in live:
            print(f"warning: unit {i} is Degenerate (P={p:.3e}), sign check skipped",
                  file=sys.stderr)
    if not live:
        print(f"{'all units degenerate' if products else 'no chiral units'}; nothing to check")
        return EXIT_OK
    max_drift = 0.0
    flips = 0
    bad_seed = None
    for t in range(args.trials):
        rng = np.random.default_rng(args.seed + t)
        rigid = transform(mol, random_rotation(rng), rng.uniform(-10, 10, 3))
        reflected = transform(mol, random_reflection(rng), rng.uniform(-10, 10, 3))
        p_rigid = unit_products(rigid)
        p_refl = unit_products(reflected)
        ok = True
        for i in live:
            drift = abs(p_rigid[i] - products[i]) / abs(products[i])
            max_drift = max(max_drift, drift)
            if drift >= 1e-9 or np.sign(p_refl[i]) != -np.sign(products[i]):
                ok = False
        if ok:
            flips += 1
        elif bad_seed is None:
            bad_seed = args.seed + t
    flip_rate = flips / args.trials
    status = "PASS" if max_drift < 1e-9 and flip_rate == 1.0 else "FAIL"
    print(f"{status} trials={args.trials} max_drift={max_drift:.3e} flip_rate={flip_rate:.4f}")
    if status == "FAIL":
        print(f"first offending transform seed: {bad_seed}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_gradcheck(args) -> int:
    reports = run_gradcheck(seed=args.seed, tol=args.tol, sabotage=args.sabotage)
    failed = [r for r in reports if not r.passed]
    for r in reports:
        if r.passed:
            print(f"PASS {r.name} max_rel_error={r.max_rel_error:.3e}")
        else:
            print(f"FAIL {r.name} max_rel_error={r.max_rel_error:.3e} worst={r.worst}")
        if args.verbose:
            print(f"{r.name} took {r.evaluations} evaluations in {r.seconds:.3f} s",
                  file=sys.stderr)
    if failed:
        print("failed blocks: " + ", ".join(r.name for r in failed), file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_gen(args) -> int:
    fields = dict(count=args.count, min_abs_product=args.min_product, seed=args.seed)
    if args.spectators is not None:  # else the generator's own default
        fields["spectator_range"] = (0, args.spectators)
    if args.task == "rs":
        dataset = data_mod.gen_rs(data_mod.SyntheticSpec(**fields))
    else:
        dataset = data_mod.gen_axial(**fields)
    manifest = data_mod.write_dataset(dataset, args.out or f"dataset_{args.task}")
    print(f"wrote {len(dataset)} molecules to {manifest.parent} (manifest: {manifest})")
    return EXIT_OK


def _split_dataset(dataset, split: str):
    try:
        fracs = [float(x) for x in split.split(",")]
    except ValueError:
        fracs = []  # a fraction that is not a number fails the check below
    if (len(fracs) != 3 or not np.isfinite(fracs).all() or abs(sum(fracs) - 1.0) > 1e-9
            or min(fracs) < 0):
        raise ValueError(f"--split must be three fractions summing to 1, got {split!r}")
    n = len(dataset)
    n_train = int(round(fracs[0] * n))
    n_val = int(round(fracs[1] * n))
    return (
        dataset[:n_train],
        dataset[n_train : n_train + n_val],
        dataset[n_train + n_val :],
    )


def cmd_train(args) -> int:
    dataset = data_mod.read_manifest(args.data)
    model_cfg, train_cfg = _load_config_arg(args.config, args.seed, args.epochs, args.lr)
    check_rank_penalty(model_cfg.rank_strategy, train_cfg.reg_weight)
    check_feature_width(model_cfg.d_f, dataset)
    train_set, val_set, _ = _split_dataset(dataset, args.split)
    if not train_set:
        raise ValueError(f"--split {args.split} leaves no training molecule")
    out_dir = Path(args.out or "out")
    out_dir.mkdir(parents=True, exist_ok=True)
    model = init_model(model_cfg)
    adam = AdamState.for_model(model)
    with open(out_dir / "metrics.log", "a") as metrics:
        def log(line):
            metrics.write(line + "\n")
            metrics.flush()
            print(line)

        train(model, train_set, train_cfg, val_dataset=val_set or None, adam=adam, log=log)
    ckpt = out_dir / "model.ckpt"
    save_checkpoint(model, ckpt, adam)
    print(f"checkpoint: {ckpt}")
    return EXIT_OK


def cmd_eval(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    dataset = data_mod.read_manifest(args.data)
    splits = dict(zip(("train", "val", "test"), _split_dataset(dataset, args.split)))
    splits["all"] = dataset
    subset = splits[args.eval_split]
    if not subset:
        raise ValueError(f"split {args.eval_split!r} is empty")
    if args.mirror_check:
        acc, flip = mirror_consistency(model, subset)
    else:
        acc = evaluate(model, subset)
    print(f"accuracy={acc:.4f} n={len(subset)}")
    if args.mirror_check:
        print(f"mirror_flip_rate={flip:.4f}")
    return EXIT_OK


def _input_molecules(args) -> list:
    mols = []
    for item in args.inputs:
        p = Path(item)
        if p.is_dir():
            mols += [mol for mol, _ in data_mod.read_manifest(p)]
        else:
            mols.append(data_mod.parse(p))
    return mols


def cmd_embed(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    mols = _input_molecules(args)
    rows = [["id", *(f"e{i}" for i in range(model.config.h))]]
    rows += [[mol.id, *(f"{x:.10g}" for x in vec)]
             for mol, vec in zip(mols, embed_rows(model, mols))]
    _write_or_print(_csv_text(rows), args.out)
    return EXIT_OK


def cmd_attn(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    mols = _input_molecules(args)
    rows = [["id", "query", "weights"]]
    for mol, (keys, weights) in zip(mols, attention_export_rows(model, mols)):
        rows.append([mol.id, "keys", *keys])
        rows += [[mol.id, q, *(f"{x:.10g}" for x in row)] for q, row in enumerate(weights)]
    _write_or_print(_csv_text(rows), args.out)
    return EXIT_OK


def cmd_rotate_axis(args) -> int:
    model, _ = load_checkpoint(args.ckpt)
    base = data_mod.parse(args.file)
    conformers = data_mod.gen_axial_torsion(base, args.step)
    vecs = embed_rows(model, conformers)
    ref = vecs[0]
    lines = ["angle_deg,cosine_to_first,product_sign"]
    for t, (conf, vec) in enumerate(zip(conformers, vecs)):
        cos = float(ref @ vec / (np.linalg.norm(ref) * np.linalg.norm(vec)))
        sign = int(np.sign(unit_products(conf)[0]))
        lines.append(f"{t * args.step:g},{cos:.6f},{sign:+d}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chiraldet",
        description="Chirality-aware molecular representations from determinant kernels",
    )
    # one parent parser per shared flag; a command takes as parents only the
    # flags its cmd_* reads
    seed, out, config, verbose = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    seed.add_argument("--seed", type=int, default=0, help="random seed")
    out.add_argument("--out", default=None, help="output path")
    config.add_argument("--config", default=None, help="config file of key=value lines, or 'tiny'")
    verbose.add_argument("--verbose", action="store_true", help="extra diagnostics on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("chirality", help="chirality products and R/S labels of a molecule file")
    p.add_argument("file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_chirality)

    p = sub.add_parser("invariance", parents=[seed],
                       help="audit rigid-motion invariance and reflection sign flips")
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_invariance)

    p = sub.add_parser("gradcheck", parents=[verbose],
                       help="audit every backward pass against finite differences")
    # its own --seed: the block seed, 1 by default as for run_gradcheck()
    p.add_argument("--seed", type=int, default=1, help="block seed of the audited points")
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--sabotage", default=None, metavar="BLOCK",
                   help="corrupt matching blocks' gradients (negative control)")
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("gen", parents=[seed, out], help="generate a synthetic dataset")
    p.add_argument("--task", choices=("rs", "axial"), default="rs")
    p.add_argument("--count", type=int, default=2000)
    p.add_argument("--min-product", type=float, default=0.5, dest="min_product")
    p.add_argument("--spectators", type=int, default=None,
                   help="most spectator atoms per molecule (default: 3 for rs, 2 for axial)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", parents=[seed, out, config],
                       help="train a classifier on a dataset")
    p.add_argument("--data", required=True, help="dataset directory or manifest path")
    p.add_argument("--split", default="0.8,0.1,0.1")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", type=float, default=None)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--split", default="0.8,0.1,0.1")
    p.add_argument("--eval-split", choices=("train", "val", "test", "all"),
                   default="test", dest="eval_split")
    p.add_argument("--mirror-check", action="store_true", dest="mirror_check")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("embed", parents=[out],
                       help="write pooled embeddings as comma-separated rows")
    p.add_argument("--ckpt", required=True)
    p.add_argument("inputs", nargs="+", help="molecule files or dataset directories")
    p.set_defaults(func=cmd_embed)

    p = sub.add_parser("rotate-axis", parents=[out],
                       help="torsion sweep: angle, embedding similarity, product sign")
    p.add_argument("file")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--step", type=float, default=20.0)
    p.set_defaults(func=cmd_rotate_axis)

    p = sub.add_parser("attn", parents=[out],
                       help="export final-layer head-averaged attention rows")
    p.add_argument("--ckpt", required=True)
    p.add_argument("inputs", nargs="+")
    p.set_defaults(func=cmd_attn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # an overflow is reported by the finiteness checks, which name the
        # molecule, so numpy's warnings would only repeat it on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            return args.func(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC_ERROR
    except (OSError, ValueError, ChiralDetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
