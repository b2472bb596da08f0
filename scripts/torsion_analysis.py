#!/usr/bin/env python3
"""Torsion sweep of the toy axially chiral molecule.

Trains a small classifier on randomized axial toys labeled by the sign of
the chirality product, then rotates one blade of the reference toy in
fixed increments and prints, per conformer: torsion angle, chirality
product, sign, and cosine similarity of the pooled embedding to the
0-degree conformer. The sweep splits into two contiguous sign arcs and the
embedding similarity is high within an arc and low across arcs."""

import argparse

import numpy as np

from chiraldet.data import gen_axial, gen_axial_torsion, toy_axial_molecule
from chiraldet.geometry import unit_products
from chiraldet.model import ModelConfig, TrainConfig, embed_rows, init_model, train


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--step", type=float, default=20.0)
    ap.add_argument("--train-count", type=int, default=300)
    ap.add_argument("--epochs", type=int, default=4)
    ap.add_argument("--seed", type=int, default=21)
    args = ap.parse_args()

    model = init_model(ModelConfig(h=32, d_p=16, n_layers=2, n_heads=2, n_gkpt=32,
                                   seed=args.seed))
    data = gen_axial(args.train_count, seed=args.seed)
    train(model, data, TrainConfig(lr=1e-3, epochs=args.epochs, batch_size=16), log=print)

    conformers = gen_axial_torsion(toy_axial_molecule(), args.step)
    vecs = embed_rows(model, conformers)
    ref = vecs[0]
    cos = vecs @ ref / (np.linalg.norm(vecs, axis=1) * np.linalg.norm(ref))

    print(f"{'angle':>6} {'product':>10} {'sign':>5} {'cos_to_0':>9}")
    signs = []
    for t, conf in enumerate(conformers):
        p = unit_products(conf)[0]
        signs.append(int(np.sign(p)))
        print(f"{t * args.step:6g} {p:10.4f} {signs[-1]:+5d} {cos[t]:9.4f}")

    same = np.array([s == signs[0] for s in signs])
    print(f"\nwithin-arc mean cosine: {cos[same][1:].mean():.4f}")
    print(f"across-arc mean cosine: {cos[~same].mean():.4f}")


if __name__ == "__main__":
    main()
