#!/usr/bin/env python3
"""Desk-scale R/S benchmark: generate a synthetic tetrahedral dataset,
train the default classifier, and report held-out accuracy plus the
mirror-consistency rate (how often the enantiomer of a correctly
classified molecule gets the opposite class)."""

import argparse
import time

from chiraldet.data import SyntheticSpec, gen_rs
from chiraldet.model import (
    ModelConfig,
    TrainConfig,
    init_model,
    mirror_consistency,
    train,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=2000)
    ap.add_argument("--epochs", type=int, default=6)
    ap.add_argument("--lr", type=float, default=5e-4)
    ap.add_argument("--batch-size", type=int, default=32)
    ap.add_argument("--seed", type=int, default=9)
    ap.add_argument("--hidden", type=int, default=64)
    args = ap.parse_args()

    dataset = gen_rs(SyntheticSpec(count=args.count, seed=args.seed))
    n_train = int(0.8 * len(dataset))
    n_val = int(0.1 * len(dataset))
    train_set = dataset[:n_train]
    val_set = dataset[n_train : n_train + n_val]
    test_set = dataset[n_train + n_val :]

    model = init_model(ModelConfig(h=args.hidden, seed=args.seed))
    cfg = TrainConfig(lr=args.lr, epochs=args.epochs, batch_size=args.batch_size)
    start = time.time()
    train(model, train_set, cfg, val_dataset=val_set, log=print)
    print(f"training took {time.time() - start:.0f}s")

    acc, flip = mirror_consistency(model, test_set)
    print(f"test accuracy          {acc:.4f}  (n={len(test_set)})")
    print(f"mirror flip rate       {flip:.4f}")


if __name__ == "__main__":
    main()
