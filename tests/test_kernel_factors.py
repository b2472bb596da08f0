"""The kernel bank's parameter-only factors (C, W_eff, C^T C, G, s), which
kernel_fwd keeps on the bank between calls: reused only while w and gamma
keep every bit, never read stale, read-only, and computed once per
parameter state by the forward-only and training paths."""

import copy
import pickle
from dataclasses import replace

import numpy as np
import pytest

from chiraldet import encoder
from chiraldet.data import SyntheticSpec, gen_rs, tile_molecules
from chiraldet.encoder import KernelBank, RankStrategy, init_kernel_bank, kernel_fwd, prepare_batch
from chiraldet.gradcheck import TINY_CONFIG
from chiraldet.model import TrainConfig, _run_stages, evaluate, init_model, train
from chiraldet.numerics import det3_batch


@pytest.fixture
def factors(monkeypatch):
    """(calls, computed): one entry per _bank_factors call, and the bank
    of each call that computed its factors rather than reading the kept
    ones."""
    calls, computed = [], []
    real = encoder._bank_factors

    def spy(bank):
        kept = bank._factors
        out = real(bank)
        calls.append(bank)
        if bank._factors is not kept:
            computed.append(bank)
        return out

    monkeypatch.setattr(encoder, "_bank_factors", spy)
    return calls, computed


def matrices(rng, n):
    m = rng.standard_normal((n, 3, 3))
    return m[np.abs(det3_batch(m)) > 0.3]


def tiled_set(count: int):
    """count two-unit molecules, each two gen_rs centres tiled, labelled
    by the first."""
    data = gen_rs(SyntheticSpec(count=2 * count, seed=8, spectator_range=(0, 3)))
    return [(tile_molecules([data[2 * i][0], data[2 * i + 1][0]]), data[2 * i][1])
            for i in range(count)]


@pytest.mark.parametrize(("field", "index", "value"),
                         [("w", (0, 1, 0), 0.25), ("gamma", (1,), 1.5), ("w", (0, 0, 0), -0.0)],
                         ids=["w", "gamma", "w-signed-zero"])
def test_in_place_edit_recomputes_and_matches_a_fresh_copy(factors, field, index, value):
    calls, computed = factors
    model = init_model(TINY_CONFIG)
    bank = model.encoder.kernels
    bank.w[0, 0, 0] = 0.0  # so that the signed-zero edit flips only the sign bit
    batch = prepare_batch([m for m, _ in tiled_set(3)])
    first = _run_stages(model, batch)[-1]["logits"]
    assert _run_stages(model, batch)[-1]["logits"].tobytes() == first.tobytes()
    assert (len(calls), len(computed)) == (2, 1)
    getattr(bank, field)[index] = value
    got = _run_stages(model, batch)[-1]["logits"]
    assert len(computed) == 2 and computed[1] is bank
    fresh = copy.deepcopy(model)
    assert fresh.encoder.kernels._factors is None
    want = _run_stages(fresh, batch)[-1]["logits"]
    assert len(computed) == 3
    assert got.tobytes() == want.tobytes()


def test_stacked_calls_neither_read_nor_leave_stale_factors(factors):
    """A (c, k, d_p, 3) w call, then a (c, 1, d_p) gamma call, on the bank
    between two single-bank calls, as the gradient audit sets its leaves."""
    calls, computed = factors
    rng = np.random.default_rng(3)
    bank = init_kernel_bank(rng, 3, 6)
    bank.gamma[:] = rng.uniform(0.5, 1.5, 6)
    w, gamma = bank.w, bank.gamma
    mc = matrices(rng, 8)
    before = kernel_fwd(bank, mc)[0]
    w_copies = np.stack([w, 1.5 * w])
    gamma_copies = np.stack([gamma, 0.5 * gamma])[:, None]
    bank.w = w_copies
    stacked_w = kernel_fwd(bank, mc)[0]
    bank.w, bank.gamma = w, gamma_copies
    stacked_gamma = kernel_fwd(bank, mc)[0]
    bank.gamma = gamma
    after = kernel_fwd(bank, mc)[0]
    assert len(calls) == len(computed) == 4
    assert after.tobytes() == before.tobytes()
    for c in range(2):
        lone_w = kernel_fwd(KernelBank(w=w_copies[c], gamma=gamma), mc)[0]
        lone_gamma = kernel_fwd(KernelBank(w=w, gamma=gamma_copies[c, 0]), mc)[0]
        assert stacked_w[c].tobytes() == lone_w.tobytes()
        assert stacked_gamma[c].tobytes() == lone_gamma.tobytes()


def test_kept_factors_are_read_only_and_not_copied():
    rng = np.random.default_rng(4)
    bank = init_kernel_bank(rng, 3, 6)
    kernel_fwd(bank, matrices(rng, 4))
    kept = bank._factors[1]
    assert len(kept) == 5
    for a in kept:
        with pytest.raises(ValueError, match="read-only"):
            a[...] = 0.0
    for other in (copy.copy(bank), copy.deepcopy(bank), pickle.loads(pickle.dumps(bank))):
        assert other._factors is None
        assert other.w.tobytes() == bank.w.tobytes()
        assert other.gamma.tobytes() == bank.gamma.tobytes()


def test_evaluate_computes_the_factors_once(factors):
    calls, computed = factors
    evaluate(init_model(TINY_CONFIG), tiled_set(40))
    assert (len(calls), len(computed)) == (5, 1)  # 5 chunks of EVAL_CHUNK 8


@pytest.mark.parametrize("strategy", [RankStrategy.QR_RETRACTION, RankStrategy.NONE])
def test_training_computes_the_factors_once_per_step(factors, strategy):
    """Each step's forward reads a changed bank: a new one after a QR
    retraction, or the same one that Adam wrote in place."""
    calls, computed = factors
    model = init_model(replace(TINY_CONFIG, rank_strategy=strategy))
    train(model, tiled_set(16), TrainConfig(epochs=1, batch_size=8))
    assert len(calls) == len(computed) == 2
    assert (computed[0] is computed[1]) == (strategy is RankStrategy.NONE)
