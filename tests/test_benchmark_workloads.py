"""The benchmark's workloads call the package by name: reference_point,
unit_products, gen_axial(count, seed=...), embed, forward and
named_parameters among others. Building and running them here keeps those
calls working. The audit workload is left out, since other tests already
run full gradient audits. The benchmark's tracer wraps module attributes,
so the forward and backward must reach the functions it times by module
name; a test counts those calls."""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import chiraldet
import chiraldet.gradcheck  # noqa: F401  the workloads reach it as pkg.gradcheck
from chiraldet.data import SyntheticSpec, gen_rs
from chiraldet.encoder import prepare_batch
from chiraldet.gradcheck import TINY_CONFIG
from chiraldet.model import backward_batch, forward_batch, init_model

BENCHMARK = Path(__file__).resolve().parents[1] / "benchmark"


def load(name):
    """benchmark/<name>.py as a module, registered in sys.modules (where
    dataclass looks its module up) until the caller deletes it."""
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARK / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    module = load("workloads")
    yield module
    del sys.modules[module.__name__]


@pytest.mark.parametrize("name", ["train-desk", "infer-multi"])
def test_workload_round_passes_its_checks(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](chiraldet, 1, tmp_path)
    workload.warmup()
    workload.round()
    checks = workloads.Checks()
    workload.check(checks)
    assert checks.attempted > 0
    assert checks.failures == []


def test_tracer_sees_every_stage_call():
    """One forward_batch and one backward_batch of a two-layer tiny model
    under the benchmark's tracer: each traced function is counted once per
    call that the stages make, 6 mlp2 calls being the three projectors,
    the two feed-forwards and the head."""
    spans = load("spans")
    model = init_model(TINY_CONFIG)
    assert len(model.layers) == 2
    batch = prepare_batch([m for m, _ in gen_rs(SyntheticSpec(count=3, seed=4))])
    tracer = spans.Tracer()
    tracer.install()
    try:
        state = forward_batch(model, batch)
        backward_batch(model, state, np.ones_like(state.logits))
    finally:
        tracer.uninstall()
        del sys.modules[spans.__name__]
    calls = {name: int(counts[0][0]) for name, counts in tracer.totals().items()}
    expect = {"encoder.kernel_fwd": 1, "encoder.kernel_bwd": 1, "encoder.mlp2_fwd": 6,
              "encoder.mlp2_bwd": 6, "attention.attend_fwd": 2, "attention.attend_bwd": 2,
              "attention.pair_bias_fwd": 1, "attention.pair_bias_bwd": 1}
    assert {name: calls.get(name, 0) for name in expect} == expect
