"""The benchmark's workloads call the package by name: reference_point,
unit_products, gen_axial(count, seed=...), embed, forward and
named_parameters among others. Building and running them here keeps those
calls working. The audit workload is left out, since other tests already
run full gradient audits."""

import importlib.util
import sys
from pathlib import Path

import pytest

import chiraldet
import chiraldet.gradcheck  # noqa: F401  the workloads reach it as pkg.gradcheck

WORKLOADS = Path(__file__).resolve().parents[1] / "benchmark" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("benchmark_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclass looks its module up there
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["train-desk", "infer-multi"])
def test_workload_round_passes_its_checks(workloads, tmp_path, name):
    workload = workloads.WORKLOADS[name](chiraldet, 1, tmp_path)
    workload.warmup()
    workload.round()
    checks = workloads.Checks()
    workload.check(checks)
    assert checks.attempted > 0
    assert checks.failures == []
