"""The in-process outputs of scripts/golden_outputs.py, held to committed
bytes: the audit's numeric and analytic vectors, every backward_batch
gradient and every forward_batch array, as sha256 lines.

The hashes bind the numpy and OpenBLAS that wrote them (numpy 2.4.6 with
scipy-openblas 0.3.31): another BLAS build may round differently and fail
here without any change to the code. They are identical at 1 and at 2
BLAS threads. A change that moves these numbers on
purpose regenerates the fixture, so its diff names every moved line:

    PYTHONPATH=src python3 scripts/golden_outputs.py /tmp/golden
    cp /tmp/golden/{audit_vectors,backward_hashes,forward_hashes}.out tests/golden/
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = ROOT / "tests" / "golden"
REGENERATE = ("PYTHONPATH=src python3 scripts/golden_outputs.py /tmp/golden && "
              "cp /tmp/golden/{audit_vectors,backward_hashes,forward_hashes}.out tests/golden/")


@pytest.fixture(scope="module")
def golden_script():
    spec = importlib.util.spec_from_file_location("golden_outputs",
                                                  ROOT / "scripts" / "golden_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def assert_matches_fixture(golden_script, name):
    """The script's `name` output, computed now, against its fixture file,
    failing with the lines that differ and the regenerate command."""
    got = getattr(golden_script, name)().splitlines()
    want = (FIXTURE / f"{name}.out").read_text().splitlines()
    differ = [f"  line {i + 1}:\n    want {w}\n    got  {g}"
              for i, (w, g) in enumerate(zip(want, got)) if w != g]
    if len(got) != len(want):
        differ.append(f"  {len(got)} lines, the fixture holds {len(want)}")
    if differ:
        pytest.fail(f"{name}.out differs from tests/golden/{name}.out:\n" + "\n".join(differ)
                    + f"\nto regenerate: {REGENERATE}", pytrace=False)


@pytest.mark.parametrize("name", ["audit_vectors", "backward_hashes", "forward_hashes"])
def test_in_process_outputs_match_fixture(golden_script, name):
    assert_matches_fixture(golden_script, name)


@pytest.mark.parametrize("name", ["backward_hashes", "forward_hashes"])
def test_outputs_read_from_kept_kernel_factors_match_fixture(golden_script, monkeypatch, name):
    """Each model the script initialises runs one forward_batch before it
    is returned, so every hashed forward reads the kernel factors that
    forward kept on the bank, and must give the same bytes."""
    init_model = golden_script.init_model
    batch = golden_script.prepare_batch(golden_script.mixed_batch())

    def warmed(config):
        model = init_model(config)
        golden_script.forward_batch(model, batch)
        assert model.encoder.kernels._factors is not None
        return model

    monkeypatch.setattr(golden_script, "init_model", warmed)
    assert_matches_fixture(golden_script, name)
