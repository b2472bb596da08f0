"""A seeded mutation sweep over the input files the CLI reads: a `.chimol`
molecule, a dataset's `manifest.tsv` and a checkpoint. Each mutant runs
in-process through cli.main. No exception may escape, every exit code is
one of README's (0 ok, 1 check failed, 2 input error, 3 numeric error),
and no run takes a second. A failing mutant is a bug in the reader or the
command it feeds, never a mutant to drop.

Config files are left out: a mutated `h` or `epochs` is a valid request
for a huge run, not malformed input."""

import time

import numpy as np
import pytest

from checkpoint_edits import resign
from chiraldet.cli import main
from chiraldet.data import SyntheticSpec, gen_rs, toy_axial_molecule, write, write_dataset
from chiraldet.gradcheck import TINY_CONFIG
from chiraldet.model import AdamState, init_model, save_checkpoint

# what a token becomes: non-finite numbers, a negative, a zero and a
# large index, an empty field and a non-number
TOKENS = ("nan", "inf", "-1", "0", "99", "", "x")
EXIT_CODES = {0, 1, 2, 3}


def line_mutants(text: str, tokens=TOKENS):
    """(description, text) of every mutant of text with one space-separated
    token of a line replaced by each of `tokens`, or one line deleted or
    doubled, in line order."""
    lines = text.splitlines()
    for i, line in enumerate(lines):
        fields = line.split(" ")
        for j in range(len(fields)):
            for token in tokens:
                edited = " ".join(fields[:j] + [token] + fields[j + 1:])
                yield f"line {i} field {j} -> {token!r}", "\n".join(
                    lines[:i] + [edited] + lines[i + 1:]) + "\n"
        yield f"line {i} deleted", "\n".join(lines[:i] + lines[i + 1:]) + "\n"
        yield f"line {i} doubled", "\n".join(lines[:i + 1] + lines[i:]) + "\n"


def sweep(mutants, write_mutant, argv):
    """Write each mutant and run `argv` on it; returns (description, what
    went wrong) of every run that raised, exited outside EXIT_CODES or
    took a second or more, and the set of exit codes seen."""
    bad, codes = [], set()
    for description, content in mutants:
        write_mutant(content)
        began = time.perf_counter()
        try:
            code = main(argv)
        except (Exception, SystemExit) as exc:
            bad.append((description, repr(exc)))
            continue
        seconds = time.perf_counter() - began
        codes.add(code)
        if code not in EXIT_CODES or seconds >= 1.0:
            bad.append((description, f"exit {code} after {seconds:.2f} s"))
    return bad, codes


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """A directory holding the axial toy as toy.chimol, a four-molecule
    gen_rs dataset `ds` and a TINY_CONFIG checkpoint saved with its Adam
    state."""
    root = tmp_path_factory.mktemp("sweep")
    write(toy_axial_molecule(), root / "toy.chimol")
    write_dataset(gen_rs(SyntheticSpec(count=4, seed=0)), root / "ds")
    model = init_model(TINY_CONFIG)
    save_checkpoint(model, root / "tiny.ckpt", AdamState.for_model(model))
    return root


def test_chimol_mutants(inputs, tmp_path, capsys):
    """Every token and line mutant of the axial toy goes through
    `chirality`, and every tenth through `embed`."""
    path = tmp_path / "m.chimol"
    mutants = list(line_mutants((inputs / "toy.chimol").read_text()))
    bad, codes = sweep(mutants, path.write_text, ["chirality", str(path)])
    bad_embed, _ = sweep(mutants[::10], path.write_text,
                         ["embed", "--ckpt", str(inputs / "tiny.ckpt"), str(path)])
    capsys.readouterr()
    assert bad + bad_embed == []
    assert codes == {0, 2}


def test_manifest_mutants(inputs, tmp_path, capsys):
    """Every field and line mutant of the dataset's manifest.tsv, its
    fields split at tabs, goes through `eval` over the whole set."""
    ds = tmp_path / "ds"
    ds.mkdir()
    for item in (inputs / "ds").iterdir():
        (ds / item.name).write_bytes(item.read_bytes())
    text = (inputs / "ds" / "manifest.tsv").read_text().replace("\t", " ")
    mutants = [(d, m.replace(" ", "\t")) for d, m in
               line_mutants(text, ("", "x", "S", "degenerate", "../ds"))]
    bad, codes = sweep(mutants, (ds / "manifest.tsv").write_text,
                       ["eval", "--ckpt", str(inputs / "tiny.ckpt"), "--data", str(ds),
                        "--eval-split", "all"])
    capsys.readouterr()
    assert bad == []
    assert codes == {0, 2}


def checkpoint_mutants(blob: bytes):
    """(description, edit) of mutants of a checkpoint's signed bytes: each
    header value replaced, and seeded single bytes of the tensor table
    set to 0x00, 0xff or a flipped high bit."""
    end = blob.index(b"\n\n")
    header = blob[:end].split(b"\n")
    for i, line in enumerate(header[1:], start=1):
        key = line.split(b"=")[0]
        for value in (b"-1", b"1000000", b"9999999999999999999", b"x", b""):
            new = b"\n".join(header[:i] + [key + b"=" + value] + header[i + 1:])
            yield f"{key.decode()}={value.decode()}", lambda b, new=new: new + b[end:]
    rng = np.random.default_rng(27)
    for at in sorted(rng.choice(np.arange(end + 2, len(blob)), 30, replace=False)):
        for byte in (0x00, 0xff, blob[at] ^ 0x80):
            yield (f"table byte {at} -> {byte:#04x}",
                   lambda b, at=at, byte=byte: b[:at] + bytes([byte]) + b[at + 1:])


def test_checkpoint_mutants(inputs, tmp_path, capsys):
    """Every header-value and seeded table-byte mutant of the checkpoint,
    re-signed so that only the loader's content checks can object, goes
    through `embed`."""
    ckpt = tmp_path / "m.ckpt"
    signed = (inputs / "tiny.ckpt").read_bytes()[:-32]

    def write_mutant(edit):
        ckpt.write_bytes(signed + bytes(32))
        resign(ckpt, edit)

    bad, codes = sweep(checkpoint_mutants(signed), write_mutant,
                       ["embed", "--ckpt", str(ckpt), str(inputs / "toy.chimol")])
    capsys.readouterr()
    assert bad == []
    assert codes == {0, 2}
