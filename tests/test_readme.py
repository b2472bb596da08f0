"""Every name README puts in backticks that points into the package
resolves there, so a rename or a removal that leaves README behind fails
here, as a stale import would."""

import importlib
import pkgutil
import re
from pathlib import Path

import chiraldet
from chiraldet.gradcheck import BLOCKS, TINY_CONFIG
from chiraldet.model import _tensor_table, init_model

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {m.name: importlib.import_module(f"chiraldet.{m.name}")
           for m in pkgutil.iter_modules(chiraldet.__path__)}
# dotted names README may spell that are no attribute: audit blocks, the
# v1 tensor names (encoder.kernel.beta included) and the checkpoint file
NOT_ATTRIBUTES = {*BLOCKS, *(n for n, _ in _tensor_table(init_model(TINY_CONFIG), None)),
                  "model.ckpt"}
DOTTED = re.compile(r"(?<![\w.])([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)")
SNAKE_CALL = re.compile(r"(?<![\w.])(_?[a-z][a-z0-9]*(?:_[a-z0-9]+)+)\(")


def _resolves(holder, path) -> bool:
    for part in path:
        if not hasattr(holder, part):
            return False
        holder = getattr(holder, part)
    return True


def stale_names(text: str) -> list:
    """The names of text's backticked spans, fenced blocks aside, that
    should resolve and do not: a dotted name whose first part is a package
    module and that is neither an attribute path from it nor one of
    NOT_ATTRIBUTES, and a snake_case call that is no attribute of the
    package or of one of its modules."""
    spans = re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S))
    stale = []
    for span in spans:
        for name in DOTTED.findall(span):
            first, *path = name.split(".")
            if (first in MODULES and name not in NOT_ATTRIBUTES
                    and not _resolves(MODULES[first], path)):
                stale.append(name)
        for name in SNAKE_CALL.findall(span):
            if not any(hasattr(m, name) for m in (chiraldet, *MODULES.values())):
                stale.append(name)
    return stale


def test_readme_names_resolve():
    assert stale_names(README.read_text()) == []


def test_a_stale_name_is_found():
    """The check itself: a removed function, dotted or called, shows; an
    audit block, a v1 tensor name, a non-module prefix and fenced code do
    not."""
    text = ("`model.forward_full` and `forward_full(model)`, `model.full_loss`, "
            "`encoder.kernel.beta`, `run/model.ckpt`, `x.mean`, `sqrt(det G)`,\n"
            "`encoder._bank_factors`, `prepare_batch(mols)`\n"
            "```\nmodel.gone\n```\n")
    assert stale_names(text) == ["model.forward_full", "forward_full"]
