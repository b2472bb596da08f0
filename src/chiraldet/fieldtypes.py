"""The one type rule of the frozen config dataclasses (ModelConfig,
TrainConfig, SyntheticSpec): each field holds a value of its annotation's
type, checked when the config is built."""

from __future__ import annotations

import numbers
import sys
from dataclasses import fields as dataclass_fields

from .encoder import RankStrategy

# The type authority of config fields, by annotation: the parser of a
# field's text, the values a built config's field may hold (a tuple of
# kinds, a tuple holding one value of each) and their noun. No config text
# sets a pair, so a pair has no parser.
_FIELD_TYPES = {"int": (int, numbers.Integral, "an integer"),
                "float": (float, numbers.Real, "a real number"),
                "RankStrategy": (RankStrategy, RankStrategy, "a RankStrategy"),
                "tuple[int, int]": (None, (numbers.Integral, numbers.Integral),
                                    "a pair of integers")}


def _holds(value, kind) -> bool:
    if isinstance(kind, tuple):
        return (isinstance(value, tuple) and len(value) == len(kind)
                and all(map(_holds, value, kind)))
    return isinstance(value, kind) and not isinstance(value, bool)


def check_types(config) -> None:
    """Each field of a config must hold a value of its annotation's type, no
    bool, and a float field one finite as a float64: else a float count
    fails inside numpy or range(), a huge int inside float(), naming no
    field, and a rank_strategy string skips the QR retraction."""
    for f in dataclass_fields(config):
        value = getattr(config, f.name)
        _, kind, noun = _FIELD_TYPES[f.type]
        if not _holds(value, kind):
            raise ValueError(f"{f.name} must be {noun}, got {value!r}")
        if f.type == "float" and not abs(value) <= sys.float_info.max:
            raise ValueError(f"{f.name} must be finite, got {value}")
