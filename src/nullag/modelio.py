"""Strict JSON loading for material-model and generator files."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import em, micropolar, quasicrystal
from .rund import GeneratorSet, generator_set_from_json
from .tensors import Moduli, floats_from_json

__all__ = ["LoadedModel", "load_model", "load_input_file"]

_ISO_KEYS = ("lambda", "mu", "kappa", "beta1", "beta2", "beta3")


def _constants_moduli(*values: float) -> micropolar.MicropolarModuli:
    """Moduli of the isotropic or hemitropic constants; omitted chiral ones are 0."""
    return micropolar.HemitropicParams(*values).moduli()


#: model tag -> (fields, constructor).  Fields map each key to the flat
#: length of its tensor, or to None for a number; the constructor takes the
#: parsed fields in order and returns the moduli.  A moduli class's tag is
#: its FAMILY, with a key per field, its capitalized name.
_MODEL_TAGS = {
    **{moduli.FAMILY: ({name.capitalize(): 3**cls.order for name, (cls, _) in moduli.FIELDS.items()}, moduli)
       for moduli in (micropolar.MicropolarModuli, quasicrystal.QcModuli, em.EmModuli)},
    "micropolar_isotropic": (dict.fromkeys(_ISO_KEYS), _constants_moduli),
    "micropolar_hemitropic": (dict.fromkeys((*_ISO_KEYS, "zeta", "nu", "rho")), _constants_moduli),
}


@dataclass(frozen=True, eq=False)
class LoadedModel:
    kind: str
    moduli: Moduli

    @property
    def family(self) -> str:
        return self.moduli.FAMILY


def _scalar(obj: dict, key: str) -> float:
    value = obj[key]
    if type(value) not in (int, float):
        raise ValueError(f"field {key!r} must be a number")
    return float(floats_from_json([value], 1, f"field {key!r}")[0])


def load_model(obj: dict) -> LoadedModel:
    """Parse a model dictionary; unknown or missing keys are rejected."""
    if not isinstance(obj, dict):
        raise ValueError("model file must contain a JSON object")
    kind = obj.get("model")
    if not isinstance(kind, str) or kind not in _MODEL_TAGS:
        raise ValueError(f"unknown model tag {kind!r}; expected one of {sorted(_MODEL_TAGS)}")
    fields, build = _MODEL_TAGS[kind]
    keys = {"model", *fields}
    if set(obj) != keys:
        unknown = set(obj) - keys
        missing = keys - set(obj)
        parts = []
        if unknown:
            parts.append(f"unknown keys {sorted(unknown)}")
        if missing:
            parts.append(f"missing keys {sorted(missing)}")
        raise ValueError(f"model {kind!r}: " + "; ".join(parts))
    values = [
        _scalar(obj, key) if length is None else floats_from_json(obj[key], length, f"field {key!r}")
        for key, length in fields.items()
    ]
    return LoadedModel(kind, build(*values))


def _unique_keys(pairs: list) -> dict:
    """A JSON object whose keys are all distinct; a repeated key is a ValueError."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        repeated = next(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
        raise ValueError(f"input file repeats the key {repeated!r} in one object")
    return obj


def load_input_file(path: str | Path) -> LoadedModel | GeneratorSet:
    """Load either a model file (JSON object) or a generator file (JSON list);
    an object that repeats a key is rejected."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            obj = json.load(handle, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise ValueError("input file nests JSON arrays or objects too deeply to load") from None
    if isinstance(obj, list):
        return generator_set_from_json(obj)
    return load_model(obj)
