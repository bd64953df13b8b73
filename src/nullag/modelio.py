"""Strict JSON loading for material-model and generator files."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import em, micropolar, quasicrystal
from .report import ConditionReport
from .rund import GeneratorSet, generator_set_from_json
from .verifier import QuadraticLagrangian

__all__ = ["LoadedModel", "load_model", "load_input_file"]

#: family -> (module, name of its null-condition check).  Each module also
#: defines `lagrangian(moduli)`.  Both are looked up on the module at call
#: time, so a replaced module attribute takes effect.
_FAMILIES = {
    "micropolar": (micropolar, "check_null_sufficient"),
    "quasicrystal": (quasicrystal, "check_qc_null"),
    "em_elast": (em, "check_em_null"),
}

_ISO_KEYS = ("lambda", "mu", "kappa", "beta1", "beta2", "beta3")


def _constants_moduli(*values: float) -> micropolar.MicropolarModuli:
    """Moduli of the isotropic or hemitropic constants; omitted chiral ones are 0."""
    return micropolar.HemitropicParams(*values).moduli()


#: model tag -> (family, fields, constructor).  Fields map each key to the
#: flat length of its tensor, or to None for a number; the constructor takes
#: the parsed fields in order and returns the family's moduli.
_MODEL_TAGS = {
    "micropolar": ("micropolar", {"A": 81, "B": 81, "D": 81}, micropolar.MicropolarModuli),
    "micropolar_isotropic": ("micropolar", dict.fromkeys(_ISO_KEYS), _constants_moduli),
    "micropolar_hemitropic": ("micropolar", dict.fromkeys((*_ISO_KEYS, "zeta", "nu", "rho")), _constants_moduli),
    "quasicrystal": ("quasicrystal", {"C": 81, "D": 81, "E": 81}, quasicrystal.QcModuli),
    "em_elast": (
        "em_elast",
        {"C": 81, "P": 27, "Q": 27, "Ediel": 9, "Bperm": 9, "Acpl": 9},
        em.EmModuli,
    ),
}

_SHAPES = {81: (3, 3, 3, 3), 27: (3, 3, 3), 9: (3, 3)}


@dataclass(frozen=True)
class LoadedModel:
    kind: str
    moduli: object
    family: str  # a key of _FAMILIES

    def check(self, tol_abs: float) -> ConditionReport:
        """Run the family's null-condition check on the moduli."""
        module, name = _FAMILIES[self.family]
        return getattr(module, name)(self.moduli, tol_abs=tol_abs)

    def lagrangian(self) -> QuadraticLagrangian:
        """The family's quadratic density for the moduli."""
        return _FAMILIES[self.family][0].lagrangian(self.moduli)


def _floats(key: str, value) -> np.ndarray:
    """JSON numbers as floats; an integer beyond the double range is a ValueError."""
    try:
        return np.asarray(value, dtype=float)
    except OverflowError:
        raise ValueError(f"field {key!r} holds a number outside the double range") from None


def _array(obj: dict, key: str, length: int) -> np.ndarray:
    value = obj[key]
    # Exact types: JSON gives bool for true/false, which must not read as 1/0.
    if not isinstance(value, list) or len(value) != length or not set(map(type, value)) <= {int, float}:
        raise ValueError(f"field {key!r} must be a flat list of {length} numbers")
    return _floats(key, value).reshape(_SHAPES[length])


def _scalar(obj: dict, key: str) -> float:
    value = obj[key]
    if type(value) not in (int, float):
        raise ValueError(f"field {key!r} must be a number")
    return float(_floats(key, value))


def load_model(obj: dict) -> LoadedModel:
    """Parse a model dictionary; unknown or missing keys are rejected."""
    if not isinstance(obj, dict):
        raise ValueError("model file must contain a JSON object")
    kind = obj.get("model")
    if not isinstance(kind, str) or kind not in _MODEL_TAGS:
        raise ValueError(f"unknown model tag {kind!r}; expected one of {sorted(_MODEL_TAGS)}")
    family, fields, build = _MODEL_TAGS[kind]
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
        _scalar(obj, key) if length is None else _array(obj, key, length)
        for key, length in fields.items()
    ]
    return LoadedModel(kind, build(*values), family)


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
