"""Strict JSON loading for material-model and generator files."""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from . import em, micropolar, quasicrystal
from .report import ConditionReport
from .rund import GeneratorSet, generator_set_from_json
from .tensors import Moduli, floats_from_json
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


def _tensor_tag(family: str, moduli: type[Moduli]) -> tuple:
    """The tag of a family's moduli tensors: each field is read from the key
    of its capitalized name as a flat list of 3**order numbers."""
    return family, {name.capitalize(): 3**cls.order for name, (cls, _) in moduli.FIELDS.items()}, moduli


#: model tag -> (family, fields, constructor).  Fields map each key to the
#: flat length of its tensor, or to None for a number; the constructor takes
#: the parsed fields in order and returns the family's moduli.
_MODEL_TAGS = {
    "micropolar": _tensor_tag("micropolar", micropolar.MicropolarModuli),
    "micropolar_isotropic": ("micropolar", dict.fromkeys(_ISO_KEYS), _constants_moduli),
    "micropolar_hemitropic": ("micropolar", dict.fromkeys((*_ISO_KEYS, "zeta", "nu", "rho")), _constants_moduli),
    "quasicrystal": _tensor_tag("quasicrystal", quasicrystal.QcModuli),
    "em_elast": _tensor_tag("em_elast", em.EmModuli),
}


@dataclass(frozen=True, eq=False)
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
        _scalar(obj, key) if length is None else floats_from_json(obj[key], length, f"field {key!r}")
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
