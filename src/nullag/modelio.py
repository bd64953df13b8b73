"""Strict JSON loading for material-model and generator files."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import em, micropolar, quasicrystal
from .rund import GeneratorSet, generator_set_from_json

__all__ = ["LoadedModel", "load_model", "load_input_file"]

_MODEL_KEYS = {
    "micropolar": {"model", "A", "B", "D"},
    "micropolar_isotropic": {"model", "lambda", "mu", "kappa", "beta1", "beta2", "beta3"},
    "micropolar_hemitropic": {
        "model", "lambda", "mu", "kappa", "beta1", "beta2", "beta3", "zeta", "nu", "rho",
    },
    "quasicrystal": {"model", "C", "D", "E"},
    "em_elast": {"model", "C", "P", "Q", "Ediel", "Bperm", "Acpl"},
}

_SHAPES = {81: (3, 3, 3, 3), 27: (3, 3, 3), 9: (3, 3)}


@dataclass(frozen=True)
class LoadedModel:
    kind: str
    moduli: object
    family: str  # micropolar | quasicrystal | em_elast


def _array(obj: dict, key: str, length: int) -> np.ndarray:
    value = obj[key]
    if not isinstance(value, list) or len(value) != length:
        raise ValueError(f"field {key!r} must be a flat list of {length} numbers")
    return np.asarray(value, dtype=float).reshape(_SHAPES[length])


def _scalar(obj: dict, key: str) -> float:
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"field {key!r} must be a number")
    return float(value)


def load_model(obj: dict) -> LoadedModel:
    """Parse a model dictionary; unknown or missing keys are rejected."""
    if not isinstance(obj, dict):
        raise ValueError("model file must contain a JSON object")
    kind = obj.get("model")
    if kind not in _MODEL_KEYS:
        raise ValueError(f"unknown model tag {kind!r}; expected one of {sorted(_MODEL_KEYS)}")
    if set(obj) != _MODEL_KEYS[kind]:
        unknown = set(obj) - _MODEL_KEYS[kind]
        missing = _MODEL_KEYS[kind] - set(obj)
        parts = []
        if unknown:
            parts.append(f"unknown keys {sorted(unknown)}")
        if missing:
            parts.append(f"missing keys {sorted(missing)}")
        raise ValueError(f"model {kind!r}: " + "; ".join(parts))

    if kind == "micropolar":
        moduli = micropolar.MicropolarModuli(
            _array(obj, "A", 81), _array(obj, "B", 81), _array(obj, "D", 81)
        )
        return LoadedModel(kind, moduli, "micropolar")
    if kind == "micropolar_isotropic":
        params = micropolar.IsotropicParams(
            _scalar(obj, "lambda"), _scalar(obj, "mu"), _scalar(obj, "kappa"),
            _scalar(obj, "beta1"), _scalar(obj, "beta2"), _scalar(obj, "beta3"),
        )
        return LoadedModel(kind, params.moduli(), "micropolar")
    if kind == "micropolar_hemitropic":
        params = micropolar.HemitropicParams(
            _scalar(obj, "lambda"), _scalar(obj, "mu"), _scalar(obj, "kappa"),
            _scalar(obj, "beta1"), _scalar(obj, "beta2"), _scalar(obj, "beta3"),
            _scalar(obj, "zeta"), _scalar(obj, "nu"), _scalar(obj, "rho"),
        )
        return LoadedModel(kind, params.moduli(), "micropolar")
    if kind == "quasicrystal":
        moduli = quasicrystal.QcModuli(
            _array(obj, "C", 81), _array(obj, "D", 81), _array(obj, "E", 81)
        )
        return LoadedModel(kind, moduli, "quasicrystal")
    moduli = em.EmModuli(
        _array(obj, "C", 81), _array(obj, "P", 27), _array(obj, "Q", 27),
        _array(obj, "Ediel", 9), _array(obj, "Bperm", 9), _array(obj, "Acpl", 9),
    )
    return LoadedModel(kind, moduli, "em_elast")


def load_input_file(path: str | Path) -> LoadedModel | GeneratorSet:
    """Load either a model file (JSON object) or a generator file (JSON list)."""
    with open(path, "r", encoding="utf-8") as handle:
        obj = json.load(handle)
    if isinstance(obj, list):
        return generator_set_from_json(obj)
    return load_model(obj)

