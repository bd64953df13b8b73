"""Pass/fail condition reports shared by the model-checking modules."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

DEFAULT_TOL_ABS = 1e-12
DEFAULT_TOL_REL = 1e-12


@dataclass(frozen=True)
class ConditionCheck:
    """One named linear condition with its worst observed violation."""

    name: str
    max_violation: float
    max_violation_rel: float
    tolerance: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "max_violation": self.max_violation,
            "max_violation_rel": self.max_violation_rel,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class ConditionReport:
    checks: tuple[ConditionCheck, ...]
    passed: bool
    extra: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        out = {
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }
        if self.extra:
            out.update(self.extra)
        return out

    def __getitem__(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def tensor_scale(t) -> float:
    """Magnitude that relative violations are measured against: the largest
    absolute entry, or 1.0 for an all-zero tensor."""
    return float(np.max(np.abs(t))) or 1.0


def make_check(
    name: str,
    violation: float,
    scale: float,
    tol_abs: float = DEFAULT_TOL_ABS,
    tol_rel: float = DEFAULT_TOL_REL,
) -> ConditionCheck:
    """Build a check; passes when the violation is within the absolute
    tolerance or within the relative tolerance of the tensor magnitude.

    Raises ValueError for an absolute tolerance that is negative or not
    finite, and for a violation that is not finite (moduli so close to the
    double limit that the violation overflowed), naming the condition."""
    if not (math.isfinite(tol_abs) and tol_abs >= 0.0):
        raise ValueError(f"absolute tolerance must be a finite number >= 0, got {tol_abs}")
    violation = float(violation)
    if not math.isfinite(violation):
        raise ValueError(f"condition {name!r}: violation overflows the double range")
    rel = violation / scale if scale > 0 else violation
    tolerance = max(tol_abs, tol_rel * scale)
    return ConditionCheck(name, violation, rel, tolerance, violation <= tolerance)


def make_report(checks: list[ConditionCheck], extra: dict | None = None) -> ConditionReport:
    return ConditionReport(tuple(checks), all(c.passed for c in checks), extra or {})
