"""Pass/fail condition reports shared by the model-checking modules."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

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
        return dict(vars(self))


@dataclass(frozen=True)
class ConditionReport:
    checks: tuple[ConditionCheck, ...]
    passed: bool

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [c.as_dict() for c in self.checks],
        }

    def __getitem__(self, name: str) -> ConditionCheck:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def tensor_scale(t) -> float:
    """Magnitude that relative violations are measured against: the largest
    absolute entry, or 1.0 for an all-zero tensor."""
    return float(np.max(np.abs(t))) or 1.0


def as_tolerance(value, what: str) -> float:
    """`value` as a float if a finite real number >= 0, not a bool; else a ValueError names `what`."""
    # float first: the usual argument then skips the slower abstract-class check
    if isinstance(value, bool) or not isinstance(value, (float, numbers.Real)) or not math.isfinite(value) or value < 0:
        raise ValueError(f"{what} must be a finite number >= 0, got {value}")
    return float(value)


def make_check(name: str, violation: float, scale: float, tol_abs: float = DEFAULT_TOL_ABS) -> ConditionCheck:
    """Build a check; passes when the violation is within the absolute
    tolerance or within DEFAULT_TOL_REL of the tensor magnitude.

    Raises ValueError for an absolute tolerance that `as_tolerance`
    rejects, and for a violation that is not finite (moduli so close to the
    double limit that the violation overflowed), naming the condition."""
    tol_abs = as_tolerance(tol_abs, "absolute tolerance")
    violation = float(violation)
    if not math.isfinite(violation):
        raise ValueError(f"condition {name!r}: violation overflows the double range")
    rel = violation / scale if scale > 0 else violation
    tolerance = max(tol_abs, DEFAULT_TOL_REL * scale)
    return ConditionCheck(name, violation, rel, tolerance, violation <= tolerance)


def make_report(checks: list[ConditionCheck]) -> ConditionReport:
    return ConditionReport(tuple(checks), all(c.passed for c in checks))


def check_conditions(tensors: dict, conditions, tol_abs: float) -> ConditionReport:
    """Report an ordered condition system on named tensors.

    Each condition is (check name, tensor key, linear map), and the map of
    the tensor vanishes exactly when the condition holds: its largest
    absolute entry is the violation, measured against `tensor_scale` of
    that tensor.  Maps of entries near the double limit can overflow; the
    first condition, in order, whose violation is not finite raises."""
    scales = {key: tensor_scale(t) for key, t in tensors.items()}
    with np.errstate(over="ignore", invalid="ignore"):
        violations = [np.abs(linear(tensors[key])).max(initial=0.0) for _, key, linear in conditions]
    return make_report([make_check(name, v, scales[key], tol_abs)
                        for (name, key, _), v in zip(conditions, violations)])
