"""Phonon-phason energy and null-Lagrangian conditions for quasicrystals.

Only the six-component case (3 phonon + 3 phason displacements) is
implemented.  Admissible phason moduli are built by closing user seeds
under the null symmetry group.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .polyfield import PolyField, join
from .report import DEFAULT_TOL_ABS, ConditionReport, check_conditions
from .tensors import (
    MAJOR,
    MINOR_LEFT,
    MINOR_RIGHT,
    SWAP13_ANTI,
    SWAP24_ANTI,
    TILDE,
    ZERO_IF_IK_OR_JL,
    Moduli,
    as_tensor4,
    combine,
)
from .verifier import QuadraticLagrangian, euler_residual

__all__ = [
    "QcModuli",
    "qc_equilibrium_residual",
    "check_qc_null",
    "admissible_phason_modulus",
    "lagrangian",
    "PHONON_CLASS",
    "PHASON_NULL_CLASS",
]

PHONON_CLASS = combine("PHONON", MAJOR, MINOR_LEFT, MINOR_RIGHT)
PHASON_NULL_CLASS = TILDE


@dataclass(frozen=True, eq=False)
class QcModuli(Moduli):
    """Phonon (c), coupling (d) and phason (e) moduli with the symmetries
    c full, d left-minor, e major; construction rejects violations."""

    c: np.ndarray
    d: np.ndarray
    e: np.ndarray

    FIELDS = {
        "c": (PHONON_CLASS, "phonon modulus violates its symmetries by {gap:.3e}"),
        "d": (MINOR_LEFT, "coupling modulus violates left minor symmetry by {gap:.3e}"),
        "e": (MAJOR, "phason modulus violates major symmetry by {gap:.3e}"),
    }
    FAMILY = "quasicrystal"

    def check(self, tol_abs: float = DEFAULT_TOL_ABS) -> ConditionReport:
        return check_qc_null(self, tol_abs)

    def lagrangian(self) -> QuadraticLagrangian:
        """The family density, built on first use and kept: the record is frozen."""
        return self._density

    @cached_property
    def _density(self) -> QuadraticLagrangian:
        return lagrangian(self)


def qc_equilibrium_residual(m: QcModuli, u_p: PolyField, u_s: PolyField, f_p: PolyField | None,
                            f_s: PolyField | None, x) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise equilibrium residuals r_p and r_s at the point x, zero at
    equilibrium: the Euler residual of the density split into its phonon
    and phason parts, plus the body forces."""
    res = euler_residual(m.lagrangian(), join(u_p, u_s), x)
    r_p, r_s = res[:3], res[3:]
    pts = np.reshape(np.asarray(x, dtype=float), (1, 3))
    if f_p is not None:
        r_p = r_p + f_p.eval(pts)[0]
    if f_s is not None:
        r_s = r_s + f_s.eval(pts)[0]
    return r_p, r_s


def check_qc_null(m: QcModuli, tol_abs: float = DEFAULT_TOL_ABS) -> ConditionReport:
    """Null conditions: phonon and coupling moduli vanish, phason modulus
    lies in the admissible (major, doubly swap-antisymmetric) class."""
    return check_conditions({"c": m.c, "d": m.d, "e": m.e}, (
        ("C zero", "c", np.asarray),
        ("D zero", "d", np.asarray),
        ("E major symmetry", "e", MAJOR.defect),
        ("E swap13 antisym", "e", SWAP13_ANTI.defect),
        ("E swap24 antisym", "e", SWAP24_ANTI.defect),
        ("E zero on repeated odd/even index", "e", ZERO_IF_IK_OR_JL.defect),
    ), tol_abs)


def admissible_phason_modulus(seeds: dict[tuple[int, int, int, int], float]) -> np.ndarray:
    """Build a phason modulus from seed entries (0-based indices) closed
    under the null symmetry group.

    Raises if a seed is not an index of a 3x3x3x3 tensor, gives a nonzero
    value to a structurally zero entry, or if the closure forces an entry to
    two different values; a zero seed on a structural zero is accepted.
    """
    label, sign, dead = PHASON_NULL_CLASS.orbits
    at_rep = np.zeros(label.size)  # each seeded orbit's value at its representative
    seeded = np.zeros(label.size, dtype=bool)
    for start, value in seeds.items():
        start = tuple(int(v) for v in start)
        if len(start) != 4 or not all(0 <= i < 3 for i in start):
            raise ValueError(f"seed {start} is not a 0-based index of a 3x3x3x3 tensor")
        f = np.ravel_multi_index(start, (3, 3, 3, 3))
        if dead[f]:  # every forced-zero orbit of the class is made of structural zeros
            if value != 0.0:
                raise ValueError(f"entry {start} is structurally zero in the admissible class")
            continue
        rep, val = label[f], sign[f] * float(value)
        if seeded[rep] and at_rep[rep] != val:
            entry = tuple(int(i) for i in np.unravel_index(rep, (3, 3, 3, 3)))
            raise ValueError(f"conflicting closure values at entry {entry}")
        at_rep[rep], seeded[rep] = val, True
    return as_tensor4(np.where(seeded[label], sign * at_rep[label], 0.0))


def lagrangian(m: QcModuli) -> QuadraticLagrangian:
    """The energy g.C[g]/2 + k.E[k]/2 + g.D[k] in y = (u_p, u_s), N = 6, with
    the phonon and phason distortions g = grad u_p and k = grad u_s."""
    n = 6
    p = np.zeros((n, 3, n, 3))
    p[:3, :, :3, :] = m.c
    p[3:, :, 3:, :] = m.e
    p[:3, :, 3:, :] += m.d
    p[3:, :, :3, :] += np.transpose(m.d, (2, 3, 0, 1))
    return QuadraticLagrangian(p)
