"""Phonon-phason energetics and null-Lagrangian conditions for quasicrystals.

Only the six-component case (3 phonon + 3 phason displacements) is
implemented.  Admissible phason moduli are built by closing user seeds
under the null symmetry group.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensors
from .polyfield import PolyField, PolyMatrixField
from .report import DEFAULT_TOL_ABS, ConditionReport, make_check, make_report, tensor_scale
from .tensors import (
    MAJOR,
    MINOR_LEFT,
    MINOR_RIGHT,
    SWAP13_ANTI,
    SWAP24_ANTI,
    ZERO_IF_IK_OR_JL,
    as_matrix3,
    as_tensor4,
    combine,
)
from .verifier import QuadraticLagrangian

__all__ = [
    "QcModuli",
    "QcState",
    "qc_energy",
    "qc_constitutive",
    "qc_equilibrium_residual",
    "check_qc_null",
    "admissible_phason_modulus",
    "lagrangian",
    "PHONON_CLASS",
    "PHASON_NULL_CLASS",
]

SYMMETRY_TOL = 1e-12

PHONON_CLASS = combine("PHONON", MAJOR, MINOR_LEFT, MINOR_RIGHT)
PHASON_NULL_CLASS = combine(
    "PHASON_NULL", MAJOR, SWAP13_ANTI, SWAP24_ANTI, ZERO_IF_IK_OR_JL
)


@dataclass(frozen=True)
class QcModuli:
    """Phonon (c), coupling (d) and phason (e) moduli with the symmetries
    c full, d left-minor, e major; construction rejects violations."""

    c: np.ndarray
    d: np.ndarray
    e: np.ndarray

    def __init__(self, c, d, e):
        c, d, e = as_tensor4(c), as_tensor4(d), as_tensor4(e)
        if (gap := tensors.check_symmetry(c, PHONON_CLASS)) > SYMMETRY_TOL:
            raise ValueError(f"phonon modulus violates its symmetries by {gap:.3e}")
        if (gap := tensors.check_symmetry(d, MINOR_LEFT)) > SYMMETRY_TOL:
            raise ValueError(f"coupling modulus violates left minor symmetry by {gap:.3e}")
        if (gap := tensors.check_symmetry(e, MAJOR)) > SYMMETRY_TOL:
            raise ValueError(f"phason modulus violates major symmetry by {gap:.3e}")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "e", e)

    @classmethod
    def zero(cls) -> "QcModuli":
        z = np.zeros((3, 3, 3, 3))
        return cls(z, z, z)


@dataclass(frozen=True)
class QcState:
    """Phonon/phason displacement fields with their distortion tensors."""

    u_p: PolyField
    u_s: PolyField
    gamma: PolyMatrixField
    kappa: PolyMatrixField

    @classmethod
    def from_fields(cls, u_p: PolyField, u_s: PolyField) -> "QcState":
        if u_p.n != 3 or u_s.n != 3:
            raise ValueError("phonon and phason fields must have 3 components")
        gamma = PolyMatrixField([[u_p.components[i].diff(j) for j in range(3)] for i in range(3)])
        kappa = PolyMatrixField([[u_s.components[i].diff(j) for j in range(3)] for i in range(3)])
        return cls(u_p, u_s, gamma, kappa)


def qc_energy(m: QcModuli, gamma, kappa) -> float:
    """g.C[g]/2 + k.E[k]/2 + g.D[k] on distortion tensors."""
    gamma, kappa = as_matrix3(gamma), as_matrix3(kappa)
    out = 0.5 * np.einsum("ijkl,ij,kl->", m.c, gamma, gamma)
    out += 0.5 * np.einsum("ijkl,ij,kl->", m.e, kappa, kappa)
    out += np.einsum("ijkl,ij,kl->", m.d, gamma, kappa)
    return float(out)


def qc_constitutive(m: QcModuli, gamma, kappa) -> tuple[np.ndarray, np.ndarray]:
    """Phonon and phason stresses conjugate to the distortions."""
    gamma, kappa = as_matrix3(gamma), as_matrix3(kappa)
    sigma_p = np.einsum("ijkl,kl->ij", m.c, gamma) + np.einsum("ijkl,kl->ij", m.d, kappa)
    sigma_s = np.einsum("klij,kl->ij", m.d, gamma) + np.einsum("ijkl,kl->ij", m.e, kappa)
    return sigma_p, sigma_s


def qc_equilibrium_residual(
    m: QcModuli,
    u_p: PolyField,
    u_s: PolyField,
    f_p: PolyField | None,
    f_s: PolyField | None,
    x,
) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise equilibrium residuals r_p and r_s; zero at equilibrium."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    hp = u_p.eval_hess(pts)[0]
    hs = u_s.eval_hess(pts)[0]
    r_p = np.einsum("ijkl,klj->i", m.c, hp) + np.einsum("ijkl,klj->i", m.d, hs)
    r_s = np.einsum("klij,klj->i", m.d, hp) + np.einsum("ijkl,klj->i", m.e, hs)
    if f_p is not None:
        r_p = r_p + f_p.eval(pts)[0]
    if f_s is not None:
        r_s = r_s + f_s.eval(pts)[0]
    return r_p, r_s


def check_qc_null(m: QcModuli, tol_abs: float = DEFAULT_TOL_ABS) -> ConditionReport:
    """Null conditions: phonon and coupling moduli vanish, phason modulus
    lies in the admissible (major, doubly swap-antisymmetric) class."""
    se = tensor_scale(m.e)
    checks = [
        make_check("C zero", np.max(np.abs(m.c)), tensor_scale(m.c), tol_abs),
        make_check("D zero", np.max(np.abs(m.d)), tensor_scale(m.d), tol_abs),
        make_check("E major symmetry", tensors.check_symmetry(m.e, MAJOR), se, tol_abs),
        make_check("E swap13 antisym", tensors.check_symmetry(m.e, SWAP13_ANTI), se, tol_abs),
        make_check("E swap24 antisym", tensors.check_symmetry(m.e, SWAP24_ANTI), se, tol_abs),
        make_check(
            "E zero on repeated odd/even index",
            tensors.check_symmetry(m.e, ZERO_IF_IK_OR_JL),
            se,
            tol_abs,
        ),
    ]
    return make_report(checks)


def admissible_phason_modulus(seeds: dict[tuple[int, int, int, int], float]) -> np.ndarray:
    """Build a phason modulus from seed entries (0-based indices) closed
    under the null symmetry group.

    Raises if the closure forces a seeded entry to two different values or
    to zero.
    """
    orbit_of = {idx: orbit for orbit in tensors._orbits(PHASON_NULL_CLASS) for idx in orbit[0]}
    e = np.zeros((3, 3, 3, 3))
    assigned: dict[tuple, float] = {}
    for start, value in seeds.items():
        start = tuple(int(v) for v in start)
        if start in PHASON_NULL_CLASS.zero_indices and value != 0.0:
            raise ValueError(f"entry {start} is structurally zero in the admissible class")
        members, dead = orbit_of[start]
        if dead:
            raise ValueError(f"seed {start} lies on a sign-conflicted orbit; value must be 0")
        for idx, sign in members.items():
            val = sign * members[start] * float(value)
            if idx in assigned and assigned[idx] != val:
                raise ValueError(f"conflicting closure values at entry {idx}")
            assigned[idx] = val
            e[idx] = val
    return as_tensor4(e)


def lagrangian(m: QcModuli) -> QuadraticLagrangian:
    """Quadratic density in the combined field y = (phonon, phason), N = 6."""
    n = 6
    p = np.zeros((n, 3, n, 3))
    p[:3, :, :3, :] = m.c
    p[3:, :, 3:, :] = m.e
    p[:3, :, 3:, :] += m.d
    p[3:, :, :3, :] += np.transpose(m.d, (2, 3, 0, 1))
    return QuadraticLagrangian(p, label="quasicrystal")
