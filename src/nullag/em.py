"""Linear electro-magneto-elastic enthalpy, constitutive law and the
(computationally confirmed) triviality of its null-Lagrangian conditions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .report import DEFAULT_TOL_ABS, ConditionReport, make_check, make_report, tensor_scale
from .tensors import (
    MAJOR,
    MINOR_LEFT,
    IndexRelation,
    SymmetryClass,
    as_matrix3,
    as_tensor3,
    as_tensor4,
    check_symmetry,
    combine,
)
from .verifier import QuadraticLagrangian

__all__ = [
    "EmModuli",
    "em_enthalpy",
    "em_constitutive",
    "check_em_null",
    "lagrangian",
    "EM_ELASTIC_CLASS",
]

SYMMETRY_TOL = 1e-12

EM_ELASTIC_CLASS = combine("EM_ELASTIC", MINOR_LEFT, MAJOR)
TRAILING_SYM3 = SymmetryClass("TRAILING_SYM3", 3, (IndexRelation((0, 2, 1), 1.0),))
SYM2 = SymmetryClass("SYM2", 2, (IndexRelation((1, 0), 1.0),))

#: Null relations: a rank-3 coupling is antisymmetric under the swap of its
#: outer indices and zero where they match; the coupling matrix is antisymmetric.
OUTER_SWAP_ANTI = SymmetryClass("OUTER_SWAP_ANTI", 3, (IndexRelation((2, 1, 0), -1.0),))
ZERO_IF_OUTER_EQUAL = SymmetryClass(
    "ZERO_IF_OUTER_EQUAL",
    3,
    (),
    frozenset(idx for idx in itertools.product(range(3), repeat=3) if idx[0] == idx[2]),
)
ANTISYM2 = SymmetryClass("ANTISYM2", 2, (IndexRelation((1, 0), -1.0),))


@dataclass(frozen=True)
class EmModuli:
    """Elastic (c), piezoelectric (p), piezomagnetic (q), dielectric,
    permeability and electromagnetic coupling constants.

    Constructor enforces: c with left-minor and major symmetry, the rank-3
    couplings symmetric in their trailing pair, the three matrices
    symmetric.
    """

    c: np.ndarray
    p: np.ndarray
    q: np.ndarray
    ediel: np.ndarray
    bperm: np.ndarray
    acpl: np.ndarray

    def __init__(self, c, p, q, ediel, bperm, acpl):
        c = as_tensor4(c)
        p, q = as_tensor3(p), as_tensor3(q)
        ediel, bperm, acpl = as_matrix3(ediel), as_matrix3(bperm), as_matrix3(acpl)
        if (gap := check_symmetry(c, EM_ELASTIC_CLASS)) > SYMMETRY_TOL:
            raise ValueError(f"elastic modulus violates its symmetries by {gap:.3e}")
        for name, t3 in (("piezoelectric", p), ("piezomagnetic", q)):
            if (gap := check_symmetry(t3, TRAILING_SYM3)) > SYMMETRY_TOL:
                raise ValueError(f"{name} coupling must be symmetric in its trailing pair ({gap:.3e})")
        for name, m2 in (("dielectric", ediel), ("permeability", bperm), ("coupling", acpl)):
            if (gap := check_symmetry(m2, SYM2)) > SYMMETRY_TOL:
                raise ValueError(f"{name} matrix must be symmetric ({gap:.3e})")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "ediel", ediel)
        object.__setattr__(self, "bperm", bperm)
        object.__setattr__(self, "acpl", acpl)

    @classmethod
    def zero(cls) -> "EmModuli":
        z4 = np.zeros((3, 3, 3, 3))
        z3 = np.zeros((3, 3, 3))
        z2 = np.zeros((3, 3))
        return cls(z4, z3, z3, z2, z2, z2)


def em_enthalpy(m: EmModuli, eps, e, h) -> float:
    """Enthalpy density: elastic energy minus field energies minus the
    piezo and electromagnetic coupling terms."""
    eps = as_matrix3(eps)
    e = np.asarray(e, dtype=float)
    h = np.asarray(h, dtype=float)
    out = 0.5 * np.einsum("ijkl,ij,kl->", m.c, eps, eps)
    out -= 0.5 * float(e @ m.ediel @ e)
    out -= 0.5 * float(h @ m.bperm @ h)
    out -= np.einsum("kij,ij,k->", m.p, eps, e)
    out -= np.einsum("kij,ij,k->", m.q, eps, h)
    out -= float(e @ m.acpl @ h)
    return float(out)


def em_constitutive(m: EmModuli, eps, e, h) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stress, electric displacement and magnetic induction.

    The rank-3 adjoint convention is (P^T e)_ij = P_kij e_k, so that
    eps . (P^T e) = (P eps) . e.
    """
    eps = as_matrix3(eps)
    e = np.asarray(e, dtype=float)
    h = np.asarray(h, dtype=float)
    sigma = (
        np.einsum("ijkl,kl->ij", m.c, eps)
        - np.einsum("kij,k->ij", m.p, e)
        - np.einsum("kij,k->ij", m.q, h)
    )
    d = np.einsum("kij,ij->k", m.p, eps) + m.ediel @ e + m.acpl @ h
    b = np.einsum("kij,ij->k", m.q, eps) + m.acpl @ e + m.bperm @ h
    return sigma, d, b


def check_em_null(m: EmModuli, tol_abs: float = DEFAULT_TOL_ABS) -> ConditionReport:
    """Null conditions for the enthalpy; with the constructor symmetries
    they admit only the all-zero material."""
    sp, sq = tensor_scale(m.p), tensor_scale(m.q)
    checks = [
        make_check("C zero", np.max(np.abs(m.c)), tensor_scale(m.c), tol_abs),
        make_check("Ediel zero", np.max(np.abs(m.ediel)), tensor_scale(m.ediel), tol_abs),
        make_check("Bperm zero", np.max(np.abs(m.bperm)), tensor_scale(m.bperm), tol_abs),
        make_check("P alternating antisym", check_symmetry(m.p, OUTER_SWAP_ANTI), sp, tol_abs),
        make_check("P zero on matching outer index", check_symmetry(m.p, ZERO_IF_OUTER_EQUAL), sp, tol_abs),
        make_check("Q alternating antisym", check_symmetry(m.q, OUTER_SWAP_ANTI), sq, tol_abs),
        make_check("Q zero on matching outer index", check_symmetry(m.q, ZERO_IF_OUTER_EQUAL), sq, tol_abs),
        make_check("A antisym", check_symmetry(m.acpl, ANTISYM2), tensor_scale(m.acpl), tol_abs),
    ]
    return make_report(checks)


def lagrangian(m: EmModuli) -> QuadraticLagrangian:
    """Quadratic density in y = (u1, u2, u3, varphi, psi), N = 5, written in
    potential gradients (e = -grad varphi, h = -grad psi)."""
    n = 5
    p = np.zeros((n, 3, n, 3))
    p[:3, :, :3, :] = m.c
    p[3, :, 3, :] = -m.ediel
    p[4, :, 4, :] = -m.bperm
    for k in range(3):
        p[3, k, :3, :] += m.p[k]
        p[:3, :, 3, k] += m.p[k]
        p[4, k, :3, :] += m.q[k]
        p[:3, :, 4, k] += m.q[k]
    p[3, :, 4, :] += -m.acpl
    p[4, :, 3, :] += -m.acpl.T
    return QuadraticLagrangian(p, label="em_elast")
