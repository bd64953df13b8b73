"""Linear electro-magneto-elastic enthalpy, constitutive law and the
(computationally confirmed) triviality of its null-Lagrangian conditions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import tensors
from .report import DEFAULT_TOL_ABS, ConditionReport, make_check, make_report
from .tensors import MAJOR, MINOR_LEFT, as_matrix3, as_tensor3, as_tensor4, combine
from .verifier import QuadraticLagrangian

__all__ = [
    "EmModuli",
    "em_enthalpy",
    "em_enthalpy_audit_variant",
    "em_constitutive",
    "check_em_null",
    "lagrangian",
    "EM_ELASTIC_CLASS",
]

SYMMETRY_TOL = 1e-12

EM_ELASTIC_CLASS = combine("EM_ELASTIC", MINOR_LEFT, MAJOR)


def _sym_gap(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.T)))


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
        if (gap := tensors.check_symmetry(c, EM_ELASTIC_CLASS)) > SYMMETRY_TOL:
            raise ValueError(f"elastic modulus violates its symmetries by {gap:.3e}")
        for name, t3 in (("piezoelectric", p), ("piezomagnetic", q)):
            gap = float(np.max(np.abs(t3 - np.transpose(t3, (0, 2, 1)))))
            if gap > SYMMETRY_TOL:
                raise ValueError(f"{name} coupling must be symmetric in its trailing pair ({gap:.3e})")
        for name, m2 in (("dielectric", ediel), ("permeability", bperm), ("coupling", acpl)):
            if (gap := _sym_gap(m2)) > SYMMETRY_TOL:
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


def em_enthalpy_audit_variant(m: EmModuli, eps, e, h) -> float:
    """Audit-only variant in which the piezomagnetic modulus couples the
    strain to the electric field instead of the magnetic one.  Kept solely
    to quantify the difference against `em_enthalpy`; not used anywhere."""
    eps = as_matrix3(eps)
    e = np.asarray(e, dtype=float)
    h = np.asarray(h, dtype=float)
    out = 0.5 * np.einsum("ijkl,ij,kl->", m.c, eps, eps)
    out -= 0.5 * float(e @ m.ediel @ e)
    out -= 0.5 * float(h @ m.bperm @ h)
    out -= np.einsum("kij,ij,k->", m.p, eps, e)
    out -= np.einsum("kij,ij,k->", m.q, eps, e)
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
    sc = float(np.max(np.abs(m.c))) or 1.0
    sp = float(np.max(np.abs(m.p))) or 1.0
    sq = float(np.max(np.abs(m.q))) or 1.0
    se = float(np.max(np.abs(m.ediel))) or 1.0
    sb = float(np.max(np.abs(m.bperm))) or 1.0
    sa = float(np.max(np.abs(m.acpl))) or 1.0

    def rank3_alt(t3: np.ndarray) -> float:
        return float(np.max(np.abs(t3 + np.transpose(t3, (2, 1, 0)))))

    def rank3_zero_pred(t3: np.ndarray) -> float:
        worst = 0.0
        for k in range(3):
            for i in range(3):
                worst = max(worst, abs(float(t3[k, i, k])))
        return worst

    checks = [
        make_check("C zero", np.max(np.abs(m.c)), sc, tol_abs),
        make_check("Ediel zero", np.max(np.abs(m.ediel)), se, tol_abs),
        make_check("Bperm zero", np.max(np.abs(m.bperm)), sb, tol_abs),
        make_check("P alternating antisym", rank3_alt(m.p), sp, tol_abs),
        make_check("P zero on matching outer index", rank3_zero_pred(m.p), sp, tol_abs),
        make_check("Q alternating antisym", rank3_alt(m.q), sq, tol_abs),
        make_check("Q zero on matching outer index", rank3_zero_pred(m.q), sq, tol_abs),
        make_check("A antisym", np.max(np.abs(m.acpl + m.acpl.T)), sa, tol_abs),
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
