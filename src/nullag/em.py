"""Linear electro-magneto-elastic enthalpy, as a quadratic density, and the
(computationally confirmed) triviality of its null-Lagrangian conditions."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .report import DEFAULT_TOL_ABS, ConditionReport, check_conditions
from .tensors import (
    MAJOR,
    MINOR_LEFT,
    IndexRelation,
    Moduli,
    SymmetryClass,
    combine,
)
from .verifier import QuadraticLagrangian

__all__ = [
    "EmModuli",
    "check_em_null",
    "lagrangian",
    "EM_ELASTIC_CLASS",
]

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


@dataclass(frozen=True, eq=False)
class EmModuli(Moduli):
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

    FIELDS = {
        "c": (EM_ELASTIC_CLASS, "elastic modulus violates its symmetries by {gap:.3e}"),
        "p": (TRAILING_SYM3, "piezoelectric coupling must be symmetric in its trailing pair ({gap:.3e})"),
        "q": (TRAILING_SYM3, "piezomagnetic coupling must be symmetric in its trailing pair ({gap:.3e})"),
        "ediel": (SYM2, "dielectric matrix must be symmetric ({gap:.3e})"),
        "bperm": (SYM2, "permeability matrix must be symmetric ({gap:.3e})"),
        "acpl": (SYM2, "coupling matrix must be symmetric ({gap:.3e})"),
    }
    FAMILY = "em_elast"

    def check(self, tol_abs: float = DEFAULT_TOL_ABS) -> ConditionReport:
        return check_em_null(self, tol_abs)

    def lagrangian(self) -> QuadraticLagrangian:
        return lagrangian(self)


def check_em_null(m: EmModuli, tol_abs: float = DEFAULT_TOL_ABS) -> ConditionReport:
    """Null conditions for the enthalpy; with the constructor symmetries
    they admit only the all-zero material."""
    return check_conditions(vars(m), (
        ("C zero", "c", np.asarray),
        ("Ediel zero", "ediel", np.asarray),
        ("Bperm zero", "bperm", np.asarray),
        ("P alternating antisym", "p", OUTER_SWAP_ANTI.defect),
        ("P zero on matching outer index", "p", ZERO_IF_OUTER_EQUAL.defect),
        ("Q alternating antisym", "q", OUTER_SWAP_ANTI.defect),
        ("Q zero on matching outer index", "q", ZERO_IF_OUTER_EQUAL.defect),
        ("A antisym", "acpl", ANTISYM2.defect),
    ), tol_abs)


def lagrangian(m: EmModuli) -> QuadraticLagrangian:
    """The enthalpy G.C[G]/2 - e.Ediel e/2 - h.Bperm h/2 - e.P[G] - h.Q[G] - e.Acpl h
    in y = (u, varphi, psi), N = 5, with G = grad u, e = -grad varphi and
    h = -grad psi; the symmetries of C, P and Q let G stand for the strain."""
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
    return QuadraticLagrangian(p)
