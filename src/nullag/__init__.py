"""Null Lagrangians of generalized linear elasticity: checkers, splits,
generator constructions and a variational certification oracle."""

from . import em, micropolar, quasicrystal, rund, tensors, verifier
from .micropolar import (
    BSplit,
    HemitropicParams,
    IsotropicParams,
    MicropolarModuli,
    cauchy_analogue,
    check_null_sufficient,
    null_lagrangian_iso,
    split_B,
    surface_potential,
)
from .polyfield import PolyField, random_polyfield
from .quasicrystal import QcModuli, admissible_phason_modulus, check_qc_null
from .em import EmModuli, check_em_null
from .report import ConditionCheck, ConditionReport
from .rund import GeneratorSet, build_null_lagrangian, rund_coefficients
from .tensors import apply4, invariants2, levi_civita
from .verifier import (
    NullCertificate,
    QuadraticLagrangian,
    action_integral,
    boundary_dependence_test,
    certify_null,
    euler_residual,
)

__version__ = "0.1.0"

__all__ = [
    "em",
    "micropolar",
    "quasicrystal",
    "rund",
    "tensors",
    "verifier",
    "BSplit",
    "HemitropicParams",
    "IsotropicParams",
    "MicropolarModuli",
    "cauchy_analogue",
    "check_null_sufficient",
    "null_lagrangian_iso",
    "split_B",
    "surface_potential",
    "PolyField",
    "random_polyfield",
    "QcModuli",
    "admissible_phason_modulus",
    "check_qc_null",
    "EmModuli",
    "check_em_null",
    "ConditionCheck",
    "ConditionReport",
    "GeneratorSet",
    "build_null_lagrangian",
    "rund_coefficients",
    "apply4",
    "invariants2",
    "levi_civita",
    "NullCertificate",
    "QuadraticLagrangian",
    "action_integral",
    "boundary_dependence_test",
    "certify_null",
    "euler_residual",
]
