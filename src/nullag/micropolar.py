"""Micropolar (Cosserat) stored energy and null-Lagrangian checks.

Covers the stored energy as a quadratic density, the full anisotropic
condition system for the three elastic moduli (`check_null_sufficient`),
the equivalent entrywise form of the coupling-tensor conditions as
constraint rows, the hat/tilde/ring split of the rotation-gradient modulus
with its 18 Cauchy-analogue relations and surface potential, and the
isotropic / hemitropic constants.  The hemitropic null relations are
derived from `check_null_sufficient` in tests/test_verifier.py.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import tensors
from .polyfield import PolyField, bubble, join, random_polyfield
from .quadrature import boundary_rule, required_order
from .report import (DEFAULT_TOL_ABS, DEFAULT_TOL_REL, ConditionReport, check_conditions, make_check,
                     make_report, tensor_scale)
from .tensors import (
    MAJOR,
    MINOR_RIGHT,
    SWAP24_ANTI,
    TILDE,
    Moduli,
    SymmetryClass,
    as_matrix3,
    as_tensor4,
    combine,
    levi_civita,
)
from .verifier import FieldSampler, QuadraticLagrangian

__all__ = [
    "MicropolarModuli",
    "IsotropicParams",
    "HemitropicParams",
    "BSplit",
    "check_null_sufficient",
    "split_B",
    "cauchy_analogue",
    "surface_potential",
    "positive_definite",
    "null_lagrangian_iso",
    "lagrangian",
    "iso_null_evaluator",
    "CurlFreeRotationSampler",
    "TILDE_CLASS",
    "A_NULL_CLASS",
    "CAUCHY_ANALOGUE_ENTRIES",
    "coupling_direct_rows",
    "coupling_entrywise_rows",
    "coupling_direct_projector",
    "coupling_entrywise_projector",
]

#: Class of rotation-gradient moduli supporting a null energy.
TILDE_CLASS = TILDE

#: Condition system that forces the strain modulus to vanish: major symmetry
#: plus swap24 antisymmetry plus symmetry in the trailing pair.
A_NULL_CLASS = combine("A_NULL", MAJOR, SWAP24_ANTI, MINOR_RIGHT)

#: The 18 tilde entries whose vanishing kills the boundary-only energy part,
#: listed 1-based in the order of the two displayed 3x3 tables.
CAUCHY_ANALOGUE_ENTRIES = (
    (2, 2, 3, 3), (1, 2, 3, 3), (1, 3, 2, 2),
    (2, 1, 3, 3), (1, 1, 3, 3), (2, 3, 1, 1),
    (3, 1, 2, 2), (3, 2, 1, 1), (1, 1, 2, 2),
    (3, 1, 1, 3), (3, 1, 2, 3), (2, 1, 3, 2),
    (3, 2, 1, 3), (1, 2, 2, 1), (1, 2, 3, 1),
    (2, 3, 1, 2), (1, 3, 2, 1), (2, 3, 3, 2),
)
_CAUCHY_NAMES = tuple("B~_" + "".join(map(str, entry)) for entry in CAUCHY_ANALOGUE_ENTRIES)
_CAUCHY_FLAT = np.ravel_multi_index(np.array(CAUCHY_ANALOGUE_ENTRIES).T - 1, (3, 3, 3, 3))

#: The isotropic basis d_ij d_kl, d_ik d_jl and d_il d_jk.
_ISO_TR, _ISO_ID, _ISO_SWAP = (
    np.einsum(spec, np.eye(3), np.eye(3)) for spec in ("ij,kl->ijkl", "ik,jl->ijkl", "il,jk->ijkl")
)


@dataclass(frozen=True, eq=False)
class MicropolarModuli(Moduli):
    """Elastic moduli (a, b, d) acting on stretch and wryness tensors.

    The stretch-stretch and wryness-wryness moduli must carry the major
    symmetry; construction rejects violations above 1e-12.
    """

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray

    FIELDS = {
        "a": (MAJOR, "modulus a violates major symmetry by {gap:.3e}"),
        "b": (MAJOR, "modulus b violates major symmetry by {gap:.3e}"),
        "d": (SymmetryClass("UNCONSTRAINED", 4, ()), None),
    }
    FAMILY = "micropolar"

    def check(self, tol_abs: float = DEFAULT_TOL_ABS) -> ConditionReport:
        return check_null_sufficient(self, tol_abs)

    def lagrangian(self) -> QuadraticLagrangian:
        return lagrangian(self)


def _iso_tensor(c_tr: float, c_id: float, c_swap: float) -> np.ndarray:
    """c_tr * d_ij d_kl + c_id * d_ik d_jl + c_swap * d_il d_jk; constants
    near the double limit give non-finite entries, which `as_tensor4`
    rejects."""
    with np.errstate(over="ignore", invalid="ignore"):
        return c_tr * _ISO_TR + c_id * _ISO_ID + c_swap * _ISO_SWAP


@dataclass(frozen=True)
class HemitropicParams:
    """Nine constants of the chiral isotropic material.  The chiral ones,
    zeta, nu and rho, default to 0: the centrosymmetric isotropic material."""

    lam: float
    mu: float
    kappa: float
    beta1: float
    beta2: float
    beta3: float
    zeta: float = 0.0
    nu: float = 0.0
    rho: float = 0.0

    def a_tensor(self) -> np.ndarray:
        return _iso_tensor(self.lam, self.mu + self.kappa, self.mu)

    def b_tensor(self) -> np.ndarray:
        return _iso_tensor(self.beta1, self.beta2, self.beta3)

    def d_tensor(self) -> np.ndarray:
        return _iso_tensor(self.zeta, self.nu + self.rho, self.nu)

    def moduli(self) -> MicropolarModuli:
        return MicropolarModuli(self.a_tensor(), self.b_tensor(), self.d_tensor())


#: The centrosymmetric isotropic material is the hemitropic one with zeta = nu = rho = 0.
IsotropicParams = HemitropicParams


@dataclass(frozen=True, eq=False)
class BSplit:
    """hat + tilde + ring decomposition of a rank-4 modulus."""

    b_hat: np.ndarray
    b_tilde: np.ndarray
    b_ring: np.ndarray


def _alternating_balance(d: np.ndarray) -> np.ndarray:
    """e_mkl D_klin - e_ijk D_jkmn, indexed (m, i, n)."""
    lc = levi_civita()
    return np.einsum("mkl,klin->min", lc, d) - np.einsum("ijk,jkmn->min", lc, d)


_I, _J, _K = np.array(list(itertools.permutations(range(3)))).T


def _entrywise_pair(d: np.ndarray) -> np.ndarray:
    """For each permutation (i, j, k), the row (b, c) with b = D_ijji + D_ikki
    and c = D_ijjk - D_kikk - D_jijk."""
    b = d[_I, _J, _J, _I] + d[_I, _K, _K, _I]
    c = d[_I, _J, _J, _K] - d[_K, _I, _K, _K] - d[_J, _I, _J, _K]
    return np.stack((b, c), axis=-1)


def check_null_sufficient(m: MicropolarModuli, tol_abs: float = DEFAULT_TOL_ABS) -> ConditionReport:
    """Sufficient conditions for the full stored energy to be null.

    Both odd-swap antisymmetries for every modulus, the alternating balance
    of the coupling modulus, and the annihilation of the strain modulus by
    the alternating tensor (which, with major symmetry, forces it to zero).
    """
    return check_conditions(vars(m), (
        ("A swap24 antisym", "a", SWAP24_ANTI.defect),
        ("B swap24 antisym", "b", SWAP24_ANTI.defect),
        ("D swap24 antisym", "d", SWAP24_ANTI.defect),
        ("D alternating balance", "d", _alternating_balance),
        ("A alternating annihilation", "a", lambda a: np.einsum("mkl,ijkl->mij", levi_civita(), a)),
        ("A zero", "a", np.asarray),
    ), tol_abs)


def _read_only(a: np.ndarray) -> np.ndarray:
    """The array itself, frozen: a cached array is shared by every caller."""
    a.flags.writeable = False
    return a


def _condition_rows(*maps) -> np.ndarray:
    """Rows of linear condition maps on the 81 coupling components: each
    map evaluated on the 81 unit tensors, its outputs in flat order."""
    units = np.eye(81).reshape(81, 3, 3, 3, 3)
    return _read_only(np.concatenate([np.array([f(u).ravel() for u in units]).T for f in maps]))


@functools.lru_cache(maxsize=1)
def coupling_direct_rows() -> np.ndarray:
    """Constraint rows of {swap24 antisymmetry, alternating balance} on the
    81 coupling components; read-only."""
    return _condition_rows(SWAP24_ANTI.defect, _alternating_balance)


@functools.lru_cache(maxsize=1)
def coupling_entrywise_rows() -> np.ndarray:
    """Constraint rows of the entrywise coupling conditions: swap24
    antisymmetry, then the (b, c) pair of each permutation; read-only."""
    return _condition_rows(SWAP24_ANTI.defect, _entrywise_pair)


@functools.lru_cache(maxsize=1)
def coupling_direct_projector() -> np.ndarray:
    return _read_only(tensors.nullspace_projector(coupling_direct_rows(), 81))


@functools.lru_cache(maxsize=1)
def coupling_entrywise_projector() -> np.ndarray:
    return _read_only(tensors.nullspace_projector(coupling_entrywise_rows(), 81))


def _float4(t) -> np.ndarray:
    """`t` itself if it is a float (3, 3, 3, 3) array, as moduli fields and
    split parts are, else `as_tensor4(t)`, which converts it or names a wrong
    size or a non-finite entry.  The caller checks finiteness on a value that
    every entry of `t` reaches."""
    if type(t) is np.ndarray and t.dtype == np.float64 and t.shape == (3, 3, 3, 3):
        return t
    return as_tensor4(t)


def split_B(b: np.ndarray) -> BSplit:
    """Decompose a rank-4 modulus into symmetric (hat), null-supporting
    (tilde) and major-antisymmetric (ring) parts; the parts reassemble to
    the input exactly."""
    b = _float4(b)  # a non-finite entry of b makes its hat entry non-finite
    b_major = np.transpose(b, (2, 3, 0, 1))
    b_24 = np.transpose(b, (0, 3, 2, 1))
    b_13 = np.transpose(b, (2, 1, 0, 3))
    with np.errstate(over="ignore", invalid="ignore"):  # as_tensor4 rejects non-finite parts
        hat = 0.25 * (b + b_major + b_24 + b_13)
        tilde = 0.25 * (b + b_major - b_24 - b_13)
        ring = 0.5 * (b - b_major)
    return BSplit(as_tensor4(hat), as_tensor4(tilde), as_tensor4(ring))


def cauchy_analogue(b_tilde: np.ndarray, tol_abs: float = DEFAULT_TOL_ABS) -> ConditionReport:
    """The 18 entry conditions whose joint vanishing annihilates the tilde
    part (the micropolar analogue of the classical Cauchy relations)."""
    b_tilde = _float4(b_tilde)
    scale = tensor_scale(b_tilde)
    if not np.isfinite(scale):  # the largest |entry| is non-finite: as_tensor4 names it
        as_tensor4(b_tilde)
    values = np.abs(b_tilde.reshape(-1)[_CAUCHY_FLAT]).tolist()
    return make_report([make_check(name, v, scale, tol_abs) for name, v in zip(_CAUCHY_NAMES, values)])


def surface_potential(b_tilde: np.ndarray, phi: PolyField, surface_quadrature_order: int) -> float:
    """Boundary moment potential over the unit cube:
    (1/2) * integral over the six faces of B~_ijkl phi_{i,j} phi_k n_l,
    one contraction of B~ with the moment sum_m phi_{i,j} phi_k (w n_l) over
    the points m of the stacked boundary rule."""
    b_tilde = as_tensor4(b_tilde)
    if phi.n != 3:
        raise ValueError("rotation field must have 3 components")
    degree = max(2 * phi.degree() - 1, 0)
    if 2 * surface_quadrature_order - 1 < degree:
        raise ValueError(
            f"surface quadrature order {surface_quadrature_order} is inexact for "
            f"integrand degree {degree}; use order >= {required_order(degree)}"
        )
    vals, grad = phi.eval_on_rule(surface_quadrature_order, boundary=True)
    flux = vals[:, :, None] * boundary_rule(surface_quadrature_order)[1][:, None, :]
    moment = grad.reshape(-1, 9).T @ flux.reshape(-1, 9)
    return 0.5 * float(np.sum(b_tilde.reshape(9, 9) * moment))


def positive_definite(p: HemitropicParams) -> bool:
    """Positive definiteness of the stored energy, decided from its whole
    quadratic form on (eps, kap): the symmetric 18x18 matrix
    [[A, D], [D^T, B]], each block reshaped to 9x9, must have a least
    eigenvalue above DEFAULT_TOL_REL times its largest absolute eigenvalue."""
    m = p.moduli()
    a, b, d = (t.reshape(9, 9) for t in (m.a, m.b, m.d))
    eig = np.linalg.eigvalsh(np.block([[a, d], [d.T, b]]))
    return bool(eig[0] > DEFAULT_TOL_REL * np.abs(eig).max())


def null_lagrangian_iso(c0: float, kap) -> float:
    """The isotropic null energy c0 * ((tr k)^2 - k_ij k_ji); equal to
    2 * c0 * I2(k)."""
    kap = as_matrix3(kap)
    tr = float(np.trace(kap))
    return c0 * (tr * tr - float(np.einsum("ij,ji->", kap, kap)))


def lagrangian(m: MicropolarModuli) -> QuadraticLagrangian:
    """The stored energy eps.A[eps]/2 + kap.B[kap]/2 + eps.D[kap] as a
    quadratic density in the combined field y = (u, phi), N = 6, with
    stretch eps_ij = u_{i,j} + e_kij phi_k and wryness kap_ij = phi_{i,j}."""
    lc = levi_civita()
    n = 6
    p = np.zeros((n, 3, n, 3))
    q = np.zeros((n, 3, n))
    r = np.zeros((n, n))
    p[:3, :, :3, :] = m.a
    p[3:, :, 3:, :] = m.b
    p[:3, :, 3:, :] += m.d
    p[3:, :, :3, :] += np.transpose(m.d, (2, 3, 0, 1))
    q[:3, :, 3:] = np.einsum("ijkl,skl->ijs", m.a, lc)
    q[3:, :, 3:] = np.einsum("ijkl,sij->kls", m.d, lc)
    r[3:, 3:] = np.einsum("ijkl,sij,tkl->st", m.a, lc, lc)
    return QuadraticLagrangian(p, q, r)


def iso_null_evaluator(c0: float) -> QuadraticLagrangian:
    """Evaluator of the isotropic null energy as a wryness-only density."""
    b = 2.0 * c0 * _iso_tensor(1.0, 0.0, -1.0)
    return lagrangian(MicropolarModuli(np.zeros((3, 3, 3, 3)), b, np.zeros((3, 3, 3, 3))))


class CurlFreeRotationSampler(FieldSampler):
    """Test fields with an unrestricted displacement part and a curl-free
    (gradient) rotation part; perturbations stay in that class and vanish
    on the cube boundary."""

    def __init__(self):
        super().__init__(6)

    def field(self, rng: np.random.Generator, degree: int) -> PolyField:
        u = random_polyfield(rng, 3, degree)
        potential = random_polyfield(rng, 1, degree + 1)
        return join(u, potential.diff())

    def boundary_delta(self, rng: np.random.Generator, degree: int) -> PolyField:
        du = bubble() * random_polyfield(rng, 3, min(degree, 1))
        # gradient of bubble^2 * g has vanishing trace AND gradient factor b
        # on the boundary, so the rotation part stays curl-free and the
        # perturbation is zero on all six faces.
        b = bubble()
        potential = b * b * random_polyfield(rng, 1, 1)
        return join(du, potential.diff())
