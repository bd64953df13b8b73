"""Micropolar (Cosserat) kinematics, energetics and null-Lagrangian checks.

Covers the full anisotropic condition system for the three elastic moduli,
the equivalent entrywise form of the coupling-tensor conditions, the
hat/tilde/ring split of the rotation-gradient modulus with its 18
Cauchy-analogue relations and surface potential, and the isotropic /
hemitropic specializations.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import tensors
from .polyfield import PolyField, bubble, bubble_damped, join, random_polyfield
from .quadrature import boundary_rule, required_order
from .report import DEFAULT_TOL_ABS, ConditionReport, make_check, make_report, tensor_scale
from .tensors import (
    MAJOR,
    MINOR_RIGHT,
    SWAP13_ANTI,
    SWAP24_ANTI,
    ZERO_IF_IK_OR_JL,
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
    "strain_wryness",
    "energy_density",
    "constitutive",
    "check_null_sufficient",
    "check_coupling_entrywise",
    "coupling_equivalence_probe",
    "check_centrosymmetric_null",
    "split_B",
    "cauchy_analogue",
    "surface_potential",
    "positive_definite",
    "null_lagrangian_iso",
    "hemitropic_null_family",
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

SYMMETRY_TOL = 1e-12

#: Class of rotation-gradient moduli supporting a null energy: major symmetric,
#: antisymmetric under both odd index swaps, vanishing when i=k or j=l.
TILDE_CLASS = combine("TILDE", MAJOR, SWAP24_ANTI, SWAP13_ANTI, ZERO_IF_IK_OR_JL)

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


@dataclass(frozen=True)
class MicropolarModuli:
    """Elastic moduli (a, b, d) acting on stretch and wryness tensors.

    The stretch-stretch and wryness-wryness moduli must carry the major
    symmetry; construction rejects violations above 1e-12.
    """

    a: np.ndarray
    b: np.ndarray
    d: np.ndarray

    def __init__(self, a, b, d):
        a, b, d = as_tensor4(a), as_tensor4(b), as_tensor4(d)
        for name, t in (("a", a), ("b", b)):
            gap = tensors.check_symmetry(t, MAJOR)
            if gap > SYMMETRY_TOL:
                raise ValueError(f"modulus {name} violates major symmetry by {gap:.3e}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "d", d)

    @classmethod
    def zero(cls) -> "MicropolarModuli":
        z = np.zeros((3, 3, 3, 3))
        return cls(z, z, z)


def _iso_tensor(c_tr: float, c_id: float, c_swap: float) -> np.ndarray:
    """c_tr * d_ij d_kl + c_id * d_ik d_jl + c_swap * d_il d_jk; constants
    near the double limit give non-finite entries, which `as_tensor4`
    rejects."""
    eye = np.eye(3)
    with np.errstate(over="ignore", invalid="ignore"):
        return (
            c_tr * np.einsum("ij,kl->ijkl", eye, eye)
            + c_id * np.einsum("ik,jl->ijkl", eye, eye)
            + c_swap * np.einsum("il,jk->ijkl", eye, eye)
        )


@dataclass(frozen=True)
class IsotropicParams:
    """Six constants of the centrosymmetric isotropic material."""

    lam: float
    mu: float
    kappa: float
    beta1: float
    beta2: float
    beta3: float

    def a_tensor(self) -> np.ndarray:
        return _iso_tensor(self.lam, self.mu + self.kappa, self.mu)

    def b_tensor(self) -> np.ndarray:
        return _iso_tensor(self.beta1, self.beta2, self.beta3)

    def moduli(self) -> MicropolarModuli:
        return MicropolarModuli(self.a_tensor(), self.b_tensor(), np.zeros((3, 3, 3, 3)))


@dataclass(frozen=True)
class HemitropicParams:
    """Nine constants of the chiral isotropic material."""

    lam: float
    mu: float
    kappa: float
    beta1: float
    beta2: float
    beta3: float
    zeta: float
    nu: float
    rho: float

    def a_tensor(self) -> np.ndarray:
        return _iso_tensor(self.lam, self.mu + self.kappa, self.mu)

    def b_tensor(self) -> np.ndarray:
        return _iso_tensor(self.beta1, self.beta2, self.beta3)

    def d_tensor(self) -> np.ndarray:
        return _iso_tensor(self.zeta, self.nu + self.rho, self.nu)

    def moduli(self) -> MicropolarModuli:
        return MicropolarModuli(self.a_tensor(), self.b_tensor(), self.d_tensor())


@dataclass(frozen=True)
class BSplit:
    """hat + tilde + ring decomposition of a rank-4 modulus."""

    b_hat: np.ndarray
    b_tilde: np.ndarray
    b_ring: np.ndarray


def strain_wryness(u: PolyField, phi: PolyField) -> tuple[PolyField, PolyField]:
    """Stretch eps_ij = u_{i,j} + e_kij phi_k and wryness kap_ij = phi_{i,j}
    as exact 9-component fields, component 3i + j holding entry (i, j)."""
    if u.n != 3 or phi.n != 3:
        raise ValueError("displacement and rotation fields must have 3 components")
    return u.diff() + phi.map(levi_civita().reshape(3, 9).T), phi.diff()


def energy_density(m: MicropolarModuli, eps, kap) -> float:
    """Stored energy eps.A[eps]/2 + kap.B[kap]/2 + eps.D[kap]."""
    eps, kap = as_matrix3(eps), as_matrix3(kap)
    out = 0.5 * np.einsum("ijkl,ij,kl->", m.a, eps, eps)
    out += 0.5 * np.einsum("ijkl,ij,kl->", m.b, kap, kap)
    out += np.einsum("ijkl,ij,kl->", m.d, eps, kap)
    return float(out)


def constitutive(m: MicropolarModuli, eps, kap) -> tuple[np.ndarray, np.ndarray]:
    """Stress and couple stress conjugate to stretch and wryness."""
    eps, kap = as_matrix3(eps), as_matrix3(kap)
    sigma = np.einsum("ijkl,kl->ij", m.a, eps) + np.einsum("ijkl,kl->ij", m.d, kap)
    mu = np.einsum("ijkl,kl->ij", m.b, kap) + np.einsum("klij,kl->ij", m.d, eps)
    return sigma, mu


def _alternating_balance(d: np.ndarray) -> np.ndarray:
    """e_mkl D_klin - e_ijk D_jkmn, indexed (m, i, n)."""
    lc = levi_civita()
    t1 = np.einsum("mkl,klin->min", lc, d)
    t2 = np.einsum("ijk,jkmn->min", lc, d)
    return t1 - t2


def check_null_sufficient(m: MicropolarModuli, tol_abs: float = DEFAULT_TOL_ABS) -> ConditionReport:
    """Sufficient conditions for the full stored energy to be null.

    Both odd-swap antisymmetries for every modulus, the alternating balance
    of the coupling modulus, and the annihilation of the strain modulus by
    the alternating tensor (which, with major symmetry, forces it to zero).
    """
    lc = levi_civita()
    sa, sb, sd = tensor_scale(m.a), tensor_scale(m.b), tensor_scale(m.d)
    # sums of entries near the double limit overflow; make_check rejects them
    with np.errstate(over="ignore", invalid="ignore"):
        checks = [
            make_check("A swap24 antisym", tensors.check_symmetry(m.a, SWAP24_ANTI), sa, tol_abs),
            make_check("B swap24 antisym", tensors.check_symmetry(m.b, SWAP24_ANTI), sb, tol_abs),
            make_check("D swap24 antisym", tensors.check_symmetry(m.d, SWAP24_ANTI), sd, tol_abs),
            make_check("D alternating balance", np.max(np.abs(_alternating_balance(m.d))), sd, tol_abs),
            make_check(
                "A alternating annihilation",
                np.max(np.abs(np.einsum("mkl,ijkl->mij", lc, m.a))),
                sa,
                tol_abs,
            ),
            make_check("A zero", np.max(np.abs(m.a)), sa, tol_abs),
        ]
    return make_report(checks)


def check_coupling_entrywise(d: np.ndarray) -> ConditionReport:
    """Entrywise form of the coupling-modulus null conditions.

    Equivalent to {swap24 antisymmetry, alternating balance}; the
    equivalence is probed by `coupling_equivalence_probe`.
    """
    d = as_tensor4(d)
    scale = tensor_scale(d)
    v_b = 0.0
    v_c = 0.0
    for i, j, k in itertools.permutations(range(3)):
        v_b = max(v_b, abs(d[i, j, j, i] + d[i, k, k, i]))
        v_c = max(v_c, abs(d[i, j, j, k] - d[k, i, k, k] - d[j, i, j, k]))
    checks = [
        make_check("D swap24 antisym", tensors.check_symmetry(d, SWAP24_ANTI), scale),
        make_check("D opposite transposed diagonals", v_b, scale),
        make_check("D mixed-entry sum rule", v_c, scale),
    ]
    return make_report(checks)


def _idx4_position(i, j, k, l) -> int:
    return ((i * 3 + j) * 3 + k) * 3 + l


@functools.lru_cache(maxsize=1)
def coupling_direct_rows() -> np.ndarray:
    """Constraint rows of {swap24 antisymmetry, alternating balance} on the
    81 coupling components."""
    lc = levi_civita()
    rows = []
    for i, j, k, l in itertools.product(range(3), repeat=4):
        r = np.zeros(81)
        r[_idx4_position(i, j, k, l)] += 1.0
        r[_idx4_position(i, l, k, j)] += 1.0
        rows.append(r)
    for m, i, n in itertools.product(range(3), repeat=3):
        r = np.zeros(81)
        for k, l in itertools.product(range(3), repeat=2):
            if lc[m, k, l]:
                r[_idx4_position(k, l, i, n)] += lc[m, k, l]
        for j, k in itertools.product(range(3), repeat=2):
            if lc[i, j, k]:
                r[_idx4_position(j, k, m, n)] -= lc[i, j, k]
        rows.append(r)
    return np.array(rows)


@functools.lru_cache(maxsize=1)
def coupling_entrywise_rows() -> np.ndarray:
    """Constraint rows of the entrywise coupling conditions."""
    rows = []
    for i, j, k, l in itertools.product(range(3), repeat=4):
        r = np.zeros(81)
        r[_idx4_position(i, j, k, l)] += 1.0
        r[_idx4_position(i, l, k, j)] += 1.0
        rows.append(r)
    for i, j, k in itertools.permutations(range(3)):
        r = np.zeros(81)
        r[_idx4_position(i, j, j, i)] += 1.0
        r[_idx4_position(i, k, k, i)] += 1.0
        rows.append(r)
        r = np.zeros(81)
        r[_idx4_position(i, j, j, k)] += 1.0
        r[_idx4_position(k, i, k, k)] -= 1.0
        r[_idx4_position(j, i, j, k)] -= 1.0
        rows.append(r)
    return np.array(rows)


@functools.lru_cache(maxsize=1)
def coupling_direct_projector() -> np.ndarray:
    return tensors.nullspace_projector(coupling_direct_rows(), 81)


@functools.lru_cache(maxsize=1)
def coupling_entrywise_projector() -> np.ndarray:
    return tensors.nullspace_projector(coupling_entrywise_rows(), 81)


def coupling_equivalence_probe(d: np.ndarray, tol: float = 1e-10) -> bool:
    """Check that the direct and entrywise coupling condition systems agree
    on the given tensor: both hold or both fail.  A theorem probe; must
    return True for every input."""
    d = as_tensor4(d)
    flat = d.reshape(81)
    scale = tensor_scale(flat)
    direct = float(np.max(np.abs(coupling_direct_rows() @ flat)))
    entrywise = float(np.max(np.abs(coupling_entrywise_rows() @ flat)))
    return (direct <= tol * scale) == (entrywise <= tol * scale)


def check_centrosymmetric_null(a: np.ndarray, b: np.ndarray) -> ConditionReport:
    """Necessary conditions for a null energy of the coupling-free model:
    vanishing strain modulus together with the tilde-class relations on the
    wryness modulus."""
    a, b = as_tensor4(a), as_tensor4(b)
    sb = tensor_scale(b)
    checks = [
        make_check("A zero", np.max(np.abs(a)), tensor_scale(a)),
        make_check("B swap24 antisym", tensors.check_symmetry(b, SWAP24_ANTI), sb),
        make_check("B swap13 antisym", tensors.check_symmetry(b, SWAP13_ANTI), sb),
        make_check("B zero on repeated odd/even index", tensors.check_symmetry(b, ZERO_IF_IK_OR_JL), sb),
        make_check("B major symmetry", tensors.check_symmetry(b, MAJOR), sb),
    ]
    return make_report(checks)


def split_B(b: np.ndarray) -> BSplit:
    """Decompose a rank-4 modulus into symmetric (hat), null-supporting
    (tilde) and major-antisymmetric (ring) parts; the parts reassemble to
    the input exactly."""
    b = as_tensor4(b)
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
    b_tilde = as_tensor4(b_tilde)
    scale = tensor_scale(b_tilde)
    checks = []
    for entry in CAUCHY_ANALOGUE_ENTRIES:
        idx = tuple(v - 1 for v in entry)
        name = "B~_" + "".join(str(v) for v in entry)
        checks.append(make_check(name, abs(float(b_tilde[idx])), scale, tol_abs))
    return make_report(checks)


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


def positive_definite(p: IsotropicParams | HemitropicParams) -> bool:
    """Positive definiteness of the stored energy.

    For the hemitropic material only the inequalities on the six
    centrosymmetric constants are available here; no cross conditions on
    the chiral constants are checked, so the test may be incomplete for
    strongly chiral materials.
    """
    return (
        p.kappa > 0.0
        and 2.0 * p.mu + p.kappa > 0.0
        and 3.0 * p.lam + 2.0 * p.mu + p.kappa > 0.0
        and 3.0 * p.beta1 + p.beta2 + p.beta3 > 0.0
        and p.beta2 + p.beta3 > 0.0
        and p.beta2 - p.beta3 > 0.0
    )


def null_lagrangian_iso(c0: float, kap) -> float:
    """The isotropic null energy c0 * ((tr k)^2 - k_ij k_ji); equal to
    2 * c0 * I2(k)."""
    kap = as_matrix3(kap)
    tr = float(np.trace(kap))
    return c0 * (tr * tr - float(np.einsum("ij,ji->", kap, kap)))


def hemitropic_null_family(p: HemitropicParams) -> ConditionReport:
    """Constraint chain reducing the chiral isotropic material to a null
    energy and the final verdict on the two surviving constants.

    The report's extra fields carry the reduced coefficients of the three
    surviving trace-minus-transpose terms.
    """
    scale = max(
        abs(p.lam), abs(p.mu), abs(p.kappa), abs(p.beta1), abs(p.beta2),
        abs(p.beta3), abs(p.zeta), abs(p.nu), abs(p.rho), 1.0,
    )
    checks = [
        make_check("mu + lambda", abs(p.mu + p.lam), scale),
        make_check("mu + kappa", abs(p.mu + p.kappa), scale),
        make_check("beta3 + beta1", abs(p.beta3 + p.beta1), scale),
        make_check("beta2", abs(p.beta2), scale),
        make_check("nu + zeta", abs(p.nu + p.zeta), scale),
        make_check("nu + rho", abs(p.nu + p.rho), scale),
        make_check("lambda", abs(p.lam), scale),
        make_check("zeta", abs(p.zeta), scale),
    ]
    extra = {"lambda_eff": p.lam, "beta1_eff": p.beta1, "zeta_eff": p.zeta}
    return make_report(checks, extra)


def lagrangian(m: MicropolarModuli) -> QuadraticLagrangian:
    """Quadratic density of the stored energy in the combined field
    y = (displacement, rotation), N = 6."""
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
    return QuadraticLagrangian(p, q, r, label="micropolar")


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
        du = bubble_damped(random_polyfield(rng, 3, min(degree, 1)))
        # gradient of bubble^2 * g has vanishing trace AND gradient factor b
        # on the boundary, so the rotation part stays curl-free and the
        # perturbation is zero on all six faces.
        b = bubble()
        potential = b * b * random_polyfield(rng, 1, 1)
        return join(du, potential.diff())
