"""Strain-space statements of the micropolar and electro-magneto-elastic
energies, the micropolar constitutive law and the coupling-condition
equivalence probe: independent of the family densities `lagrangian(m)`,
which state each energy once in `nullag`, and used only by the tests."""

import numpy as np

from nullag.micropolar import coupling_direct_rows, coupling_entrywise_rows
from nullag.report import tensor_scale
from nullag.tensors import levi_civita


def at_rest(lag, dy):
    """A quadratic density at y = 0 and Dy = `dy` (N x 3): its value, and
    its gradient in Dy, whose row k is conjugate to the gradient of y_k."""
    dy = np.asarray(dy, dtype=float)
    return lag.evaluate(np.zeros((1, 3)), np.zeros((1, lag.n)), dy[None])[0], np.einsum("kcjb,jb->kc", lag.p, dy)


def em_enthalpy(m, eps, e, h) -> float:
    """Enthalpy density: elastic energy minus field energies minus the
    piezo and electromagnetic coupling terms."""
    e, h = np.asarray(e, dtype=float), np.asarray(h, dtype=float)
    out = 0.5 * np.einsum("ijkl,ij,kl->", m.c, eps, eps)
    out -= 0.5 * float(e @ m.ediel @ e) + 0.5 * float(h @ m.bperm @ h)
    out -= np.einsum("kij,ij,k->", m.p, eps, e) + np.einsum("kij,ij,k->", m.q, eps, h)
    return float(out - e @ m.acpl @ h)


def strain_wryness(u, phi):
    """Stretch eps_ij = u_{i,j} + e_kij phi_k and wryness kap_ij = phi_{i,j}
    of two 3-component fields, as exact 9-component fields, component
    3i + j holding entry (i, j)."""
    return u.diff() + phi.map(levi_civita().reshape(3, 9).T), phi.diff()


def energy_density(m, eps, kap) -> float:
    """Micropolar stored energy eps.A[eps]/2 + kap.B[kap]/2 + eps.D[kap]."""
    out = 0.5 * np.einsum("ijkl,ij,kl->", m.a, eps, eps)
    out += 0.5 * np.einsum("ijkl,ij,kl->", m.b, kap, kap)
    return float(out + np.einsum("ijkl,ij,kl->", m.d, eps, kap))


def constitutive(m, eps, kap):
    """Stress and couple stress conjugate to stretch and wryness."""
    sigma = np.einsum("ijkl,kl->ij", m.a, eps) + np.einsum("ijkl,kl->ij", m.d, kap)
    mu = np.einsum("ijkl,kl->ij", m.b, kap) + np.einsum("klij,kl->ij", m.d, eps)
    return sigma, mu


def coupling_equivalence_probe(d) -> bool:
    """Whether the direct and entrywise coupling condition systems agree on
    the tensor: both hold or both fail, each within 1e-10 of its largest
    entry.  A theorem probe; it must hold for every input."""
    flat = np.asarray(d, dtype=float).reshape(81)
    tol = 1e-10 * tensor_scale(flat)
    direct = float(np.max(np.abs(coupling_direct_rows() @ flat)))
    entrywise = float(np.max(np.abs(coupling_entrywise_rows() @ flat)))
    return (direct <= tol) == (entrywise <= tol)
