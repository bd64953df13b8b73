"""Symbolic oracle: sympy's Euler operator against the package's residuals.

The generator-built density and the 05b counterexample are derived here
from their definitions alone (generator polynomials, stretch and wryness),
independently of the package's closed forms and finite differences.
"""

import itertools
from fractions import Fraction

import numpy as np
import sympy as sp
from sympy.calculus.euler import euler_equations

from nullag import micropolar as mp
from nullag import verifier as vf
from nullag.polyfield import PolyField, field_states, join
from nullag.rund import GenPoly, GeneratorSet, build_null_lagrangian

X = sp.symbols("x1:4")
N = 2
Y = sp.symbols(f"y1:{N + 1}")
P = sp.Matrix(N, 3, lambda i, b: sp.Symbol(f"p{i + 1}{b + 1}"))  # P[i, b] stands for dy_i/dx_b

# Three generators of (x1..x3, y1, y2) with x-x, x-y and y-y terms, degree <= 3.
GENERATOR_TERMS = [
    {(1, 0, 0, 1, 0): Fraction(1, 2), (0, 0, 0, 1, 1): Fraction(-3, 4), (0, 2, 0, 0, 1): Fraction(5, 8)},
    {(0, 0, 1, 0, 2): Fraction(7, 4), (0, 1, 0, 1, 0): Fraction(-1, 2), (1, 1, 0, 0, 0): Fraction(3, 2)},
    {(0, 0, 0, 2, 0): Fraction(1, 8), (1, 0, 1, 0, 1): Fraction(-5, 4), (0, 0, 1, 1, 0): Fraction(1)},
]
# A polynomial field y(x) with dyadic coefficients, exact in floating point.
FIELD_TERMS = [
    {(1, 0, 0): 0.5, (0, 2, 1): -0.75, (1, 1, 0): 1.25, (0, 0, 0): 0.125},
    {(0, 1, 0): -1.5, (2, 0, 1): 0.625, (0, 0, 2): 0.25},
]
POINT = (sp.Rational(1, 4), sp.Rational(5, 8), sp.Rational(3, 8))


def _monomial(variables, expo):
    return sp.prod([v ** e for v, e in zip(variables, expo)])


def _rund_density():
    """(tr J^2 - tr(J^2)) / 2 with J_ab = dS^a/dx_b + dS^a/dy_i P_ib, in the
    symbols x, y and P."""
    s = [sum(sp.Rational(c.numerator, c.denominator) * _monomial(X + Y, e) for e, c in terms.items())
         for terms in GENERATOR_TERMS]
    j = sp.Matrix(3, 3, lambda a, b: sp.diff(s[a], X[b]) + sum(sp.diff(s[a], Y[i]) * P[i, b] for i in range(N)))
    return (j.trace() ** 2 - (j * j).trace()) / 2


def _on_field(expr, fields):
    """Substitute y -> fields and P -> their gradients."""
    subs = dict(zip(Y, fields))
    subs.update({P[i, b]: sp.diff(fields[i], X[b]) for i in range(N) for b in range(3)})
    return expr.subs(subs)


def test_rund_density_euler_equations_vanish_identically():
    f = [sp.Function(f"f{i + 1}")(*X) for i in range(N)]
    density = _rund_density()
    for eq in euler_equations(_on_field(density, f), f, X):
        assert sp.expand(eq.lhs) == 0


def test_closed_halves_match_sympy_at_a_rational_point():
    """dL/dy_k and D_g(dL/dy'_kg) of the closed form against sympy's exact
    values for a polynomial field at a rational point."""
    density = _rund_density()
    field = [sum(sp.nsimplify(c) * _monomial(X, e) for e, c in terms.items()) for terms in FIELD_TERMS]
    at_point = dict(zip(X, POINT))
    d_y = [_on_field(sp.diff(density, Y[k]), field).subs(at_point) for k in range(N)]
    d_dyp = [sum(sp.diff(_on_field(sp.diff(density, P[k, g]), field), X[g]) for g in range(3)).subs(at_point)
             for k in range(N)]

    gens = GeneratorSet([GenPoly(3 + N, terms) for terms in GENERATOR_TERMS], N)
    lag = build_null_lagrangian(gens)
    x = np.array([[[float(c) for c in POINT]]])
    states = field_states([PolyField(FIELD_TERMS)], x)
    got_dyp, got_y, _, _ = lag._euler_halves(x[0], *(s[0] for s in states))
    for exact, got in ((d_y, got_y[0]), (d_dyp, got_dyp[0])):
        exact = np.array([float(v) for v in exact])
        assert np.max(np.abs(exact)) > 1.0  # each half is O(1); only their difference vanishes
        assert np.max(np.abs(got - exact)) <= 1e-12 * max(1.0, float(np.max(np.abs(exact))))


def _hemitropic_density(lam, zeta):
    """Stored energy of the constrained hemitropic model of acceptance 05
    (mu = -lam, kappa = lam, betas (1, 0, -1), nu = -zeta, rho = zeta), from
    stretch eps_ij = u_i,j + e_kij phi_k and wryness kap_ij = phi_i,j."""
    u = [sp.Function(f"u{i + 1}")(*X) for i in range(3)]
    phi = [sp.Function(f"phi{i + 1}")(*X) for i in range(3)]
    eps = sp.Matrix(3, 3, lambda i, j: sp.diff(u[i], X[j]) + sum(sp.LeviCivita(k, i, j) * phi[k] for k in range(3)))
    kap = sp.Matrix(3, 3, lambda i, j: sp.diff(phi[i], X[j]))

    def iso(c_tr, c_swap):  # c_tr d_ij d_kl + c_swap d_il d_jk; the identity part is zero here
        return lambda i, j, k, l: c_tr * int(i == j and k == l) + c_swap * int(i == l and j == k)

    a, b, d = iso(lam, -lam), iso(1, -1), iso(zeta, -zeta)
    density = 0
    for i, j, k, l in itertools.product(range(3), repeat=4):
        density += (a(i, j, k, l) * eps[i, j] * eps[k, l] / 2 + b(i, j, k, l) * kap[i, j] * kap[k, l] / 2
                    + d(i, j, k, l) * eps[i, j] * kap[k, l])
    return density, u, phi


def test_05b_counterexample_residual_survives_curl_free_rotations():
    """With rotations restricted to gradients phi = grad(psi), the
    displacement equations vanish but the rotation equations keep
    -2*lam*phi + lam*curl(u): a constant rotation is curl-free and leaves
    -2*lam*phi, so no lam != 0 cell of acceptance 05b can certify null."""
    lam, zeta = sp.symbols("lam zeta")
    density, u, phi = _hemitropic_density(lam, zeta)
    psi = sp.Function("psi")(*X)
    grad_psi = [sp.diff(psi, x) for x in X]
    curl_u = [sp.diff(u[(k + 2) % 3], X[(k + 1) % 3]) - sp.diff(u[(k + 1) % 3], X[(k + 2) % 3]) for k in range(3)]
    # sympy's equations read dL/dy - d/dx(dL/dDy); the package's sign is the opposite
    residual = [-eq.lhs for eq in euler_equations(density, u + phi, X)]
    curl_free = dict(zip(phi, grad_psi))
    for k in range(3):
        assert sp.simplify(residual[k].subs(curl_free).doit()) == 0
        claim = -2 * lam * grad_psi[k] + lam * curl_u[k]
        assert sp.simplify(residual[3 + k].subs(curl_free).doit() - claim) == 0

    # the package's closed residual of the same model carries it too
    field_u = [{(0, 1, 1): 0.5, (2, 0, 0): -1.0}, {(1, 0, 1): 0.75}, {(0, 2, 0): 1.5, (1, 0, 0): 0.25}]
    potential = {(1, 1, 0): 1.0, (0, 0, 2): -0.5, (1, 0, 0): 0.75}
    y = join(PolyField(field_u), PolyField([potential]).diff())
    x = np.array([0.3, 0.6, 0.2])
    u_sym = [sum(c * _monomial(X, e) for e, c in t.items()) for t in field_u]
    psi_sym = sum(c * _monomial(X, e) for e, c in potential.items())
    at_point = dict(zip(X, x))
    for lam_value, zeta_value in ((1.0, -1.0), (-1.0, 0.0)):
        lag = mp.lagrangian(mp.HemitropicParams(lam_value, -lam_value, lam_value, 1.0, 0.0, -1.0,
                                                zeta_value, -zeta_value, zeta_value).moduli())
        got = vf.euler_residual(lag, y, x)
        expected = np.zeros(6)
        for k in range(3):
            curl = (sp.diff(u_sym[(k + 2) % 3], X[(k + 1) % 3]) - sp.diff(u_sym[(k + 1) % 3], X[(k + 2) % 3]))
            expected[3 + k] = float((-2 * lam_value * sp.diff(psi_sym, X[k]) + lam_value * curl).subs(at_point))
        assert np.max(np.abs(expected[3:])) > 0.1
        assert np.max(np.abs(got - expected)) <= 1e-12
