"""Degree-2 null Lagrangians built from three generator functions S(x, y).

The quadratic, linear and constant coefficient blocks are 2x2 determinants
of the generator partials; contracting them with the field gradient
collapses to the second invariant of the total-derivative matrix
J_ab = dS^a/dx_b + dS^a/dy_i * y^i_b, which is what the evaluator computes.
Generators are polynomials with rational coefficients, so all partials are
exact and the partial-derivative order never matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations_with_replacement

import numpy as np

from .polyfield import evaluate_monomials, monomial_plan, monomials_upto
from .verifier import Lagrangian

__all__ = [
    "GenPoly",
    "GeneratorSet",
    "RundCoefficients",
    "MicropolarBlocks",
    "rund_coefficients",
    "build_null_lagrangian",
    "RundLagrangian",
    "micropolar_block_view",
    "coefficient_identity_residuals",
    "random_generator_set",
    "generator_set_from_json",
    "generator_set_to_json",
]


class GenPoly:
    """Polynomial in (x1..x3, y1..yN) with exact rational coefficients."""

    __slots__ = ("nvars", "_terms")

    def __init__(self, nvars: int, terms=None):
        """`terms` maps exponent tuples to coefficients, or is an iterable of
        (exponents, coeff) pairs; the coefficients of a repeated exponent
        tuple are summed exactly, and zero sums dropped."""
        self.nvars = int(nvars)
        merged: dict[tuple[int, ...], Fraction] = {}
        for expo, coeff in terms.items() if isinstance(terms, dict) else terms or ():
            expo = tuple(int(e) for e in expo)
            if len(expo) != self.nvars:
                raise ValueError(f"exponent tuple length {len(expo)} != {self.nvars} variables")
            coeff = Fraction(coeff)
            merged[expo] = merged[expo] + coeff if expo in merged else coeff
        self._terms = {e: c for e, c in merged.items() if c != 0}

    @property
    def terms(self) -> dict:
        return dict(self._terms)


def _to_float(num: int, den: int, what: str) -> float:
    """num / den correctly rounded, which is float(Fraction(num, den)); a
    ValueError if it overflows or a nonzero value underflows to 0."""
    try:
        out = num / den
    except OverflowError:
        out = math.inf
    if not math.isfinite(out) or (out == 0.0 and num != 0):
        power = round(math.log10(abs(num)) - math.log10(den))
        raise ValueError(f"{what} of magnitude ~1e{power} is outside the double range")
    return out


@lru_cache(maxsize=None)
def _partial_tuples(nvars: int, order: int) -> tuple:
    """For order 1 or 2: the tuples (P, order) of `combinations_with_replacement(
    range(nvars), order)`, the decrement of each slot's exponent by earlier
    slots on its variable, each tuple's count per variable (P, nvars), and the
    matrix column a * P + i of every (a, v1, ..) of the three generators."""
    tuples = np.array(list(combinations_with_replacement(range(nvars), order)), dtype=np.int64)
    offsets = np.sum((tuples[:, :, None] == tuples[:, None, :]) & np.tri(order, k=-1, dtype=bool), axis=2)
    index = np.empty((3,) + (nvars,) * order, dtype=np.int64)
    columns = np.arange(3 * len(tuples)).reshape(3, -1)
    index[(slice(None), *tuples.T)] = index[(slice(None), *tuples.T[::-1])] = columns
    return tuples, offsets, np.sum(tuples[:, :, None] == np.arange(nvars), axis=1), index


class GeneratorSet:
    """Three generator polynomials of (x, y), held as one exact table: term t
    is num[t] / den[t] * prod_v v^expos[t, v] of generator poly[t], with
    exponents (T, 3+N) int64, generator indices (T,), and reduced numerators
    and denominators as Python ints in object arrays.

    Their first and second partials are evaluated from float matrices built
    from the table on first use: one exponent table with its monomial plan and
    one coefficient column per partial, so each evaluation is one monomial
    matrix and one product over the batch.
    """

    def __init__(self, polys, n: int):
        polys, n = tuple(polys), int(n)
        if len(polys) != 3:
            raise ValueError("a generator set holds exactly three polynomials")
        if n < 1:
            raise ValueError("field dimension must be positive")
        if any(poly.nvars != 3 + n for poly in polys):
            raise ValueError(f"generator polynomials must use {3 + n} variables")
        self._fill(n, {(a, e): c for a, poly in enumerate(polys) for e, c in poly._terms.items()})
        self._polys = polys

    def _fill(self, n: int, terms: dict) -> None:
        """Set the table to the {(generator index, exponents): nonzero Fraction} terms."""
        self.n, self._polys, self._grad, self._hess = n, None, None, None
        self._degree = max((sum(e) for _, e in terms), default=0)
        self.poly = np.array([a for a, _ in terms], dtype=np.int64)
        self.expos = np.fromiter(chain.from_iterable(e for _, e in terms), np.int64).reshape(-1, 3 + n)
        self.num = np.array([c.numerator for c in terms.values()], dtype=object)
        self.den = np.array([c.denominator for c in terms.values()], dtype=object)
        for table in (self.poly, self.expos, self.num, self.den):
            table.flags.writeable = False

    @property
    def polys(self) -> tuple:
        """The generators as `GenPoly`s: those given, or built from a loaded table."""
        if self._polys is None:
            rows = list(zip(self.poly.tolist(), self.expos.tolist(), self.num, self.den))
            self._polys = tuple(GenPoly(3 + self.n, [(e, Fraction(u, d)) for b, e, u, d in rows if b == a])
                                for a in range(3))
        return self._polys

    def degree(self) -> int:
        return self._degree

    def _partial_matrix(self, order: int) -> tuple:
        """Exponents (R, 3+N), float coefficients (R, 3 * P) and plan of all P
        partials of the given order: column a * P + i holds the partial of S^a
        along the i-th tuple of `_partial_tuples`, and the rows are the sorted
        union of the partials' exponents.  A partial maps each term to one
        term, so each coefficient is one exact integer product of exponent
        factors and one correctly rounded division."""
        tuples, offsets, counts, _ = _partial_tuples(3 + self.n, order)
        factors = self.expos[:, tuples] - offsets
        term, part = np.nonzero(np.all(factors > 0, axis=2))
        col = self.poly[term] * len(tuples) + part
        num, den = self.num[term], self.den[term]
        # Python ints: a product of exponent factors can pass 2**63.
        for factor in factors[term, part].T:
            num = num * factor.astype(object)
        try:
            values = (num / den).astype(float)
        except OverflowError:
            values = None
        if values is None or not values.all():
            # name the first coefficient out of range, column by column in table order
            for i in np.lexsort((term, col)):
                _to_float(num[i], den[i], "generator partial coefficient")
        shifted = self.expos[term] - counts[part]
        sort = np.lexsort(shifted.T[::-1])
        new = np.ones(len(sort), dtype=bool)
        new[1:] = np.any(shifted[sort[1:]] != shifted[sort[:-1]], axis=1)
        row = np.empty_like(sort)
        row[sort] = np.cumsum(new) - 1
        expos = shifted[sort[new]]
        coeffs = np.zeros((len(expos), 3 * len(tuples)))
        coeffs[row, col] = values
        return expos, coeffs, monomial_plan(expos)

    def _gradient(self) -> tuple:
        """Exponents, coefficients (T1, 3 * (3+N)) and plan of dS^a/dv, column a*(3+N) + v."""
        if self._grad is None:
            self._grad = self._partial_matrix(1)
        return self._grad

    def _hessian(self) -> tuple:
        """Exponents, coefficients and plan of d2S^a/dv1 dv2 for v1 <= v2, and the
        column of every (a, v1, v2) in the full symmetric (3, 3+N, 3+N) array."""
        if self._hess is None:
            self._hess = self._partial_matrix(2) + (_partial_tuples(3 + self.n, 2)[3],)
        return self._hess

    def _points(self, x, y) -> np.ndarray:
        pts = np.concatenate(
            [np.atleast_2d(np.asarray(x, dtype=float)), np.atleast_2d(np.asarray(y, dtype=float))],
            axis=1,
        )
        if pts.shape[1] != 3 + self.n:
            raise ValueError(f"points must have {3 + self.n} columns")
        return pts

    def first_partials(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched (Sx, Sy): x-partials (m,3,3) and y-partials (m,3,N)."""
        pts = self._points(x, y)
        _, coeffs, plan = self._gradient()
        vals = evaluate_monomials(pts, plan, coeffs).reshape(pts.shape[0], 3, 3 + self.n)
        return vals[:, :, :3], vals[:, :, 3:]

    def second_partials(self, x: np.ndarray, y: np.ndarray):
        """Second partials (Sxx (3,3,3), Sxy (3,3,N), Syy (3,N,N)) at one point
        x (3,), y (N,); batched points x (m,3), y (m,N) add a leading m axis.

        Sxx[a,b,c] = d2 S^a / dx_b dx_c, Sxy[a,b,j] = d2 S^a / dx_b dy_j,
        Syy[a,i,j] = d2 S^a / dy_i dy_j; exactly symmetric.
        """
        _, coeffs, plan, index = self._hessian()
        full = evaluate_monomials(self._points(x, y), plan, coeffs)[:, index]
        if np.ndim(x) == 1:
            full = full[0]
        return full[..., :3, :3], full[..., :3, 3:], full[..., 3:, 3:]


@dataclass(frozen=True)
class RundCoefficients:
    """Determinant coefficient blocks at one state (x, y).

    d2[a1,a2,i1,i2] is antisymmetric under (a1,a2) swap and symmetric under
    the simultaneous (a1,a2)+(i1,i2) swap; d1 sums its lower determinant row
    over the dummy direction; d0 sums over both dummies.
    """

    d2: np.ndarray
    d1: np.ndarray
    d0: float


def rund_coefficients(g: GeneratorSet, x, y) -> RundCoefficients:
    sx, sy = g.first_partials(np.atleast_2d(x), np.atleast_2d(y))
    sx, sy = sx[0], sy[0]
    d2 = np.einsum("ai,bj->abij", sy, sy) - np.einsum("bi,aj->abij", sy, sy)
    tr_sx = float(np.trace(sx))
    d1 = sy * tr_sx - np.einsum("bi,ab->ai", sy, sx)
    d0 = tr_sx * tr_sx - float(np.einsum("ab,ba->", sx, sx))
    return RundCoefficients(d2, d1, float(d0))


class RundLagrangian(Lagrangian):
    """Evaluator of the generator-built density
    d2.y'y'/2 + d1.y' + d0/2 with coefficients re-evaluated at each (x, y).

    In terms of J = Sx + Sy.Dy the density is (tr(J)^2 - tr(J^2)) / 2, with
    dL/dJ = C = tr(J) I - J^T, so its Euler residual has the closed form

        E_k = D_g(Sy[a,k]) C[a,g] + Sy[a,k] D_g C[a,g] - C[a,b] dJ[a,b]/dy_k

    with D_g the total derivative along x_g; it needs only the generators'
    first and second partials and the field state.
    """

    closed_form = True

    def __init__(self, generators: GeneratorSet):
        self.generators = generators
        self.n = generators.n
        # For generator degree <= 3 the density is a polynomial of degree
        # <= 4 in every single argument, so the Richardson stencil has zero
        # truncation error and a large step minimizes roundoff on the
        # finite-difference cross-validation path.
        if generators.degree() <= 3:
            self.fd_base_step = 1e-2

    def evaluate(self, x, y, dy):
        sx, sy = self.generators.first_partials(x, y)
        j = sx + sy @ np.asarray(dy, dtype=float)
        tr = np.trace(j, axis1=1, axis2=2)
        tr_sq = np.einsum("mab,mba->m", j, j)
        return 0.5 * (tr * tr - tr_sq)

    def evaluate_from_coefficients(self, x, y, dy) -> float:
        """Single-state evaluation straight from the determinant blocks;
        cross-validates the collapsed form used by `evaluate`."""
        coeff = rund_coefficients(self.generators, x, y)
        dy = np.asarray(dy, dtype=float)
        out = 0.5 * np.einsum("abij,ia,jb->", coeff.d2, dy, dy)
        out += np.einsum("ai,ia->", coeff.d1, dy)
        return float(out + 0.5 * coeff.d0)

    def _euler_halves(self, x, y0, dy0, d2y0):
        """The two halves of the Euler operator at m states, x (m,3), y0 (m,N),
        dy0 (m,N,3), d2y0 (m,N,3,3): D_g(dL/dy'_kg) and dL/dy_k (m,N), the
        divergence D_g C[a,g] (m,3), which vanishes (Piola identity), and
        max|d2L/dy' dy'| (m,), the largest |d2[a,b,i,j]| of `RundCoefficients`."""
        sx, sy = self.generators.first_partials(x, y0)
        sxx, sxy, syy = self.generators.second_partials(x, y0)
        j = sx + sy @ dy0
        c = np.trace(j, axis1=1, axis2=2)[:, None, None] * np.eye(3) - np.swapaxes(j, 1, 2)
        # dsy[a,b,k] = D_b Sy[a,k] = dJ[a,b]/dy_k: exact partials commute
        dsy = sxy + np.einsum("maik,mib->mabk", syy, dy0)
        # dj[a,b,c] = D_c J[a,b]
        dj = (sxx + np.einsum("mabj,mjc->mabc", sxy, dy0) + np.einsum("maci,mib->mabc", dsy, dy0)
              + np.einsum("mai,mibc->mabc", sy, d2y0))
        div_c = np.einsum("mbba->ma", dj) - np.einsum("mgag->ma", dj)
        # D_g(Sy[a,k]) C[a,g] and C[a,b] dJ[a,b]/dy_k are the same sum
        d_y = np.einsum("mab,mabk->mk", c, dsy)
        d_dyp = d_y + np.einsum("mak,ma->mk", sy, div_c)
        outer = np.einsum("mai,mbj->mabij", sy, sy)
        scale = np.max(np.abs(outer - np.swapaxes(outer, 1, 2)), axis=(1, 2, 3, 4))
        return d_dyp, d_y, div_c, scale

    def closed_residual(self, x, y0, dy0, d2y0):
        n = self.n
        lead = y0.shape[:-1]
        d_dyp, d_y, _, scale = self._euler_halves(
            x.reshape(-1, 3), y0.reshape(-1, n), dy0.reshape(-1, n, 3), d2y0.reshape(-1, n, 3, 3))
        return (d_dyp - d_y).reshape(lead + (n,)), scale.reshape(lead)

    def integrand_degree(self, field_degree: int) -> int:
        # Per coordinate: a generator partial (total degree <= k in (x, y))
        # composed with the field has degree <= k * max(p, 1); the factor
        # dy/dx_b in J adds up to p, since differentiating along x_b leaves
        # the degree in the other coordinates unchanged.  The density is
        # quadratic in J.
        p = max(int(field_degree), 0)
        k = max(self.generators.degree() - 1, 0)
        return 2 * (k * max(p, 1) + p)


def build_null_lagrangian(g: GeneratorSet) -> RundLagrangian:
    """Null density generated by three arbitrary functions of (x, y)."""
    return RundLagrangian(g)


@dataclass(frozen=True)
class MicropolarBlocks:
    """Coefficient blocks partitioned by displacement (first three field
    components) and rotation (last three)."""

    d2_uu: np.ndarray
    d2_phiphi: np.ndarray
    d2_uphi: np.ndarray
    d1_u: np.ndarray
    d1_phi: np.ndarray
    d0: float


def micropolar_block_view(g: GeneratorSet, x, y) -> MicropolarBlocks:
    if g.n != 6:
        raise ValueError("block view needs a six-component field")
    coeff = rund_coefficients(g, x, y)
    return MicropolarBlocks(
        d2_uu=coeff.d2[:, :, :3, :3],
        d2_phiphi=coeff.d2[:, :, 3:, 3:],
        d2_uphi=coeff.d2[:, :, :3, 3:],
        d1_u=coeff.d1[:, :3],
        d1_phi=coeff.d1[:, 3:],
        d0=coeff.d0,
    )


def coefficient_identity_residuals(g: GeneratorSet, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Normalized residuals of the two coefficient identities:

    linear[i]     : 2 * d/dx_a d1(a; i) - d/dy_i d0
    quad[k,a,i]   : sum_g d/dx_g d2(g,a; k,i) + d/dy_i d1(a; k) - d/dy_k d1(a; i)

    Both vanish identically for any generators (they are what makes the
    built density null); residuals are normalized by one plus the sum of
    the absolute values of their product terms.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sx, sy = g.first_partials(x[None, :], y[None, :])
    sx, sy = sx[0], sy[0]
    sxx, sxy, syy = g.second_partials(x, y)
    # mixed y-then-x partials coincide with x-then-y exactly (rational coeffs)
    syx = np.transpose(sxy, (0, 2, 1))  # syx[a, i, c] = d2 S^a / dy_i dx_c
    tr_sx = np.trace(sx)

    t1 = 2.0 * np.einsum("aia->i", syx) * tr_sx
    t2 = 2.0 * np.einsum("ai,bba->i", sy, sxx)
    t3 = -2.0 * np.einsum("bia,ab->i", syx, sx)
    t4 = -2.0 * np.einsum("bi,aba->i", sy, sxx)
    t5 = -np.einsum("aai->i", sxy) * tr_sx
    t6 = -np.einsum("aa,bbi->i", sx, sxy)
    t7 = np.einsum("bai,ab->i", sxy, sx)
    t8 = np.einsum("ba,abi->i", sx, sxy)
    lin_terms = [t1, t2, t3, t4, t5, t6, t7, t8]
    lin = sum(lin_terms)
    lin_scale = 1.0 + float(np.max(sum(np.abs(t) for t in lin_terms)))

    u1 = np.einsum("gkg,ai->kai", syx, sy)
    u2 = np.einsum("gk,aig->kai", sy, syx)
    u3 = -np.einsum("akg,gi->kai", syx, sy)
    u4 = -np.einsum("ak,gig->kai", sy, syx)
    v1 = np.einsum("aki->kai", syy) * tr_sx
    v2 = np.einsum("ak,bbi->kai", sy, sxy)
    v3 = -np.einsum("bki,ab->kai", syy, sx)
    v4 = -np.einsum("bk,abi->kai", sy, sxy)
    w1 = -np.einsum("aik->kai", syy) * tr_sx
    w2 = -np.einsum("ai,bbk->kai", sy, sxy)
    w3 = np.einsum("bik,ab->kai", syy, sx)
    w4 = np.einsum("bi,abk->kai", sy, sxy)
    quad_terms = [u1, u2, u3, u4, v1, v2, v3, v4, w1, w2, w3, w4]
    quad = sum(quad_terms)
    quad_scale = 1.0 + float(np.max(sum(np.abs(t) for t in quad_terms)))

    return lin / lin_scale, quad / quad_scale


def random_generator_set(rng: np.random.Generator, n: int, degree: int = 2) -> GeneratorSet:
    """Random sparse generators with small exact rational coefficients."""
    nvars = 3 + n
    monomials = sorted(monomials_upto(nvars, degree))
    polys = []
    for _ in range(3):
        terms = {}
        for expo in monomials:
            if rng.uniform() < 0.35:
                num = int(rng.integers(-8, 9))
                den = int(rng.integers(1, 5))
                if num:
                    terms[expo] = Fraction(num, den)
        polys.append(GenPoly(nvars, terms))
    return GeneratorSet(polys, n)


def _parse_term(term) -> tuple[tuple[int, ...], Fraction]:
    """One {"exponents": [...], "coeff": "p/q"} term, strictly validated."""
    if not isinstance(term, dict) or set(term) != {"exponents", "coeff"}:
        keys = sorted(term) if isinstance(term, dict) else type(term).__name__
        raise ValueError(f"generator term must have exactly keys exponents/coeff, got {keys}")
    expo = term["exponents"]
    if not isinstance(expo, list) or not all(type(e) is int and e >= 0 for e in expo):
        raise ValueError(f"generator exponents must be a list of non-negative integers, got {expo!r}")
    if max(expo, default=0) >= 2**63:
        raise ValueError(f"generator exponent {max(expo)} is too large for a 64-bit integer")
    if not isinstance(text := term["coeff"], str):
        raise ValueError(f"generator coefficient must be a string such as \"1/2\", got {text!r}")
    try:
        coeff = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"generator coefficient {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"generator coefficient {text!r} is not a rational number") from None
    _to_float(coeff.numerator, coeff.denominator, "generator coefficient")
    return tuple(expo), coeff


def generator_set_from_json(obj, n: int | None = None) -> GeneratorSet:
    """Parse the generator file format: a list of three polynomials, each a
    list of {"exponents": [ex1,ex2,ex3,ey1..eyN], "coeff": "p/q"}.

    Exponents must be non-negative JSON integers below 2**63 and coefficients
    finite rationals that a double represents without overflow or underflow
    to zero; anything else is a ValueError.  Duplicate terms of a polynomial
    are summed exactly and zero sums dropped.
    """
    if not isinstance(obj, list) or len(obj) != 3:
        raise ValueError("generator file must be a list of three polynomials")
    nvars = None
    terms: dict = {}
    for a, poly_terms in enumerate(obj):
        if not isinstance(poly_terms, list):
            raise ValueError("each generator polynomial must be a list of terms")
        for term in poly_terms:
            expo, coeff = _parse_term(term)
            if nvars is None:
                nvars = len(expo)
                if nvars < 4:
                    raise ValueError("exponent tuples need at least four entries (3 for x)")
            elif len(expo) != nvars:
                raise ValueError("inconsistent exponent tuple lengths")
            key = (a, expo)
            terms[key] = terms[key] + coeff if key in terms else coeff
    if nvars is None:
        raise ValueError("generator file has no terms; field dimension is undetermined")
    inferred = nvars - 3
    if n is not None and n != inferred:
        raise ValueError(f"generator file implies {inferred} field components, expected {n}")
    g = GeneratorSet.__new__(GeneratorSet)
    g._fill(inferred, {key: c for key, c in terms.items() if c})
    return g


def generator_set_to_json(g: GeneratorSet) -> list:
    out = []
    for poly in g.polys:
        out.append(
            [
                {"exponents": list(expo), "coeff": str(coeff)}
                for expo, coeff in sorted(poly.terms.items())
            ]
        )
    return out
