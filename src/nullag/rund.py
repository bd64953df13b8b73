"""Degree-2 null Lagrangians built from three generator functions S(x, y).

The quadratic, linear and constant coefficient blocks are 2x2 determinants
of the generator partials; contracting them with the field gradient
collapses to the second invariant of the total-derivative matrix
J_ab = dS^a/dx_b + dS^a/dy_i * y^i_b, which is what the evaluator computes.
Generators are polynomials with rational coefficients, so all partials are
exact and the partial-derivative order never matters.  Their first and
second partials are `polyfield.ExponentTable`s, built by `table_of` as a
field's tables are, each with one float coefficient column per partial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

from .polyfield import evaluate_monomials, exponent_rows, monomials_upto, table_of
from .verifier import Lagrangian

__all__ = [
    "GenPoly",
    "GeneratorSet",
    "RundCoefficients",
    "rund_coefficients",
    "RundLagrangian",
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
        merged: dict[tuple, Fraction] = {}
        for expo, coeff in terms.items() if isinstance(terms, dict) else terms or ():
            expo, coeff = tuple(expo), Fraction(coeff)
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
    counts = np.sum(tuples[:, :, None] == np.arange(nvars), axis=1)
    for array in (tuples, offsets, counts, index):
        array.flags.writeable = False
    return tuples, offsets, counts, index


class GeneratorSet:
    """Three generator polynomials of (x, y), held as one exact table: term t
    is num[t] / den[t] * prod_v v^expos[t, v] of generator poly[t], with
    exponents (T, 3+N) int64, generator indices (T,), and reduced numerators
    and denominators as Python ints in object arrays.  The partial tables
    are built on first use, so each evaluation is one monomial matrix and one
    product over the batch."""

    def __init__(self, polys, n: int):
        polys, n = tuple(polys), int(n)
        if len(polys) != 3:
            raise ValueError("a generator set holds exactly three polynomials")
        if n < 1:
            raise ValueError("field dimension must be positive")
        if any(poly.nvars != 3 + n for poly in polys):
            raise ValueError(f"generator polynomials must use {3 + n} variables")
        self._fill(n, {(a, e): (c.numerator, c.denominator) for a, poly in enumerate(polys)
                       for e, c in poly._terms.items()})

    @classmethod
    def _from_table(cls, n: int, terms: dict) -> GeneratorSet:
        g = cls.__new__(cls)
        g._fill(n, terms)
        return g

    def _fill(self, n: int, terms: dict) -> None:
        """Set the table to the {(generator index, exponents): (numerator,
        denominator)} terms, each reduced, nonzero and with den > 0."""
        self.n, self._grad, self._hess = n, None, None
        self.expos = exponent_rows((e for _, e in terms), 3 + n)
        self._degree = max(map(sum, self.expos.tolist()), default=0)
        self.poly = np.array([a for a, _ in terms], dtype=np.int64)
        self.num = np.array([u for u, _ in terms.values()], dtype=object)
        self.den = np.array([d for _, d in terms.values()], dtype=object)
        for table in (self.poly, self.expos, self.num, self.den):
            table.flags.writeable = False

    def degree(self) -> int:
        return self._degree

    def _partial_matrix(self, order: int) -> tuple:
        """Exponents (R, 3+N), read-only float coefficients (R, 3 * P) and table
        of all P partials of the given order: column a * P + i holds the partial
        of S^a along the i-th tuple of `_partial_tuples`, row r the table's row r.
        A partial maps each term to one term, so each coefficient is one exact
        integer product of exponent factors and one correctly rounded division."""
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
        table, row = table_of(self.expos[term] - counts[part])
        coeffs = np.zeros((len(table), 3 * len(tuples)))
        coeffs[row, col] = values
        coeffs.flags.writeable = False
        return table.expos, coeffs, table

    def _gradient(self) -> tuple:
        """Exponents, coefficients (T1, 3 * (3+N)) and table of dS^a/dv, column a*(3+N) + v."""
        if self._grad is None:
            self._grad = self._partial_matrix(1)
        return self._grad

    def _hessian(self) -> tuple:
        """Exponents, coefficients and table of d2S^a/dv1 dv2 for v1 <= v2, and the
        column of every (a, v1, v2) in the full symmetric (3, 3+N, 3+N) array."""
        if self._hess is None:
            self._hess = self._partial_matrix(2) + (_partial_tuples(3 + self.n, 2)[3],)
        return self._hess

    def _points(self, x, y) -> tuple[np.ndarray, np.ndarray]:
        """x (m, 3) and y (m, N) as float column blocks, read in place."""
        x, y = np.atleast_2d(np.asarray(x, dtype=float)), np.atleast_2d(np.asarray(y, dtype=float))
        if x.shape[1:] != (3,) or y.shape[1:] != (self.n,) or len(x) != len(y):
            raise ValueError(f"points must be x (m, 3) and y (m, {self.n}), not x {x.shape} and y {y.shape}")
        return x, y

    def first_partials(self, x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Batched (Sx, Sy): x-partials (m,3,3) and y-partials (m,3,N)."""
        pts = self._points(x, y)
        _, coeffs, table = self._gradient()
        vals = evaluate_monomials(pts, table.plan, coeffs).reshape(len(pts[0]), 3, 3 + self.n)
        return vals[:, :, :3], vals[:, :, 3:]

    def second_partials(self, x: np.ndarray, y: np.ndarray):
        """Second partials (Sxx (3,3,3), Sxy (3,3,N), Syy (3,N,N)) at one point
        x (3,), y (N,); batched points x (m,3), y (m,N) add a leading m axis.

        Sxx[a,b,c] = d2 S^a / dx_b dx_c, Sxy[a,b,j] = d2 S^a / dx_b dy_j,
        Syy[a,i,j] = d2 S^a / dy_i dy_j; exactly symmetric.
        """
        _, coeffs, table, index = self._hessian()
        full = evaluate_monomials(self._points(x, y), table.plan, coeffs)[:, index]
        if np.ndim(x) == 1:
            full = full[0]
        return full[..., :3, :3], full[..., :3, 3:], full[..., 3:, 3:]


@dataclass(frozen=True, eq=False)
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

    def __init__(self, generators: GeneratorSet):
        self.generators = generators
        self.n = generators.n

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


def coefficient_identity_residuals(g: GeneratorSet, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Normalized residuals of the two coefficient identities:

    linear[i]     : 2 * d/dx_a d1(a; i) - d/dy_i d0
    quad[k,a,i]   : sum_g d/dx_g d2(g,a; k,i) + d/dy_i d1(a; k) - d/dy_k d1(a; i)

    Both vanish identically for any generators (they are what makes the
    built density null); residuals are normalized by one plus the sum of
    the absolute values of their product terms.  Each identity's product
    terms are the rows of one array, each its own contraction of the
    partials, and the sums run over the rows in order.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sx, sy = g.first_partials(x[None, :], y[None, :])
    sx, sy = sx[0], sy[0]
    sxx, sxy, syy = g.second_partials(x, y)
    # mixed y-then-x partials coincide with x-then-y exactly (rational coeffs)
    syx = np.transpose(sxy, (0, 2, 1))  # syx[a, i, c] = d2 S^a / dy_i dx_c
    tr_sx = np.trace(sx)

    # each row is one product term before its factor (trailing comment),
    # applied below in the order the term is written, e.g. (-e) * tr(Sx)
    lin = np.empty((8, g.n))
    np.einsum("aia->i", syx, out=lin[0])  # * 2 tr(Sx)
    np.einsum("ai,bba->i", sy, sxx, out=lin[1])  # * 2
    np.einsum("bia,ab->i", syx, sx, out=lin[2])  # * -2
    np.einsum("bi,aba->i", sy, sxx, out=lin[3])  # * -2
    np.einsum("aai->i", sxy, out=lin[4])  # * -tr(Sx)
    np.einsum("aa,bbi->i", sx, sxy, out=lin[5])  # * -1
    np.einsum("bai,ab->i", sxy, sx, out=lin[6])
    np.einsum("ba,abi->i", sx, sxy, out=lin[7])
    lin[:2] *= 2.0
    lin[2:4] *= -2.0
    np.negative(lin[4:6], out=lin[4:6])
    lin[::4] *= tr_sx

    quad = np.empty((12, g.n, 3, g.n))
    np.einsum("gkg,ai->kai", syx, sy, out=quad[0])
    np.einsum("gk,aig->kai", sy, syx, out=quad[1])
    np.einsum("akg,gi->kai", syx, sy, out=quad[2])  # * -1
    np.einsum("ak,gig->kai", sy, syx, out=quad[3])  # * -1
    np.einsum("aki->kai", syy, out=quad[4])  # * tr(Sx)
    np.einsum("ak,bbi->kai", sy, sxy, out=quad[5])
    np.einsum("bki,ab->kai", syy, sx, out=quad[6])  # * -1
    np.einsum("bk,abi->kai", sy, sxy, out=quad[7])  # * -1
    np.einsum("aik->kai", syy, out=quad[8])  # * -tr(Sx)
    np.einsum("ai,bbk->kai", sy, sxy, out=quad[9])  # * -1
    np.einsum("bik,ab->kai", syy, sx, out=quad[10])
    np.einsum("bi,abk->kai", sy, sxy, out=quad[11])
    np.negative(quad[2:4], out=quad[2:4])
    np.negative(quad[6:10], out=quad[6:10])
    quad[4::4] *= tr_sx

    return _normalized_sum(lin), _normalized_sum(quad)


def _normalized_sum(terms: np.ndarray) -> np.ndarray:
    """The sum of the rows of `terms` over one plus the largest entry of the
    sum of their absolute values, each sum running over the rows in order as
    `sum()` over the terms does; overwrites `terms`."""
    terms[0] += 0.0  # as sum() starts from 0: a -0.0 first term reads +0.0
    total = np.add.accumulate(terms, axis=0)[-1]
    scale = 1.0 + float(np.max(np.add.accumulate(np.abs(terms, out=terms), axis=0)[-1]))
    return total / scale


def random_generator_set(rng: np.random.Generator, n: int, degree: int = 2) -> GeneratorSet:
    """Random sparse generators with small exact rational coefficients."""
    if n < 1:
        raise ValueError("field dimension must be positive")
    monomials = sorted(monomials_upto(3 + n, degree))
    terms = {}
    for a in range(3):
        for expo in monomials:
            if rng.uniform() < 0.35:
                num = int(rng.integers(-8, 9))
                den = int(rng.integers(1, 5))
                if num:
                    common = math.gcd(num, den)
                    terms[a, expo] = (num // common, den // common)
    return GeneratorSet._from_table(n, terms)


def _parse_coeff(text: str) -> tuple[int, int]:
    """A coefficient string as its reduced (numerator, denominator > 0), by
    the grammar of `Fraction(text)`.  Plain ASCII p, +p, -p and +-p/q are read
    with `int` and `math.gcd`; every other string goes through `Fraction`,
    which also names every rejected one."""
    head, slash, tail = text.partition("/")
    digits = head[1:] if head[:1] in ("+", "-") else head
    if text.isascii() and digits.isdigit() and (tail.isdigit() or not slash):
        try:
            num, den = int(head), int(tail) if slash else 1
        except ValueError:  # more digits than `int` converts
            pass
        else:
            if den:
                common = math.gcd(num, den)
                return num // common, den // common
    try:
        coeff = Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"generator coefficient {text!r} has a zero denominator") from None
    except ValueError:
        raise ValueError(f"generator coefficient {text!r} is not a rational number") from None
    return coeff.numerator, coeff.denominator


#: The one exponent type of a generator file: JSON true/false load as bool.
_INT = frozenset([int])


def _parse_term(term) -> tuple[tuple[int, ...], int, int]:
    """One {"exponents": [...], "coeff": "p/q"} term, strictly validated, as
    (exponents, reduced numerator, denominator > 0)."""
    if not isinstance(term, dict) or len(term) != 2 or "exponents" not in term or "coeff" not in term:
        keys = sorted(term) if isinstance(term, dict) else type(term).__name__
        raise ValueError(f"generator term must have exactly keys exponents/coeff, got {keys}")
    expo = term["exponents"]
    if not isinstance(expo, list) or not _INT.issuperset(map(type, expo)) or (expo and min(expo) < 0):
        raise ValueError(f"generator exponents must be a list of non-negative integers, got {expo!r}")
    if expo and max(expo) >= 2**63:
        raise ValueError(f"generator exponent {max(expo)} is too large for a 64-bit integer")
    if not isinstance(text := term["coeff"], str):
        raise ValueError(f"generator coefficient must be a string such as \"1/2\", got {text!r}")
    num, den = _parse_coeff(text)
    # below 2**53 both convert exactly, so a nonzero quotient is in range
    if abs(num) >= 2**53 or den >= 2**53:
        _to_float(num, den, "generator coefficient")
    return tuple(expo), num, den


def generator_set_from_json(obj) -> GeneratorSet:
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
            expo, num, den = _parse_term(term)
            if nvars is None:
                nvars = len(expo)
                if nvars < 4:
                    raise ValueError("exponent tuples need at least four entries (3 for x)")
            elif len(expo) != nvars:
                raise ValueError("inconsistent exponent tuple lengths")
            key = (a, expo)
            if key in terms:
                old_num, old_den = terms[key]
                num, den = old_num * den + num * old_den, old_den * den
                common = math.gcd(num, den)
                num, den = num // common, den // common
            terms[key] = (num, den)
    if nvars is None:
        raise ValueError("generator file has no terms; field dimension is undetermined")
    return GeneratorSet._from_table(nvars - 3, {key: c for key, c in terms.items() if c[0]})


def generator_set_to_json(g: GeneratorSet) -> list:
    """The generator file of `g`: each polynomial's terms sorted by exponents,
    each coefficient written "p" or "p/q" as `str(Fraction)` writes it."""
    out = [[], [], []]
    for a, expo, num, den in sorted(zip(g.poly.tolist(), g.expos.tolist(), g.num.tolist(), g.den.tolist())):
        out[a].append({"exponents": expo, "coeff": str(num) if den == 1 else f"{num}/{den}"})
    return out
