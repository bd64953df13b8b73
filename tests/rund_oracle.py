"""Reference versions of the generator-file loader, writer and random draw,
and of the coefficient-identity residuals.

They parse every coefficient with `Fraction(text)`, sum duplicate terms as
`Fraction`s, draw random sets term by term into `Fraction`s and add the
identity terms one array at a time, as `nullag.rund` did before its exact
table was filled from integer pairs and its identity terms were stacked.
They are used only by the tests, which require `nullag.rund` to give the
same tables, the same error texts, the same JSON and the same bits.
`polys_of` gives a set's generators as `GenPoly`s, for the tests that
differentiate them term by term.

A table here is a `ReferenceTable`: the field dimension, then each term's
generator index, exponents, reduced numerator and positive denominator, in
the order `GeneratorSet` holds them.
"""

import math
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from nullag.polyfield import monomials_upto
from nullag.rund import GenPoly


class ReferenceTable(NamedTuple):
    n: int
    poly: list
    expos: list
    num: list
    den: list


def table_of(g) -> ReferenceTable:
    """The exact table of a `GeneratorSet` as plain lists."""
    return ReferenceTable(g.n, g.poly.tolist(), g.expos.tolist(), g.num.tolist(), g.den.tolist())


def polys_of(g) -> tuple:
    """The three generators of a `GeneratorSet` as `GenPoly`s, rebuilt from
    its exact table."""
    rows = list(zip(g.poly.tolist(), g.expos.tolist(), g.num.tolist(), g.den.tolist()))
    return tuple(GenPoly(3 + g.n, [(e, Fraction(u, d)) for b, e, u, d in rows if b == a]) for a in range(3))


def _table(n: int, terms: dict) -> ReferenceTable:
    """The table of {(generator index, exponents): nonzero Fraction} terms."""
    return ReferenceTable(n, [a for a, _ in terms], [list(e) for _, e in terms],
                          [c.numerator for c in terms.values()], [c.denominator for c in terms.values()])


def _to_float(num: int, den: int, what: str) -> float:
    try:
        out = num / den
    except OverflowError:
        out = math.inf
    if not math.isfinite(out) or (out == 0.0 and num != 0):
        power = round(math.log10(abs(num)) - math.log10(den))
        raise ValueError(f"{what} of magnitude ~1e{power} is outside the double range")
    return out


def reference_parse_term(term) -> tuple[tuple[int, ...], Fraction]:
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


def reference_generator_set_from_json(obj) -> ReferenceTable:
    if not isinstance(obj, list) or len(obj) != 3:
        raise ValueError("generator file must be a list of three polynomials")
    nvars = None
    terms: dict = {}
    for a, poly_terms in enumerate(obj):
        if not isinstance(poly_terms, list):
            raise ValueError("each generator polynomial must be a list of terms")
        for term in poly_terms:
            expo, coeff = reference_parse_term(term)
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
    return _table(nvars - 3, {key: c for key, c in terms.items() if c})


def reference_random_generator_set(rng: np.random.Generator, n: int, degree: int = 2) -> ReferenceTable:
    monomials = sorted(monomials_upto(3 + n, degree))
    terms = {}
    for a in range(3):
        for expo in monomials:
            if rng.uniform() < 0.35:
                num = int(rng.integers(-8, 9))
                den = int(rng.integers(1, 5))
                if num:
                    terms[a, expo] = Fraction(num, den)
    return _table(n, terms)


def reference_generator_set_to_json(table: ReferenceTable) -> list:
    polys = [{tuple(e): Fraction(u, d) for b, e, u, d in zip(table.poly, table.expos, table.num, table.den)
              if b == a} for a in range(3)]
    return [[{"exponents": list(expo), "coeff": str(coeff)} for expo, coeff in sorted(poly.items())]
            for poly in polys]


def reference_coefficient_identity_residuals(g, x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sx, sy = g.first_partials(x[None, :], y[None, :])
    sx, sy = sx[0], sy[0]
    sxx, sxy, syy = g.second_partials(x, y)
    syx = np.transpose(sxy, (0, 2, 1))
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
