"""Exact multivariate polynomials on R^3 and vector fields built from them.

A scalar `Poly3` keeps its coefficients in a sparse exponent->coefficient
map, so differentiation is exact (degree drops by one, coefficients scale
by integer exponents).  A `PolyField` keeps one coefficient matrix over a
shared, sorted exponent table; the table carries integer maps to the tables
of its partial derivatives, so a field's gradient and Hessian coefficients
are built once, and each evaluation is one power table and one matrix
product over a whole batch of points.  `field_states` stacks the fields
that share a table, so a batch of fields at their own points costs one
power table and one stacked product per table and derivative level.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations_with_replacement

import numpy as np

__all__ = [
    "Poly3",
    "PolyField",
    "PolyMatrixField",
    "bubble",
    "random_polyfield",
    "gradient_field",
    "random_scalar_poly",
    "evaluate_monomials",
    "monomials_upto",
    "stack_fields",
    "field_states",
    "bubble_damped",
]


# Points per power table: bounds the working set of large quadrature batches.
_BLOCK_ROWS = 2048


def _monomials(points: np.ndarray, expos: np.ndarray) -> np.ndarray:
    """Monomial matrix (m, len(expos)) at points (m, 3), from per-variable
    power tables instead of float pow."""
    mono = np.ones((points.shape[0], expos.shape[0]))
    for v in range(expos.shape[1]):
        col = expos[:, v]
        max_e = int(col.max(initial=0))
        if max_e == 0:
            continue
        powers = np.empty((points.shape[0], max_e + 1))
        powers[:, 0] = 1.0
        for e in range(1, max_e + 1):
            powers[:, e] = powers[:, e - 1] * points[:, v]
        mono *= powers[:, col]
    return mono


def evaluate_monomials(points: np.ndarray, expos: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """Sum of coeffs * prod_v points[:, v] ** expos[:, v] over terms.

    `coeffs` has one row per term and may carry trailing columns, one per
    polynomial sharing the exponents.  Uses per-variable power tables
    instead of float pow, which dominates the cost of batched polynomial
    evaluation.
    """
    m = points.shape[0]
    if m > _BLOCK_ROWS:
        return np.concatenate([evaluate_monomials(points[i:i + _BLOCK_ROWS], expos, coeffs)
                               for i in range(0, m, _BLOCK_ROWS)])
    if expos.shape[0] == 0:
        return np.zeros((m,) + coeffs.shape[1:])
    return _monomials(points, expos) @ coeffs


def monomials_upto(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree <= degree, graded: by total degree,
    then lexicographically.  Seeded random polynomials draw in this order."""
    expos = []
    for combo in combinations_with_replacement(range(nvars + 1), degree):
        expo = [0] * (nvars + 1)
        for slot in combo:
            expo[slot] += 1
        expos.append(tuple(expo[:nvars]))
    return sorted(expos, key=lambda e: (sum(e), e))


class Poly3:
    """Scalar polynomial in (x1, x2, x3), immutable after construction."""

    __slots__ = ("_terms", "_cache")

    def __init__(self, terms: dict[tuple[int, int, int], float] | None = None):
        clean = {}
        for expo, coeff in (terms or {}).items():
            coeff = float(coeff)
            if coeff != 0.0:
                clean[tuple(int(e) for e in expo)] = coeff
        self._terms = clean
        self._cache = None

    @classmethod
    def constant(cls, value: float) -> "Poly3":
        return cls({(0, 0, 0): value})

    @classmethod
    def variable(cls, axis: int) -> "Poly3":
        expo = [0, 0, 0]
        expo[axis] = 1
        return cls({tuple(expo): 1.0})

    @property
    def terms(self) -> dict:
        return dict(self._terms)

    def degree(self) -> int:
        if not self._terms:
            return 0
        return max(sum(e) for e in self._terms)

    def diff(self, axis: int) -> "Poly3":
        out = {}
        for expo, coeff in self._terms.items():
            if expo[axis] == 0:
                continue
            new = list(expo)
            new[axis] -= 1
            out[tuple(new)] = out.get(tuple(new), 0.0) + coeff * expo[axis]
        return Poly3(out)

    def __add__(self, other: "Poly3") -> "Poly3":
        out = dict(self._terms)
        for expo, coeff in other._terms.items():
            out[expo] = out.get(expo, 0.0) + coeff
        return Poly3(out)

    def __sub__(self, other: "Poly3") -> "Poly3":
        return self + other.scale(-1.0)

    def scale(self, factor: float) -> "Poly3":
        return Poly3({e: c * factor for e, c in self._terms.items()})

    def __mul__(self, other: "Poly3") -> "Poly3":
        out: dict[tuple[int, int, int], float] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[key] = out.get(key, 0.0) + c1 * c2
        return Poly3(out)

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Evaluate on points of shape (n, 3); returns shape (n,)."""
        points = np.asarray(points, dtype=float)
        if self._cache is None:
            self._cache = _matrix_of([self])
        table, coeffs = self._cache
        vals = evaluate_monomials(points.reshape(-1, 3), table.expos, coeffs[0])
        return vals[0] if points.ndim == 1 else vals


class _Table:
    """Sorted exponent table, shared by every field over the same monomials.

    `derivative()` gives the table of all first partials of its monomials
    and, per axis, the integer map (source column, target column, exponent
    factor) that differentiates a coefficient matrix.
    """

    __slots__ = ("keys", "expos", "index", "_derivative")

    def __init__(self, keys: tuple):
        self.keys = keys
        self.expos = np.array(keys, dtype=np.int64).reshape(-1, 3)
        self.expos.flags.writeable = False
        self.index = {e: i for i, e in enumerate(keys)}
        self._derivative = None

    def __len__(self) -> int:
        return len(self.keys)

    def derivative(self):
        if self._derivative is None:
            shifted = [[] for _ in range(3)]
            for j, e in enumerate(self.keys):
                for a in range(3):
                    if e[a]:
                        shifted[a].append((j, e[:a] + (e[a] - 1,) + e[a + 1:], e[a]))
            child = _table(tuple(sorted({s[1] for rows in shifted for s in rows})))
            maps = [
                (
                    np.array([j for j, _, _ in rows], dtype=np.int64),
                    np.array([child.index[s] for _, s, _ in rows], dtype=np.int64),
                    np.array([f for _, _, f in rows], dtype=float),
                )
                for rows in shifted
            ]
            self._derivative = (child, maps)
        return self._derivative

    def differentiate(self, coeffs: np.ndarray):
        """Partials of the polynomials with coefficients (..., len(self)):
        (child table, coefficients (..., 3, len(child)))."""
        child, maps = self.derivative()
        out = np.zeros(coeffs.shape[:-1] + (3, len(child)))
        for a, (src, dst, factor) in enumerate(maps):
            out[..., a, dst] = coeffs[..., src] * factor
        return child, out


@lru_cache(maxsize=256)
def _table(keys: tuple) -> _Table:
    return _Table(keys)


@lru_cache(maxsize=None)
def _dense(degree: int):
    """Table of all monomials of degree <= degree, and the table column of
    each monomial in the graded draw order of `monomials_upto`."""
    graded = monomials_upto(3, degree)
    table = _table(tuple(sorted(graded)))
    return table, np.array([table.index[e] for e in graded], dtype=np.int64)


def _points(points) -> np.ndarray:
    return np.atleast_2d(np.asarray(points, dtype=float))


def _matrix_of(polys) -> tuple[_Table, np.ndarray]:
    """Shared table and coefficient matrix (len(polys), M) of scalar polys."""
    table = _table(tuple(sorted(set().union(*(p._terms for p in polys)))))
    coeffs = np.zeros((len(polys), len(table)))
    for i, p in enumerate(polys):
        for expo, c in p._terms.items():
            coeffs[i, table.index[expo]] = c
    return table, coeffs


@lru_cache(maxsize=256)
def _union(tables: tuple) -> tuple[_Table, tuple]:
    """Sorted union of tables and, per table, the union column of each of
    its monomials."""
    union = _table(tuple(sorted(set().union(*(t.keys for t in tables)))))
    return union, tuple(np.array([union.index[e] for e in t.keys], dtype=np.int64) for t in tables)


# Hessian entry (a, b) -> row of its a <= b pair (0,0),(0,1),(0,2),(1,1),(1,2),(2,2).
_PAIR = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_UPPER = np.triu_indices(3)


def _upper_second(table: _Table, grad: np.ndarray) -> tuple[_Table, np.ndarray]:
    """Second partials of first-partial coefficients (..., 3, M1) over
    `table`: child table and coefficients (..., 6, M2) of the a <= b pairs."""
    child, second = table.differentiate(grad)
    return child, second[..., _UPPER[0], _UPPER[1], :]


class PolyField:
    """Vector-valued polynomial map R^3 -> R^N with exact derivatives.

    Holds one exponent table and an (N, M) coefficient matrix; the scalar
    `components` are built from it on demand (and vice versa).  Gradient
    and Hessian coefficient matrices are built once, on first use.
    """

    __slots__ = ("_components", "_table", "_coeffs", "_grad", "_hess")

    def __init__(self, components):
        self._components = tuple(components)
        self._table = self._coeffs = self._grad = self._hess = None

    @classmethod
    def _from_matrix(cls, table: _Table, coeffs: np.ndarray) -> "PolyField":
        field = cls.__new__(cls)
        field._components = field._grad = field._hess = None
        field._table, field._coeffs = table, coeffs
        return field

    @classmethod
    def zero(cls, n: int) -> "PolyField":
        return cls([Poly3() for _ in range(n)])

    @property
    def components(self) -> tuple:
        if self._components is None:
            keys = self._table.keys
            self._components = tuple(Poly3(dict(zip(keys, row.tolist()))) for row in self._coeffs)
        return self._components

    def _matrix(self) -> tuple[_Table, np.ndarray]:
        if self._table is None:
            self._table, self._coeffs = _matrix_of(self._components)
        return self._table, self._coeffs

    @property
    def n(self) -> int:
        return len(self._components) if self._coeffs is None else self._coeffs.shape[0]

    def _used_expos(self) -> np.ndarray:
        """Exponent rows of the monomials with a nonzero coefficient."""
        table, coeffs = self._matrix()
        return table.expos[np.any(coeffs != 0.0, axis=0)]

    def degree(self) -> int:
        """Largest total degree of a monomial in use; 0 for the zero field."""
        used = self._used_expos()
        return int(used.sum(axis=1).max()) if used.size else 0

    def axis_degree(self) -> int:
        """Largest exponent of any single coordinate in a monomial in use;
        0 for the zero field.  A tensor-product Gauss rule is exact per
        coordinate, so this, not `degree()`, sizes it."""
        used = self._used_expos()
        return int(used.max()) if used.size else 0

    def __add__(self, other: "PolyField") -> "PolyField":
        if other.n != self.n:
            raise ValueError("component count mismatch")
        (t1, c1), (t2, c2) = self._matrix(), other._matrix()
        table, columns = _union((t1, t2))
        coeffs = np.zeros((self.n, len(table)))
        for cols, c in zip(columns, (c1, c2)):
            coeffs[:, cols] += c
        return PolyField._from_matrix(table, coeffs)

    def scale(self, factor: float) -> "PolyField":
        table, coeffs = self._matrix()
        return PolyField._from_matrix(table, coeffs * factor)

    def _gradient(self) -> tuple[_Table, np.ndarray]:
        """First-partial table and coefficients (N, 3, M1)."""
        if self._grad is None:
            table, coeffs = self._matrix()
            self._grad = table.differentiate(coeffs)
        return self._grad

    def _hessian(self) -> tuple[_Table, np.ndarray]:
        """Second-partial table and coefficients (N * 6, M2) of the a <= b
        pairs, each differentiated first along a, then along b."""
        if self._hess is None:
            child, second = _upper_second(*self._gradient())
            self._hess = (child, second.reshape(6 * self.n, len(child)))
        return self._hess

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Values, shape (n_points, N)."""
        table, coeffs = self._matrix()
        return evaluate_monomials(_points(points), table.expos, coeffs.T)

    def eval_grad(self, points: np.ndarray) -> np.ndarray:
        """First derivatives, shape (n_points, N, 3)."""
        pts = _points(points)
        table, grad = self._gradient()
        vals = evaluate_monomials(pts, table.expos, grad.reshape(3 * self.n, len(table)).T)
        return vals.reshape(pts.shape[0], self.n, 3)

    def eval_hess(self, points: np.ndarray) -> np.ndarray:
        """Second derivatives, shape (n_points, N, 3, 3), exactly symmetric."""
        pts = _points(points)
        table, hess = self._hessian()
        vals = evaluate_monomials(pts, table.expos, hess.T)
        return vals.reshape(pts.shape[0], self.n, 6)[:, :, _PAIR]


def stack_fields(fields) -> tuple[_Table, np.ndarray]:
    """Shared table and coefficients (F, N, M) of fields with N components
    each: a restack when they share one table, else over the sorted union
    of their tables."""
    mats = [f._matrix() for f in fields]
    if len({c.shape[0] for _, c in mats}) != 1:
        raise ValueError("component count mismatch")
    tables = tuple(dict.fromkeys(t for t, _ in mats))
    if len(tables) == 1:
        return tables[0], np.stack([c for _, c in mats])
    union, columns = _union(tables)
    where = dict(zip(tables, columns))
    coeffs = np.zeros((len(mats), mats[0][1].shape[0], len(union)))
    for out, (t, c) in zip(coeffs, mats):
        out[:, where[t]] = c
    return union, coeffs


def _stacked_eval(points: np.ndarray, table: _Table, coeffs: np.ndarray) -> np.ndarray:
    """Polynomials with coefficients (F, K, M) over `table` at points
    (F, P, 3): (F, P, K), one power table and one stacked product."""
    f, p = points.shape[:2]
    mono = _monomials(points.reshape(f * p, 3), table.expos).reshape(f, p, len(table))
    return mono @ np.swapaxes(coeffs, 1, 2)


def _states(points: np.ndarray, table: _Table, coeffs: np.ndarray):
    """Values, gradients and the six a <= b second partials of stacked
    fields (F, N, M) over `table` at their own points (F, P, 3)."""
    f, p = points.shape[:2]
    n = coeffs.shape[1]
    gtable, grad = table.differentiate(coeffs)
    htable, hess = _upper_second(gtable, grad)
    vals = _stacked_eval(points, table, coeffs)
    grads = _stacked_eval(points, gtable, grad.reshape(f, 3 * n, len(gtable)))
    hessians = _stacked_eval(points, htable, hess.reshape(f, 6 * n, len(htable)))
    return vals, grads.reshape(f, p, n, 3), hessians.reshape(f, p, n, 6)


def field_states(fields, points) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Values (F, P, N), gradients (F, P, N, 3) and exactly symmetric
    Hessians (F, P, N, 3, 3) of F fields, each at its own points (F, P, 3).

    Fields are stacked per shared table, so each entry equals the field's
    own `eval`, `eval_grad` and `eval_hess` at its points bit for bit (a
    union table would reorder the sums).  Fields of one table, such as the
    dense fields of one degree, cost one power table and one stacked
    product per derivative level."""
    pts = np.asarray(points, dtype=float)
    if len({field.n for field in fields}) != 1:
        raise ValueError("component count mismatch")
    groups: dict[_Table, list[int]] = {}
    for i, field in enumerate(fields):
        groups.setdefault(field._matrix()[0], []).append(i)
    shape = pts.shape[:2] + (fields[0].n,)
    vals, grads, pairs = np.empty(shape), np.empty(shape + (3,)), np.empty(shape + (6,))
    for idx in groups.values():
        for whole, part in zip((vals, grads, pairs), _states(pts[idx], *stack_fields([fields[i] for i in idx]))):
            whole[idx] = part
    # Expanded last, as in `eval_hess`: the summation order of the residual
    # contractions follows this memory layout.
    return vals, grads, pairs[..., _PAIR]


class PolyMatrixField:
    """3x3 matrix of scalar polynomials (e.g. a strain field)."""

    __slots__ = ("entries", "_matrix")

    def __init__(self, entries):
        self.entries = tuple(tuple(row) for row in entries)
        self._matrix = None

    def eval(self, points: np.ndarray) -> np.ndarray:
        pts = _points(points)
        if self._matrix is None:
            self._matrix = _matrix_of([e for row in self.entries for e in row])
        table, coeffs = self._matrix
        return evaluate_monomials(pts, table.expos, coeffs.T).reshape(pts.shape[0], 3, 3)

    def degree(self) -> int:
        return max(self.entries[i][j].degree() for i in range(3) for j in range(3))


@lru_cache(maxsize=1)
def bubble() -> Poly3:
    """The boundary-vanishing factor prod_a x_a (1 - x_a) on the unit cube;
    built once (a `Poly3` is immutable)."""
    out = Poly3.constant(1.0)
    for a in range(3):
        x = Poly3.variable(a)
        out = out * (x - x * x)
    return out


@lru_cache(maxsize=64)
def _bubble_map(table: _Table):
    """Product table of `bubble()` with the monomials of `table`, and per
    bubble term, in `Poly3.__mul__` order, its coefficient and the product
    column of each monomial."""
    terms = list(bubble()._terms.items())
    keys = [[(b[0] + e[0], b[1] + e[1], b[2] + e[2]) for e in table.keys] for b, _ in terms]
    product = _table(tuple(sorted({k for row in keys for k in row})))
    columns = np.array([[product.index[k] for k in row] for row in keys], dtype=np.int64)
    return product, np.array([c for _, c in terms]), columns


def bubble_damped(w: PolyField) -> PolyField:
    """The field `bubble() * w`, vanishing on the cube boundary.

    Sums the products in the order of `Poly3.__mul__`, so the result equals
    `PolyField([bubble() * c for c in w.components])` term for term."""
    table, coeffs = w._matrix()
    product, factors, columns = _bubble_map(table)
    out = np.zeros((w.n, len(product)))
    for factor, cols in zip(factors, columns):
        out[:, cols] += factor * coeffs
    used = np.any(out != 0.0, axis=0)
    if not used.all():
        product = _table(tuple(e for e, u in zip(product.keys, used.tolist()) if u))
        out = out[:, used]
    return PolyField._from_matrix(product, out)


def random_scalar_poly(rng: np.random.Generator, degree: int) -> Poly3:
    """Dense random polynomial with coefficients uniform in [-1, 1]."""
    return Poly3({expo: rng.uniform(-1.0, 1.0) for expo in monomials_upto(3, degree)})


def random_polyfield(rng: np.random.Generator, n: int, degree: int) -> PolyField:
    """Dense random field; draws the same coefficients, in the same order,
    as `n` successive `random_scalar_poly` calls."""
    table, columns = _dense(degree)
    coeffs = np.zeros((n, len(table)))
    coeffs[:, columns] = rng.uniform(-1.0, 1.0, size=(n, len(columns)))
    return PolyField._from_matrix(table, coeffs)


def gradient_field(potential: Poly3) -> PolyField:
    """Curl-free vector field: the exact gradient of a scalar polynomial."""
    return PolyField([potential.diff(a) for a in range(3)])


def constant_field(values) -> PolyField:
    return PolyField([Poly3.constant(float(v)) for v in values])


__all__.append("constant_field")
