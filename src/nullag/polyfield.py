"""Exact multivariate polynomial fields on R^3, over shared exponent tables.

An `ExponentTable` holds the sorted, unique int64 exponent rows of a set of
monomials in V variables and their monomial plan: which variables each term
uses, with the terms grouped by that count, so a monomial costs the products
of only its own factors.  `table_of` builds every table from rows (a field's
terms; its terms shifted down one along a variable, for the first partials;
sums of two tables' rows, for a product; their concatenation, for a union;
the generator partials of `rund`) by one `np.unique` over byte keys, and
keeps one instance per row set.  A `PolyField` is a map R^3 -> R^N (a scalar
polynomial is a one-component field) held as one coefficient matrix over a
table, so derivatives are exact (integer maps to the first-partial table),
a field's gradient and Hessian coefficients are built once, and each
evaluation is one matrix product over a whole batch of points.
`field_states` stacks the fields that share a table, so a batch of fields at
their own points costs one monomial matrix and one stacked product per table
and derivative level.  `evaluate_on_rule` keeps the monomial matrix of a
table at a fixed Gauss rule (the cube rule or the stacked boundary rule of
one order), evicting the least recently used first to stay within
`_RULE_BYTES`, so repeated actions and surface integrals skip it.

A monomial matrix is built in a scratch buffer that each thread keeps
(`threading.local`) between calls, up to `_SCRATCH_BYTES`; a larger request
allocates fresh arrays.  Repeated batches so reuse the same pages instead of
having the allocator return and re-fault them.  The matrix is a view of the
scratch that the next call overwrites: its callers use it at once, and
`evaluate_on_rule` copies each block it keeps, so nothing kept aliases it.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from itertools import chain, combinations_with_replacement, product
from operator import index

import numpy as np

from .quadrature import boundary_rule, cube_rule

__all__ = [
    "ExponentTable",
    "PolyField",
    "bubble",
    "bubble_pairs",
    "constant_field",
    "dense_states",
    "evaluate_monomials",
    "evaluate_on_rule",
    "exponent_rows",
    "field_states",
    "join",
    "monomial_plan",
    "monomials_upto",
    "random_polyfield",
    "stack_fields",
    "table_of",
]


# Points per monomial matrix: bounds the working set of large quadrature
# batches.  The bits of a BLAS product row depend on the size of the product
# (not on the thread count), so results depend on it.
_BLOCK_ROWS = 2048


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, made read-only: cached results are shared by every caller."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def monomial_plan(expos: np.ndarray):
    """Evaluation plan of int64 exponent rows (T, V): the number of terms, each
    variable's highest power, per count k of variables a term uses (in
    ascending order) the power rows (k, T_k) of its terms' factors in
    variable order, each term's row in that grouped order (None when it is
    the table order), and the scratch floats that `_monomials` takes per
    point.  Row (e - 1) * V + v of the power table holds x_v ** e."""
    top = expos.max(axis=0, initial=0)
    row = (expos - 1) * expos.shape[1] + np.arange(expos.shape[1])
    used = expos > 0
    count = used.sum(axis=1)
    groups = []
    for k in sorted(set(count.tolist())):
        terms = np.flatnonzero(count == k)
        groups.append(row[terms][used[terms]].reshape(len(terms), k).T.copy())
    order = np.argsort(np.argsort(count, kind="stable"))
    order = None if np.array_equal(order, np.arange(len(expos))) else _read_only(order)[0]
    top = tuple(top.tolist())
    spare = max((f.shape[1] for f in groups if len(f) > 1), default=0)
    return len(expos), top, _read_only(*groups), order, 2 * len(expos) + len(top) * max(top, default=0) + spare


# Bytes of the per-thread scratch that `_monomials` builds in; a larger
# request allocates fresh arrays.  Below numpy's 4 MiB threshold for huge
# pages, so a page is mapped only once it is used.
_SCRATCH_BYTES = 3 << 20
_scratch = threading.local()


def _scratch_floats(size: int) -> np.ndarray:
    """`size` floats of this thread's scratch, which grows by doubling, up
    to the budget, to fit; fresh floats for a size above the budget."""
    if 8 * size > _SCRATCH_BYTES:
        return np.empty(size)
    buf = getattr(_scratch, "floats", None)
    if buf is None or buf.size < size:
        grown = size if buf is None else min(max(size, 2 * buf.size), _SCRATCH_BYTES // 8)
        _scratch.floats = buf = None  # freed before the larger one is allocated
        buf = _scratch.floats = np.empty(grown)
    return buf[:size]


def _monomials(points: tuple, plan) -> np.ndarray:
    """C-contiguous monomial matrix (m, T) at points given as column blocks
    (m, V_i) whose widths sum to V, read in place and built in this
    thread's scratch: the next call on the thread overwrites it, so a caller
    that keeps it keeps a copy.  Each variable's powers are built once, the
    e-th powers of all variables in one product, and each term is the
    product of only its own factors in variable order, so it has the bits
    of a product over every variable: the unit factors skipped are exact.
    Terms are products along rows of points, one group of terms per count
    of factors, put back in table order and transposed into the layout
    `mono @ coeffs` sums in."""
    nterms, top, groups, order, width = plan
    m = points[0].shape[0]
    try:
        buf = _scratch_floats(m * width)
    except (MemoryError, ValueError):  # numpy's text names neither the variable nor the exponent
        v = max(range(len(top)), key=top.__getitem__)
        name = f"x{v + 1}" if v < 3 else f"y{v - 2}"
        raise ValueError(f"cannot allocate a power table of {name}**{top[v]} at {m} points") from None
    # Per point: the T monomials, the T terms in table order, the V powers of
    # each degree up to the highest, and one factor row per term of the
    # largest group of two or more factors.  Terms grouped out of table order
    # are staged in the monomials' floats, which the last copy overwrites.
    depth = max(top, default=0)
    size, end = nterms * m, (2 * nterms + depth * len(top)) * m
    mono = buf[:size].reshape(m, nterms)
    ordered = buf[size:2 * size].reshape(nterms, m)
    grouped = ordered if order is None else buf[:size].reshape(nterms, m)
    powers = buf[2 * size:end].reshape(depth, len(top), m)
    spare = buf[end:]
    if depth:
        np.concatenate([block.T for block in points], out=powers[0])
    for e in range(1, depth):
        np.multiply(powers[e - 1], powers[0], powers[e])
    powers = powers.reshape(depth * len(top), m)
    row = 0
    for factors in groups:
        k = factors.shape[1]
        out = grouped[row:row + k]
        if len(factors):
            # "clip": the rows are in range, and "raise" would copy `out` first
            powers.take(factors[0], 0, out, "clip")
        else:
            out.fill(1.0)
        for rows in factors[1:]:
            np.multiply(out, powers.take(rows, 0, spare[:k * m].reshape(k, m), "clip"), out)
        row += k
    if order is not None:  # the groups are not in table order
        grouped.take(order, 0, ordered, "clip")
    np.copyto(mono, ordered.T)
    return mono


def evaluate_monomials(points: tuple, plan, coeffs: np.ndarray) -> np.ndarray:
    """Sum of coeffs * prod_v points[:, v] ** expos[:, v] over the terms of
    the exponent table with `monomial_plan` plan, the points given as a
    tuple of column blocks (m, V_i), as `_monomials` takes them.

    `coeffs` has one row per term and may carry trailing columns, one per
    polynomial sharing the exponents.  Products of the terms' own factors
    replace float pow, which dominates the cost of batched polynomial
    evaluation.
    """
    m = points[0].shape[0]
    if m <= _BLOCK_ROWS:
        return _monomials(points, plan) @ coeffs
    starts = range(0, m, _BLOCK_ROWS)
    return _products((_monomials(tuple(b[i:i + _BLOCK_ROWS] for b in points), plan) for i in starts), coeffs, m)


def _products(blocks, coeffs: np.ndarray, m: int) -> np.ndarray:
    """`block @ coeffs` of consecutive `_BLOCK_ROWS`-row monomial blocks,
    written into one (m, ...) result."""
    out = np.empty((m,) + coeffs.shape[1:])
    for i, block in zip(range(0, m, _BLOCK_ROWS), blocks):
        np.matmul(block, coeffs, out=out[i:i + _BLOCK_ROWS])
    return out


# Bytes of monomial matrices that `evaluate_on_rule` keeps.
_RULE_BYTES = 32 << 20
# (table, order, boundary) -> read-only monomial blocks, least recently used first.
_rule_blocks: dict = {}


def evaluate_on_rule(table: ExponentTable, coeffs: np.ndarray, order: int, boundary: bool = False) -> np.ndarray:
    """`evaluate_monomials` at the points of the cube rule of `order`, or of
    its `boundary_rule`, from the blocks it builds there, kept per table and
    rule while they fit `_RULE_BYTES`."""
    points = (boundary_rule if boundary else cube_rule)(order)[0]
    key = (table, order, boundary)
    blocks = _rule_blocks.pop(key, None)
    if blocks is None:
        size = points.shape[0] * len(table) * 8
        if size > _RULE_BYTES:
            return evaluate_monomials((points,), table.plan, coeffs)
        blocks = _read_only(*(_monomials((points[i:i + _BLOCK_ROWS],), table.plan).copy()
                              for i in range(0, points.shape[0], _BLOCK_ROWS)))
        while _rule_blocks and size + sum(b.nbytes for bs in _rule_blocks.values() for b in bs) > _RULE_BYTES:
            del _rule_blocks[next(iter(_rule_blocks))]
    _rule_blocks[key] = blocks
    return _products(blocks, coeffs, points.shape[0])


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


def exponent_rows(expos, nvars: int) -> np.ndarray:
    """Exponent tuples as (K, nvars) int64 rows.  Each must hold nvars
    integers in [0, 2**63): the byte keys of `table_of` order rows only when
    no exponent is negative.  A ValueError names the first that does not."""
    expos = list(expos)
    try:
        rows = np.fromiter(map(index, chain.from_iterable(expos)), np.int64, len(expos) * nvars)
        if all(len(e) == nvars for e in expos) and rows.min(initial=0) >= 0:
            return rows.reshape(-1, nvars)
    except (TypeError, ValueError, OverflowError):
        pass
    if len(expos) == 1:
        raise ValueError(f"exponent tuple {expos[0]!r} must hold {nvars} integers in [0, 2**63)")
    for expo in expos:  # the first to fail alone raises
        exponent_rows([expo], nvars)


class ExponentTable:
    """Sorted, unique, read-only exponent rows (T, V) int64 and their
    `monomial_plan`, one instance per row set (`table_of`).  `derivative()`
    gives the table of all first partials of its monomials and, per
    variable, the map (source column, target column, exponent factor) that
    differentiates a coefficient matrix."""

    __slots__ = ("expos", "plan", "_derivative")

    def __init__(self, expos: np.ndarray):
        self.expos = expos
        self.plan = monomial_plan(expos)
        self._derivative = None

    def __len__(self) -> int:
        return len(self.expos)

    def derivative(self):
        if self._derivative is None:
            var, src = np.nonzero(self.expos.T)
            child, dst = table_of(self.expos[src] - np.eye(self.expos.shape[1], dtype=np.int64)[var])
            cuts = np.cumsum(np.bincount(var, minlength=self.expos.shape[1]))[:-1]
            maps = _read_only(src, dst, self.expos[src, var].astype(float))
            self._derivative = (child, tuple(zip(*(np.split(m, cuts) for m in maps))))
        return self._derivative

    def differentiate(self, coeffs: np.ndarray):
        """Partials of the polynomials with coefficients (..., len(self)):
        (child table, coefficients (..., V, len(child)))."""
        child, maps = self.derivative()
        out = np.zeros(coeffs.shape[:-1] + (len(maps), len(child)))
        for a, (src, dst, factor) in enumerate(maps):
            out[..., a, dst] = coeffs[..., src] * factor
        return child, out


def table_of(rows: np.ndarray) -> tuple[ExponentTable, np.ndarray]:
    """The table of the distinct exponent rows (K, V), and each row's column
    in it.  The rows are deduplicated and sorted by one `np.unique` over byte
    keys: each row as big-endian int64, whose bytes compare as the row does
    lexicographically, since no exponent is negative."""
    nvars = rows.shape[1]
    keys = rows.astype(">i8").view(f"V{8 * nvars}")
    keys, column = np.unique(keys.reshape(-1), return_inverse=True)
    return _table(nvars, keys.tobytes()), column


@lru_cache(maxsize=256)
def _table(nvars: int, keys: bytes) -> ExponentTable:
    return ExponentTable(_read_only(np.frombuffer(keys, ">i8").reshape(-1, nvars).astype(np.int64))[0])


@lru_cache(maxsize=None)
def _dense(degree: int):
    """Table of all monomials of degree <= degree, and for each table column
    the position of its monomial in the graded draw order of `monomials_upto`."""
    table, column = table_of(np.array(monomials_upto(3, degree), dtype=np.int64).reshape(-1, 3))
    return table, _read_only(np.argsort(column))[0]


def _points(points) -> np.ndarray:
    return np.atleast_2d(np.asarray(points, dtype=float))


@lru_cache(maxsize=256)
def _union(tables: tuple) -> tuple[ExponentTable, tuple]:
    """Sorted union of tables and, per table, the union column of each of
    its monomials."""
    union, column = table_of(np.concatenate([t.expos for t in tables]))
    return union, tuple(np.split(_read_only(column)[0], np.cumsum([len(t) for t in tables])[:-1]))


# Hessian entry (a, b) -> row of its a <= b pair (0,0),(0,1),(0,2),(1,1),(1,2),(2,2).
_PAIR = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])
_UPPER = np.triu_indices(3)


def _upper_second(table: ExponentTable, grad: np.ndarray) -> tuple[ExponentTable, np.ndarray]:
    """Second partials of first-partial coefficients (..., 3, M1) over
    `table`: child table and coefficients (..., 6, M2) of the a <= b pairs."""
    child, second = table.differentiate(grad)
    return child, second[..., _UPPER[0], _UPPER[1], :]


class PolyField:
    """Vector-valued polynomial map R^3 -> R^N with exact derivatives.

    Holds one sorted exponent table and a read-only (N, M) coefficient
    matrix.  Gradient and Hessian coefficient matrices, and the axis degree,
    are built once, on first use.
    """

    __slots__ = ("_table", "_coeffs", "_grad", "_hess", "_axis_degree")

    def __init__(self, components):
        """One {(e1, e2, e3): coeff} dict per component; the table holds the
        monomials with a nonzero coefficient in some component."""
        components = list(components)
        rows = exponent_rows([expo for terms in components for expo in terms], 3)
        values = np.array([float(c) for terms in components for c in terms.values()])
        row = np.repeat(np.arange(len(components)), [len(terms) for terms in components])
        kept = values != 0.0
        table, column = table_of(rows[kept])
        coeffs = np.zeros((len(components), len(table)))
        coeffs[row[kept], column] = values[kept]
        coeffs.flags.writeable = False
        self._table, self._coeffs = table, coeffs
        self._grad = self._hess = self._axis_degree = None

    @classmethod
    def _from_matrix(cls, table: ExponentTable, coeffs: np.ndarray) -> "PolyField":
        field = cls.__new__(cls)
        coeffs.flags.writeable = False
        field._table, field._coeffs = table, coeffs
        field._grad = field._hess = field._axis_degree = None
        return field

    @classmethod
    def zero(cls, n: int) -> "PolyField":
        return cls([{}] * n)

    @property
    def n(self) -> int:
        return self._coeffs.shape[0]

    @property
    def terms(self) -> list[dict]:
        """One {(e1, e2, e3): coeff} dict per component, of its nonzero terms."""
        keys = list(map(tuple, self._table.expos.tolist()))
        return [{e: c for e, c in zip(keys, row.tolist()) if c != 0.0} for row in self._coeffs]

    def _used_expos(self) -> np.ndarray:
        """Exponent rows of the monomials with a nonzero coefficient."""
        return self._table.expos[np.any(self._coeffs != 0.0, axis=0)]

    def degree(self) -> int:
        """Largest total degree of a monomial in use; 0 for the zero field."""
        return max(map(sum, self._used_expos().tolist()), default=0)

    def axis_degree(self) -> int:
        """Largest exponent of any single coordinate in a monomial in use;
        0 for the zero field.  A tensor-product Gauss rule is exact per
        coordinate, so this, not `degree()`, sizes it."""
        if self._axis_degree is None:
            self._axis_degree = int(self._used_expos().max(initial=0))
        return self._axis_degree

    def __add__(self, other: "PolyField") -> "PolyField":
        if other.n != self.n:
            raise ValueError("component count mismatch")
        table, columns = _union((self._table, other._table))
        coeffs = np.zeros((self.n, len(table)))
        for cols, c in zip(columns, (self._coeffs, other._coeffs)):
            coeffs[:, cols] += c
        return PolyField._from_matrix(table, coeffs)

    def __mul__(self, other: "PolyField") -> "PolyField":
        """Product of this one-component field with every component of
        `other`, over the monomials with a nonzero product coefficient.  All
        term products are formed at once and scattered in one unbuffered sum,
        which adds the terms of this factor in their sorted table order."""
        if self.n != 1:
            raise ValueError("the left factor of a product must have one component")
        table, columns = _product(self._table, other._table)
        coeffs = np.zeros((other.n, len(table)))
        terms = other._coeffs[:, None, :] * self._coeffs[0][:, None]
        np.add.at(coeffs, (slice(None), columns.reshape(-1)), terms.reshape(other.n, columns.size))
        used = np.any(coeffs != 0.0, axis=0)
        if not used.all():
            table, coeffs = table_of(table.expos[used])[0], coeffs[:, used]
        return PolyField._from_matrix(table, coeffs)

    def map(self, matrix) -> "PolyField":
        """The field matrix @ y of a constant (K, N) matrix: component k is
        sum_i matrix[k, i] * y_i."""
        return PolyField._from_matrix(self._table, np.asarray(matrix, dtype=float) @ self._coeffs)

    def diff(self) -> "PolyField":
        """First partials as a 3N-component field: component 3i + a is
        dy_i / dx_a."""
        table, grad = self._gradient()
        return PolyField._from_matrix(table, grad.reshape(3 * self.n, len(table)))

    def _gradient(self) -> tuple[ExponentTable, np.ndarray]:
        """First-partial table and coefficients (N, 3, M1)."""
        if self._grad is None:
            self._grad = self._table.differentiate(self._coeffs)
        return self._grad

    def _hessian(self) -> tuple[ExponentTable, np.ndarray]:
        """Second-partial table and coefficients (N * 6, M2) of the a <= b
        pairs, each differentiated first along a, then along b."""
        if self._hess is None:
            child, second = _upper_second(*self._gradient())
            self._hess = (child, second.reshape(6 * self.n, len(child)))
        return self._hess

    def eval(self, points: np.ndarray) -> np.ndarray:
        """Values, shape (n_points, N)."""
        return evaluate_monomials((_points(points),), self._table.plan, self._coeffs.T)

    def eval_grad(self, points: np.ndarray) -> np.ndarray:
        """First derivatives, shape (n_points, N, 3)."""
        pts = _points(points)
        table, grad = self._gradient()
        vals = evaluate_monomials((pts,), table.plan, grad.reshape(3 * self.n, len(table)).T)
        return vals.reshape(pts.shape[0], self.n, 3)

    def eval_on_rule(self, order: int, boundary: bool = False) -> tuple[np.ndarray, np.ndarray]:
        """`eval` and `eval_grad` at the Q points of the rule that
        `evaluate_on_rule` selects: shapes (Q, N) and (Q, N, 3)."""
        table, grad = self._gradient()
        vals = evaluate_on_rule(self._table, self._coeffs.T, order, boundary)
        grads = evaluate_on_rule(table, grad.reshape(3 * self.n, len(table)).T, order, boundary)
        return vals, grads.reshape(vals.shape[0], self.n, 3)

    def eval_hess(self, points: np.ndarray) -> np.ndarray:
        """Second derivatives, shape (n_points, N, 3, 3), exactly symmetric."""
        pts = _points(points)
        table, hess = self._hessian()
        vals = evaluate_monomials((pts,), table.plan, hess.T)
        return vals.reshape(pts.shape[0], self.n, 6)[:, :, _PAIR]


# The benchmark's tracer counts polynomial differentiation under this name.
Poly3 = PolyField


@lru_cache(maxsize=256)
def _product(left: ExponentTable, right: ExponentTable) -> tuple[ExponentTable, np.ndarray]:
    """Sorted table of the products of the monomials of two tables, and per
    left monomial the product column of each right monomial."""
    rows = (left.expos[:, None] + right.expos).reshape(-1, 3)
    if rows.min(initial=0) < 0:  # an int64 sum of two exponents wrapped
        raise ValueError("a product exponent exceeds 2**63 - 1")
    table, column = table_of(rows)
    return table, _read_only(column.reshape(len(left), len(right)))[0]


def join(*fields: PolyField) -> PolyField:
    """The components of the fields, in order, over the union of their tables."""
    table, columns = _union(tuple(f._table for f in fields))
    coeffs = np.zeros((sum(f.n for f in fields), len(table)))
    row = 0
    for f, cols in zip(fields, columns):
        coeffs[row:row + f.n, cols] = f._coeffs
        row += f.n
    return PolyField._from_matrix(table, coeffs)


def stack_fields(fields) -> tuple[ExponentTable, np.ndarray]:
    """Shared table and coefficients (F, N, M) of fields with N components
    each: a restack when they share one table, else over the sorted union
    of their tables."""
    if len({f.n for f in fields}) != 1:
        raise ValueError("component count mismatch")
    tables = tuple(dict.fromkeys(f._table for f in fields))
    if len(tables) == 1:
        return tables[0], np.stack([f._coeffs for f in fields])
    union, columns = _union(tables)
    where = dict(zip(tables, columns))
    coeffs = np.zeros((len(fields), fields[0].n, len(union)))
    for out, f in zip(coeffs, fields):
        out[:, where[f._table]] = f._coeffs
    return union, coeffs


def _stacked_eval(points: np.ndarray, table: ExponentTable, coeffs: np.ndarray) -> np.ndarray:
    """Polynomials with coefficients (F, K, M) over `table` at points
    (F, P, 3): (F, P, K), one monomial matrix and one stacked product."""
    f, p = points.shape[:2]
    mono = _monomials((points.reshape(f * p, 3),), table.plan).reshape(f, p, len(table))
    return mono @ np.swapaxes(coeffs, 1, 2)


def _states(points: np.ndarray, table: ExponentTable, coeffs: np.ndarray, levels) -> list:
    """Values (F, P, N), first partials (F, P, 3N) and the six a <= b second
    partials (F, P, 6N) of stacked fields (F, N, M) over `table` at their
    own points (F, P, 3); None for a derivative level not in `levels`."""
    n = coeffs.shape[1]
    gtable, grad = table.differentiate(coeffs)
    jets = ((table, coeffs, n), (gtable, grad, 3 * n), (*_upper_second(gtable, grad), 6 * n))
    return [_stacked_eval(points, t, c.reshape(len(points), k, len(t))) if level in levels else None
            for level, (t, c, k) in enumerate(jets)]


def field_states(fields, points, levels=(0, 1, 2)) -> tuple:
    """Values (F, P, N), gradients (F, P, N, 3) and exactly symmetric
    Hessians (F, P, N, 3, 3) of F fields, each at its own points (F, P, 3).
    Only the derivative levels in `levels` (0 values, 1 gradients,
    2 Hessians) are evaluated; the others are returned as None.  An array
    that is evaluated has the same bits and layout whatever the levels.

    Fields are stacked per shared table, so each entry equals the field's
    own `eval`, `eval_grad` and `eval_hess` at its points bit for bit (a
    union table would reorder the sums).  Fields of one table, such as the
    dense fields of one degree, cost one monomial matrix and one stacked
    product per derivative level."""
    pts = np.asarray(points, dtype=float)
    if len({field.n for field in fields}) != 1:
        raise ValueError("component count mismatch")
    groups: dict[ExponentTable, list[int]] = {}
    for i, field in enumerate(fields):
        groups.setdefault(field._table, []).append(i)
    shape = pts.shape[:2] + (fields[0].n,)
    states = [np.empty(shape + tail) if level in levels else None
              for level, tail in enumerate(((), (3,), (6,)))]
    for idx in groups.values():
        for whole, part in zip(states, _states(pts[idx], *stack_fields([fields[i] for i in idx]), levels)):
            if whole is not None:
                whole[idx] = part.reshape((len(idx),) + whole.shape[1:])
    # Expanded last, as in `eval_hess`: the summation order of the residual
    # contractions follows this memory layout.
    vals, grads, pairs = states
    return vals, grads, None if pairs is None else pairs[..., _PAIR]


def dense_states(draws: np.ndarray, degree: int, points: np.ndarray, levels=(0, 1, 2)) -> tuple:
    """`field_states`, bit for bit, of the fields that `random_polyfield`
    makes of uniform draws (F, N, K), at points (F, P, 3): one stacked pass."""
    table, position = _dense(degree)
    vals, grads, pairs = _states(points, table, np.take(draws, position, axis=-1), levels)
    return (vals, None if grads is None else grads.reshape(*points.shape[:2], -1, 3),
            None if pairs is None else pairs.reshape(*points.shape[:2], -1, 6)[..., _PAIR])


@lru_cache(maxsize=1)
def bubble() -> PolyField:
    """The boundary-vanishing factor prod_a x_a (1 - x_a) on the unit cube,
    as a one-component field; built once."""
    return PolyField([{e: (-1.0) ** (sum(e) - 3) for e in product((1, 2), repeat=3)}])


def random_polyfield(rng: np.random.Generator, n: int, degree: int) -> PolyField:
    """Dense random field with coefficients uniform in [-1, 1], drawn
    component by component in the graded order of `monomials_upto`."""
    table, position = _dense(degree)
    draws = rng.uniform(-1.0, 1.0, size=(n, len(position)))
    # `take` keeps the row-major layout that `draws[:, position]` would turn
    # column-major; the BLAS product of an evaluation rounds by layout.
    return PolyField._from_matrix(table, np.take(draws, position, axis=1))


def bubble_pairs(y_draws: np.ndarray, w_draws: np.ndarray, degree: int) -> list[PolyField]:
    """[y_0, y_0 + bubble() * w_0, y_1, ...] of the `random_polyfield` fields of
    uniform draws (F, N, K) of `degree` and (F, N, 4) of degree 1, with the bits of
    `*` and `+`.  Each y keeps its dense table; every sum is on one union table, which
    drops a product column only if it is 0.0 in every pair, where `*` drops it per pair."""
    (table, position), (w_table, w_position), b = _dense(degree), _dense(1), bubble()
    ys, ws = np.take(y_draws, position, axis=-1), np.take(w_draws, w_position, axis=-1)
    product, columns = _product(b._table, w_table)
    prods = np.zeros(ws.shape[:2] + (len(product),))
    np.add.at(prods, (..., columns), ws[:, :, None, :] * b._coeffs[0][:, None])  # in the order of `*`
    union, (y_columns, product_columns) = _union((table, product))
    sums = np.zeros(ws.shape[:2] + (len(union),))
    sums[..., y_columns] += ys
    sums[..., product_columns] += prods
    used = np.any(sums != 0.0, axis=(0, 1))
    if not used.all():
        used[y_columns] = True
        union, sums = table_of(union.expos[used])[0], sums[..., used]
    return [f for y, s in zip(ys, sums) for f in (PolyField._from_matrix(table, y), PolyField._from_matrix(union, s))]


def constant_field(values) -> PolyField:
    return PolyField([{(0, 0, 0): v} for v in values])
