"""Exact multivariate polynomial fields on R^3.

A `PolyField` is a map R^3 -> R^N with polynomial components; a scalar
polynomial is a one-component field.  It holds one coefficient matrix over
a shared, sorted exponent table.  The table carries integer maps to the
tables of its partial derivatives, so derivatives are exact (degree drops by
one, coefficients scale by integer exponents), a field's gradient and
Hessian coefficients are built once, and each evaluation is one matrix
product over a whole batch of points.  Each table also keeps a monomial
plan, built once: which variables each term uses, with the terms grouped by
that count, so a monomial costs the products of only its own factors.
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
from itertools import combinations_with_replacement, product

import numpy as np

from .quadrature import boundary_rule, cube_rule

__all__ = [
    "PolyField",
    "bubble",
    "constant_field",
    "evaluate_monomials",
    "evaluate_on_rule",
    "field_states",
    "join",
    "monomial_plan",
    "monomials_upto",
    "random_polyfield",
    "stack_fields",
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
    """Evaluation plan of an exponent table (T, V): the number of terms, each
    variable's highest power, per count k of variables a term uses (in
    ascending order) the power rows (k, T_k) of its terms' factors in
    variable order, each term's row in that grouped order (None when it is
    the table order), and the scratch floats that `_monomials` takes per
    point.  Row (e - 1) * V + v of the power table holds x_v ** e."""
    expos = np.asarray(expos, dtype=np.int64)
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


def evaluate_on_rule(table: _Table, coeffs: np.ndarray, order: int, boundary: bool = False) -> np.ndarray:
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


class _Table:
    """Sorted exponent table, shared by every field over the same monomials.

    `derivative()` gives the table of all first partials of its monomials
    and, per axis, the integer map (source column, target column, exponent
    factor) that differentiates a coefficient matrix.
    """

    __slots__ = ("keys", "expos", "plan", "index", "_derivative")

    def __init__(self, keys: tuple):
        self.keys = keys
        self.expos = np.array(keys, dtype=np.int64).reshape(-1, 3)
        self.expos.flags.writeable = False
        self.plan = monomial_plan(self.expos)
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
            maps = tuple(
                _read_only(
                    np.array([j for j, _, _ in rows], dtype=np.int64),
                    np.array([child.index[s] for _, s, _ in rows], dtype=np.int64),
                    np.array([f for _, _, f in rows], dtype=float),
                )
                for rows in shifted
            )
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
    """Table of all monomials of degree <= degree, and for each table column
    the position of its monomial in the graded draw order of `monomials_upto`."""
    graded = monomials_upto(3, degree)
    table = _table(tuple(sorted(graded)))
    position = {e: i for i, e in enumerate(graded)}
    draw = np.array([position[e] for e in table.keys], dtype=np.int64)
    draw.flags.writeable = False
    return table, draw


def _points(points) -> np.ndarray:
    return np.atleast_2d(np.asarray(points, dtype=float))


@lru_cache(maxsize=256)
def _union(tables: tuple) -> tuple[_Table, tuple]:
    """Sorted union of tables and, per table, the union column of each of
    its monomials."""
    union = _table(tuple(sorted(set().union(*(t.keys for t in tables)))))
    return union, _read_only(*(np.array([union.index[e] for e in t.keys], dtype=np.int64) for t in tables))


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

    Holds one sorted exponent table and a read-only (N, M) coefficient
    matrix.  Gradient and Hessian coefficient matrices, and the axis degree,
    are built once, on first use.
    """

    __slots__ = ("_table", "_coeffs", "_grad", "_hess", "_axis_degree")

    def __init__(self, components):
        """One {(e1, e2, e3): coeff} dict per component; the table holds the
        monomials with a nonzero coefficient in some component."""
        clean = []
        for terms in components:
            clean.append({})
            for expo, coeff in terms.items():
                if (coeff := float(coeff)) != 0.0:
                    clean[-1][tuple(int(e) for e in expo)] = coeff
        table = _table(tuple(sorted(set().union(*clean))))
        coeffs = np.zeros((len(clean), len(table)))
        for row, terms in zip(coeffs, clean):
            for expo, coeff in terms.items():
                row[table.index[expo]] = coeff
        coeffs.flags.writeable = False
        self._table, self._coeffs = table, coeffs
        self._grad = self._hess = self._axis_degree = None

    @classmethod
    def _from_matrix(cls, table: _Table, coeffs: np.ndarray) -> "PolyField":
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
        keys = self._table.keys
        return [{e: c for e, c in zip(keys, row.tolist()) if c != 0.0} for row in self._coeffs]

    def _used_expos(self) -> np.ndarray:
        """Exponent rows of the monomials with a nonzero coefficient."""
        return self._table.expos[np.any(self._coeffs != 0.0, axis=0)]

    def degree(self) -> int:
        """Largest total degree of a monomial in use; 0 for the zero field."""
        used = self._used_expos()
        return int(used.sum(axis=1).max()) if used.size else 0

    def axis_degree(self) -> int:
        """Largest exponent of any single coordinate in a monomial in use;
        0 for the zero field.  A tensor-product Gauss rule is exact per
        coordinate, so this, not `degree()`, sizes it."""
        if self._axis_degree is None:
            used = self._used_expos()
            self._axis_degree = int(used.max()) if used.size else 0
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
            table = _table(tuple(e for e, u in zip(table.keys, used.tolist()) if u))
            coeffs = coeffs[:, used]
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

    def _gradient(self) -> tuple[_Table, np.ndarray]:
        """First-partial table and coefficients (N, 3, M1)."""
        if self._grad is None:
            self._grad = self._table.differentiate(self._coeffs)
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
def _product(left: _Table, right: _Table) -> tuple[_Table, np.ndarray]:
    """Sorted table of the products of the monomials of two tables, and per
    left monomial the product column of each right monomial."""
    keys = [[(a[0] + b[0], a[1] + b[1], a[2] + b[2]) for b in right.keys] for a in left.keys]
    table = _table(tuple(sorted({k for row in keys for k in row})))
    columns = np.array([[table.index[k] for k in row] for row in keys], dtype=np.int64)
    columns.flags.writeable = False
    return table, columns.reshape(len(left), len(right))


def join(*fields: PolyField) -> PolyField:
    """The components of the fields, in order, over the union of their tables."""
    table, columns = _union(tuple(f._table for f in fields))
    coeffs = np.zeros((sum(f.n for f in fields), len(table)))
    row = 0
    for f, cols in zip(fields, columns):
        coeffs[row:row + f.n, cols] = f._coeffs
        row += f.n
    return PolyField._from_matrix(table, coeffs)


def stack_fields(fields) -> tuple[_Table, np.ndarray]:
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


def _stacked_eval(points: np.ndarray, table: _Table, coeffs: np.ndarray) -> np.ndarray:
    """Polynomials with coefficients (F, K, M) over `table` at points
    (F, P, 3): (F, P, K), one monomial matrix and one stacked product."""
    f, p = points.shape[:2]
    mono = _monomials((points.reshape(f * p, 3),), table.plan).reshape(f, p, len(table))
    return mono @ np.swapaxes(coeffs, 1, 2)


def _states(points: np.ndarray, table: _Table, coeffs: np.ndarray, levels) -> list:
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
    groups: dict[_Table, list[int]] = {}
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


def constant_field(values) -> PolyField:
    return PolyField([{(0, 0, 0): v} for v in values])
