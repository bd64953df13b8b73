"""Tuple-key exponent tables, the references for `polyfield.table_of`: the
per-term derivative loop, and the union and product tables built by sorting
sets of exponent tuples and looking each one up in a dict."""

import numpy as np


def table_keys(table) -> tuple:
    """The exponent tuples of a table's rows, in order."""
    return tuple(map(tuple, table.expos.tolist()))


def derivative(keys: tuple) -> tuple:
    """Sorted keys of all first partials of the monomials of sorted `keys`
    and, per axis, the map (source column, target column, exponent factor)."""
    shifted = [[] for _ in range(3)]
    for j, e in enumerate(keys):
        for a in range(3):
            if e[a]:
                shifted[a].append((j, e[:a] + (e[a] - 1,) + e[a + 1:], e[a]))
    child = tuple(sorted({s[1] for rows in shifted for s in rows}))
    index = {e: i for i, e in enumerate(child)}
    maps = tuple(
        (
            np.array([j for j, _, _ in rows], dtype=np.int64),
            np.array([index[s] for _, s, _ in rows], dtype=np.int64),
            np.array([f for _, _, f in rows], dtype=float),
        )
        for rows in shifted
    )
    return child, maps


def union(key_tuples: tuple) -> tuple:
    """Sorted union of sorted key tuples and, per tuple, the union column of
    each of its keys."""
    keys = tuple(sorted(set().union(*key_tuples)))
    index = {e: i for i, e in enumerate(keys)}
    return keys, tuple(np.array([index[e] for e in t], dtype=np.int64) for t in key_tuples)


def product(left: tuple, right: tuple) -> tuple:
    """Sorted keys of the products of the monomials of two key tuples, and
    per left monomial the product column of each right monomial."""
    sums = [[(a[0] + b[0], a[1] + b[1], a[2] + b[2]) for b in right] for a in left]
    keys = tuple(sorted({k for row in sums for k in row}))
    index = {e: i for i, e in enumerate(keys)}
    columns = np.array([[index[k] for k in row] for row in sums], dtype=np.int64)
    return keys, columns.reshape(len(left), len(right))
