"""Tensor-product Gauss-Legendre quadrature on the unit cube and its boundary.

Rules are built once per order and shared, so their arrays are read-only."""

from __future__ import annotations

import functools
import itertools

import numpy as np

__all__ = ["gauss_points_01", "cube_rule", "boundary_rule", "required_order"]


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for array in arrays:
        array.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def gauss_points_01(order: int) -> tuple[np.ndarray, np.ndarray]:
    """1D Gauss-Legendre nodes/weights mapped to [0, 1]; exact through
    polynomial degree 2*order - 1."""
    if order < 1:
        raise ValueError("quadrature order must be >= 1")
    try:
        nodes, weights = np.polynomial.legendre.leggauss(order)
    except MemoryError:  # numpy's text names only the array's size
        raise ValueError(f"cannot allocate a Gauss-Legendre rule of order {order}") from None
    return _frozen(0.5 * (nodes + 1.0), 0.5 * weights)


@functools.lru_cache(maxsize=None)
def cube_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (n,3) and weights (n,) for the unit cube [0,1]^3."""
    x, w = gauss_points_01(order)
    pts = np.array(list(itertools.product(x, x, x)))
    wts = np.array([w1 * w2 * w3 for w1, w2, w3 in itertools.product(w, w, w)])
    return _frozen(pts, wts)


@functools.lru_cache(maxsize=None)
def boundary_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The six faces of the unit cube stacked in the order x1 = 0, x1 = 1,
    x2 = 0, ..., x3 = 1, each over the product rule of its other two axes in
    increasing axis order: points (6n, 3) and each point's weight times its
    face's outward normal (6n, 3)."""
    x, w = gauss_points_01(order)
    grid = np.array(list(itertools.product(x, x)))
    wts = np.array([w1 * w2 for w1, w2 in itertools.product(w, w)])
    n = len(wts)
    pts, flux = np.empty((6 * n, 3)), np.zeros((6 * n, 3))
    for face in range(6):
        axis, side = divmod(face, 2)
        rows = slice(face * n, (face + 1) * n)
        pts[rows, axis] = side
        pts[rows, [a for a in range(3) if a != axis]] = grid
        flux[rows, axis] = wts if side else -wts
    return _frozen(pts, flux)


def required_order(degree: int) -> int:
    """Smallest order exact for 1D polynomial degree `degree`."""
    return max(1, (int(degree) + 2) // 2)
