"""Tensor-product Gauss-Legendre quadrature on the unit cube and its boundary.

Rules are built once per order and shared, so their arrays are read-only."""

from __future__ import annotations

import functools
import itertools

import numpy as np

__all__ = ["gauss_points_01", "cube_rule", "face_rules", "boundary_rule", "required_order"]


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
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return _frozen(0.5 * (nodes + 1.0), 0.5 * weights)


@functools.lru_cache(maxsize=None)
def cube_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Points (n,3) and weights (n,) for the unit cube [0,1]^3."""
    x, w = gauss_points_01(order)
    pts = np.array(list(itertools.product(x, x, x)))
    wts = np.array([w1 * w2 * w3 for w1, w2, w3 in itertools.product(w, w, w)])
    return _frozen(pts, wts)


@functools.lru_cache(maxsize=None)
def face_rules(order: int) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """Quadrature for the six faces of the unit cube.

    Each entry is (points (n,3), weights (n,), outward_normal (3,)).
    """
    x, w = gauss_points_01(order)
    grid = np.array(list(itertools.product(x, x)))
    wts = np.array([w1 * w2 for w1, w2 in itertools.product(w, w)])
    faces = []
    for axis in range(3):
        others = [a for a in range(3) if a != axis]
        for value, orientation in ((0.0, -1.0), (1.0, 1.0)):
            pts = np.empty((grid.shape[0], 3))
            pts[:, axis] = value
            pts[:, others[0]] = grid[:, 0]
            pts[:, others[1]] = grid[:, 1]
            normal = np.zeros(3)
            normal[axis] = orientation
            faces.append(_frozen(pts, wts, normal))
    return tuple(faces)


@functools.lru_cache(maxsize=None)
def boundary_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The six face rules stacked in `face_rules` order: points (6n, 3) and
    each point's weight times its face's outward normal (6n, 3)."""
    faces = face_rules(order)
    return _frozen(np.concatenate([pts for pts, _, _ in faces]),
                   np.concatenate([np.outer(wts, normal) for _, wts, normal in faces]))


def required_order(degree: int) -> int:
    """Smallest order exact for 1D polynomial degree `degree`."""
    return max(1, (int(degree) + 2) // 2)
