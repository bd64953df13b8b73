"""Reference statement of the cube's boundary quadrature as a list of faces.

`face_rules` gives each of the six faces its own points, weights and
outward normal, as `nullag.quadrature` did before `boundary_rule` built its
stacked arrays itself.  It is used only by the tests, which require the
stacked rule to hold these faces' points and weight-times-normal rows in
this order and with these bits."""

import itertools

import numpy as np

from nullag.quadrature import gauss_points_01


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
            faces.append((pts, wts, normal))
    return tuple(faces)
