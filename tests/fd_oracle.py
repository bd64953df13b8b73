"""Finite-difference oracle for the closed-form Euler residuals.

The one finite-difference stencil of the project: central differences over
z = (x, y, Dy) with two-level Richardson extrapolation, built row by row
from Python dicts.  It is independent of every closed form it checks and
is used only by the tests.

The default base step 1e-2 suits the densities under test: quadratic
densities and generator-built densities of generator degree <= 3 are
polynomials of degree <= 4 in every single argument, so the Richardson
stencil has zero truncation error and a large step minimizes roundoff.
"""

from typing import NamedTuple

import numpy as np

from nullag.polyfield import field_states


def reference_fd_partials(lag, x0, y0, dy0, base_step=1e-2):
    """All partials of L entering the Euler operator at one state:
    (dL/dy (N,), d2L/dx dy' (3,N,3), d2L/dy dy' (N,N,3), d2L/dy' dy' (N,3,N,3))."""
    n = lag.n
    z0 = np.concatenate([x0, y0, dy0.reshape(-1)])
    h = base_step * (1.0 + np.abs(z0))
    rows = []

    def push(*bumps):
        z = z0.copy()
        for idx, amount in bumps:
            z[idx] += amount
        rows.append(z)
        return len(rows) - 1

    def plan_pm(i):
        return [(push((i, +s)), push((i, -s)), s) for s in (1.0 * h[i], 0.5 * h[i])]

    def plan_mixed(i, j):
        recs = []
        for scale in (1.0, 0.5):
            si, sj = scale * h[i], scale * h[j]
            recs.append((push((i, +si), (j, +sj)), push((i, +si), (j, -sj)),
                         push((i, -si), (j, +sj)), push((i, -si), (j, -sj)), si, sj))
        return recs

    idp = lambda k, g: 3 + n + 3 * k + g
    first_plan = [plan_pm(3 + k) for k in range(n)]
    center = push()
    xdyp = {(g, k): plan_mixed(g, idp(k, g)) for g in range(3) for k in range(n)}
    ydyp = {(j, k, g): plan_mixed(3 + j, idp(k, g)) for j in range(n) for k in range(n) for g in range(3)}
    dypdyp = {}
    for a in range(3 * n):
        for b in range(a, 3 * n):
            i, j = 3 + n + a, 3 + n + b
            dypdyp[(a, b)] = plan_pm(i) if a == b else plan_mixed(i, j)

    batch = np.array(rows)
    vals = lag.evaluate(batch[:, :3], batch[:, 3:3 + n], batch[:, 3 + n:].reshape(-1, n, 3))
    f0 = vals[center]
    richardson = lambda e: (4.0 * e[1] - e[0]) / 3.0
    first = lambda recs: richardson([(vals[p] - vals[q]) / (2.0 * s) for p, q, s in recs])
    diag = lambda recs: richardson([(vals[p] - 2.0 * f0 + vals[q]) / (s * s) for p, q, s in recs])
    mixed = lambda recs: richardson([(vals[pp] - vals[pm] - vals[mp] + vals[mm]) / (4.0 * si * sj)
                                     for pp, pm, mp, mm, si, sj in recs])

    d_y = np.array([first(recs) for recs in first_plan])
    d_x_dyp = np.zeros((3, n, 3))
    for (g, k), recs in xdyp.items():
        d_x_dyp[g, k, g] = mixed(recs)
    d_y_dyp = np.zeros((n, n, 3))
    for (j, k, g), recs in ydyp.items():
        d_y_dyp[j, k, g] = mixed(recs)
    d_dyp = np.zeros((3 * n, 3 * n))
    for (a, b), recs in dypdyp.items():
        d_dyp[a, b] = d_dyp[b, a] = diag(recs) if a == b else mixed(recs)
    return d_y, d_x_dyp, d_y_dyp, d_dyp.reshape(n, 3, n, 3)


class FdResidual(NamedTuple):
    residual: np.ndarray  # E_k (..., N)
    scale: np.ndarray     # 1 + max|d2L/dy' dy'| max|d2y| (...), as `verifier._residuals` normalizes
    div_half: np.ndarray  # D_g(dL/dy'_kg) (..., N)
    d_y: np.ndarray       # dL/dy_k (..., N)


def fd_residual(lag, x, y0, dy0, d2y0, base_step=1e-2) -> FdResidual:
    """The Euler residual E_k = D_g(dL/dy'_kg) - dL/dy_k at the states
    (y0, dy0, d2y0) of points x (..., 3), for any leading batch axes, with
    its two halves, from one `reference_fd_partials` call per point."""
    hess_mag = np.max(np.abs(d2y0), axis=(-3, -2, -1))
    div_half, d_y = np.empty(y0.shape), np.empty(y0.shape)
    coeff = np.empty(hess_mag.shape)
    for i in np.ndindex(hess_mag.shape):
        d_y[i], d_x_dyp, d_y_dyp, d_dyp = reference_fd_partials(lag, x[i], y0[i], dy0[i], base_step)
        div_half[i] = np.einsum("gkg->k", d_x_dyp)
        div_half[i] += np.einsum("jkg,jg->k", d_y_dyp, dy0[i])
        div_half[i] += np.einsum("jbkg,jbg->k", d_dyp, d2y0[i])
        coeff[i] = np.max(np.abs(d_dyp))
    return FdResidual(div_half - d_y, 1.0 + coeff * hess_mag, div_half, d_y)


def fd_point_residual(lag, y, x):
    """`fd_residual` of the field y at one point x (3,): E_k (N,) and its
    scale, as `verifier._residual_and_scale` returns them."""
    x = np.asarray(x, dtype=float).reshape(1, 1, 3)
    fd = fd_residual(lag, x, *field_states([y], x))
    return fd.residual[0, 0], float(fd.scale[0, 0])
