"""Euler-operator evaluation and null-Lagrangian certification.

The Euler operator used throughout is

    E_k(L) = d/dx_g (dL/dy'_kg) - dL/dy_k

expanded by the chain rule into second partials of L contracted with the
exact field derivatives.  With this sign convention the residual of the
Dirichlet density |grad u|^2 / 2 is the (positive) Laplacian.

Densities with `closed_form` set (quadratic densities with constant
coefficients, and the generator-built densities of `nullag.rund`) give their
residual exactly through `Lagrangian.closed_residual`; any other evaluator is
treated as a black box and differentiated by central finite differences with
two-level Richardson extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .polyfield import PolyField, bubble_damped, evaluate_on_rule, field_states, random_polyfield, stack_fields
from .quadrature import cube_rule, required_order

__all__ = [
    "Lagrangian",
    "QuadraticLagrangian",
    "CallableLagrangian",
    "FieldSampler",
    "NullCertificate",
    "euler_residual",
    "action_integral",
    "boundary_dependence_test",
    "certify_null",
    "CLOSED_FORM_RESIDUAL_TOL",
    "FD_RESIDUAL_TOL",
    "ACTION_TOL_REL",
]

CLOSED_FORM_RESIDUAL_TOL = 1e-10
FD_RESIDUAL_TOL = 1e-6
ACTION_TOL_REL = 1e-12

_FD_BASE_STEP = 1e-4


class Lagrangian:
    """Base class: a density L(x, y, Dy) evaluated on batches of states."""

    n: int
    closed_form = False
    #: finite-difference base step; evaluators whose Richardson truncation
    #: vanishes identically (low polynomial degree in every argument) may
    #: raise it to cut roundoff amplification.
    fd_base_step = _FD_BASE_STEP

    def evaluate(self, x: np.ndarray, y: np.ndarray, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def closed_residual(self, x: np.ndarray, y0: np.ndarray, dy0: np.ndarray, d2y0: np.ndarray):
        """Exact Euler residual of a `closed_form` density at points x (..., 3)
        with field values (..., N), gradients (..., N, 3) and Hessians
        (..., N, 3, 3), for any leading batch axes: E_k (..., N) and the scale
        max|d2L/dDy dDy|, a number or one per point (...)."""
        raise NotImplementedError

    def integrand_degree(self, field_degree: int) -> int | None:
        """Upper bound on the degree in each single coordinate of
        x -> L(x, y(x), Dy(x)), for a polynomial field y of degree
        `field_degree` in each single coordinate (`PolyField.axis_degree`);
        None if unknown.  A tensor-product Gauss rule of order n is exact
        through degree 2n - 1 in each coordinate separately, so this bound,
        not a total-degree one, sizes the action quadrature."""
        return None


class QuadraticLagrangian(Lagrangian):
    """L = p[z,z]/2 + q[z,y] + r[y,y]/2 with z = Dy and constant blocks.

    `p` has shape (N,3,N,3) and is symmetrized under pair swap, `q` has
    shape (N,3,N), `r` shape (N,N) symmetrized.

    Third derivatives vanish identically, so central differences carry no
    truncation error at any step; a large step minimizes roundoff on the
    finite-difference cross-validation path.
    """

    closed_form = True
    fd_base_step = 1e-2

    def __init__(self, p: np.ndarray, q: np.ndarray | None = None,
                 r: np.ndarray | None = None, label: str = ""):
        p = np.asarray(p, dtype=float)
        n = p.shape[0]
        self.n = n
        r = np.zeros((n, n)) if r is None else np.asarray(r, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            self.p = 0.5 * (p + np.transpose(p, (2, 3, 0, 1)))
            self.r = 0.5 * (r + r.T)
        self.q = np.zeros((n, 3, n)) if q is None else np.asarray(q, dtype=float)
        for name in ("p", "q", "r"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"density block {name} must be finite after symmetrization")
        self.label = label

    def evaluate(self, x, y, dy):
        y = np.asarray(y, dtype=float)
        dy = np.asarray(dy, dtype=float)
        f = dy.reshape(dy.shape[0], 3 * self.n)
        out = 0.5 * np.einsum("mi,mi->m", f @ self.p.reshape(3 * self.n, 3 * self.n), f)
        out += np.einsum("mi,mi->m", f @ self.q.reshape(3 * self.n, self.n), y)
        out += 0.5 * np.einsum("mi,mi->m", y @ self.r, y)
        return out

    def integrand_degree(self, field_degree: int) -> int:
        # y and Dy have degree <= p in each coordinate: a derivative does not
        # raise it, and the density is a quadratic form in (y, Dy).
        return 2 * max(int(field_degree), 0)

    def closed_residual(self, x, y0, dy0, d2y0):
        # The einsums sum in an order that follows the layout of d2y0, so it
        # is used as given.
        res = np.einsum("kcj,...jc->...k", self.q, dy0)
        res -= np.einsum("jbk,...jb->...k", self.q, dy0)
        res += np.einsum("kcjb,...jbc->...k", self.p, d2y0)
        res -= np.einsum("kj,...j->...k", self.r, y0)
        return res, self.second_derivative_scale()

    def second_derivative_scale(self) -> float:
        return float(np.max(np.abs(self.p))) if self.p.size else 0.0


class CallableLagrangian(Lagrangian):
    """Wrap a plain function f(x, y, dy) -> value as a black-box density.

    `degree_bound`, if given, maps the field's degree in each single
    coordinate to a bound on the density's degree in each single coordinate
    (see `Lagrangian.integrand_degree`); None means unknown.
    """

    def __init__(self, func, n: int, batched: bool = False,
                 degree_bound=None, label: str = ""):
        self.func = func
        self.n = n
        self.batched = batched
        self._degree_bound = degree_bound
        self.label = label

    def evaluate(self, x, y, dy):
        if self.batched:
            return np.asarray(self.func(x, y, dy), dtype=float)
        return np.array([self.func(x[m], y[m], dy[m]) for m in range(x.shape[0])], dtype=float)

    def integrand_degree(self, field_degree: int) -> int | None:
        if self._degree_bound is None:
            return None
        return self._degree_bound(field_degree)


# Step multipliers of the two Richardson levels.
_LEVELS = np.array([1.0, 0.5])


class _Stencil(NamedTuple):
    """Richardson stencil over z = (x, y, Dy) for one field dimension N."""

    offsets: np.ndarray  # (R, 3+4N) step multipliers of the rows, in evaluation order
    center: int          # row of the unperturbed state
    first: np.ndarray    # (n1, 2, 2) rows (+s, -s) per level of each first estimate
    first_var: np.ndarray
    diag: np.ndarray     # (n2, 2, 2) rows (+s, -s) per level of each pure second estimate
    diag_var: np.ndarray
    mixed: np.ndarray    # (n3, 2, 4) rows (++, +-, -+, --) per level of each mixed estimate
    mixed_var: np.ndarray  # (n3, 2) the two differentiated variables
    src: np.ndarray      # estimate (first, then diag, then mixed) feeding each slot
    dst: np.ndarray      # slot in the flat (dL/dy, d2L/dx dy', d2L/dy dy', d2L/dy' dy')


@lru_cache(maxsize=None)
def _fd_stencil(n: int) -> _Stencil:
    """The stencil for N components, built once: rows for the first
    y-partials, the centre, then the x-Dy, y-Dy and Dy-Dy second partials."""
    width = 3 + 4 * n
    rows: list[np.ndarray] = []

    def push(*bumps) -> int:
        row = np.zeros(width)
        for idx, mult in bumps:
            row[idx] = mult
        rows.append(row)
        return len(rows) - 1

    def plan_pm(i):
        return [[push((i, +s)), push((i, -s))] for s in _LEVELS]

    def plan_mixed(i, j):
        return [[push((i, +s), (j, +s)), push((i, +s), (j, -s)),
                 push((i, -s), (j, +s)), push((i, -s), (j, -s))] for s in _LEVELS]

    iy = lambda k: 3 + k
    idp = lambda k, g: 3 + n + 3 * k + g
    # flat output offsets of d_x_dyp (3,N,3), d_y_dyp (N,N,3), d_dyp (3N,3N)
    o_x, o_y, o_d = n, 10 * n, 10 * n + 3 * n * n
    first, diag, mixed = [], [], []  # (rows, variables, slots)

    for k in range(n):
        first.append((plan_pm(iy(k)), iy(k), [k]))
    center = push()
    for g in range(3):
        for k in range(n):
            mixed.append((plan_mixed(g, idp(k, g)), (g, idp(k, g)), [o_x + (g * n + k) * 3 + g]))
    for j in range(n):
        for k in range(n):
            for g in range(3):
                mixed.append((plan_mixed(iy(j), idp(k, g)), (iy(j), idp(k, g)),
                              [o_y + (j * n + k) * 3 + g]))
    for a in range(3 * n):
        for b in range(a, 3 * n):
            i, j = 3 + n + a, 3 + n + b
            if a == b:
                diag.append((plan_pm(i), i, [o_d + a * 3 * n + a]))
            else:
                mixed.append((plan_mixed(i, j), (i, j), [o_d + a * 3 * n + b, o_d + b * 3 * n + a]))

    estimates = first + diag + mixed
    src = [e for e, (_, _, slots) in enumerate(estimates) for _ in slots]
    dst = [slot for _, _, slots in estimates for slot in slots]
    parts = [np.array(rows, dtype=float).reshape(len(rows), width), center]
    for group in (first, diag, mixed):
        parts += [np.array([r for r, _, _ in group], dtype=np.int64),
                  np.array([v for _, v, _ in group], dtype=np.int64)]
    stencil = _Stencil(*parts, np.array(src, dtype=np.int64), np.array(dst, dtype=np.int64))
    for arr in stencil:
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return stencil


def _richardson(ests: np.ndarray) -> np.ndarray:
    """Two-level extrapolation of estimates (..., 2) at steps s and s/2."""
    return (4.0 * ests[..., 1] - ests[..., 0]) / 3.0


def _fd_partials(lag: Lagrangian, x0: np.ndarray, y0: np.ndarray, dy0: np.ndarray):
    """All partials of L entering the Euler operator, by batched central
    differences with two-level Richardson extrapolation.

    Returns (dL_dy (N,), d2_x_dyp (3,N,3), d2_y_dyp (N,N,3), d2_dyp_dyp (N,3,N,3)).
    """
    n = lag.n
    plan = _fd_stencil(n)
    z0 = np.concatenate([x0, y0, dy0.reshape(-1)])
    h = lag.fd_base_step * (1.0 + np.abs(z0))
    if np.any(h <= 0.0) or np.any(h < 1e-300):
        raise FloatingPointError("finite-difference step underflow")

    batch = z0 + plan.offsets * h
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        vals = lag.evaluate(batch[:, :3], batch[:, 3:3 + n], batch[:, 3 + n:].reshape(-1, n, 3))
    if not np.all(np.isfinite(vals)):
        raise FloatingPointError("non-finite density evaluation during differentiation")

    f0 = vals[plan.center]
    s = _LEVELS * h[plan.first_var][:, None]
    first = (vals[plan.first[..., 0]] - vals[plan.first[..., 1]]) / (2.0 * s)
    s = _LEVELS * h[plan.diag_var][:, None]
    diag = (vals[plan.diag[..., 0]] - 2.0 * f0 + vals[plan.diag[..., 1]]) / (s * s)
    si = _LEVELS * h[plan.mixed_var[:, 0]][:, None]
    sj = _LEVELS * h[plan.mixed_var[:, 1]][:, None]
    quad = vals[plan.mixed]
    mixed = (quad[..., 0] - quad[..., 1] - quad[..., 2] + quad[..., 3]) / (4.0 * si * sj)

    out = np.zeros(10 * n + 12 * n * n)
    out[plan.dst] = np.concatenate([_richardson(first), _richardson(diag), _richardson(mixed)])[plan.src]
    d_y, d_x_dyp, d_y_dyp, d_dyp = np.split(out, [n, 10 * n, 10 * n + 3 * n * n])
    return d_y, d_x_dyp.reshape(3, n, 3), d_y_dyp.reshape(n, n, 3), d_dyp.reshape(n, 3, n, 3)


def _residuals(lag: Lagrangian, x, y0, dy0, d2y0, method: str):
    """Euler residuals (..., N) and normalization scales (...) at the states
    (y0, dy0, d2y0) of points x (..., 3), for any leading batch axes."""
    hess_mag = np.max(np.abs(d2y0), axis=(-3, -2, -1))
    if method == "closed":
        if not lag.closed_form:
            raise TypeError("closed-form residual requires a density with a closed form")
        res, coeff = lag.closed_residual(x, y0, dy0, d2y0)
    elif method == "fd":
        res = np.empty(y0.shape)
        coeff = np.empty(hess_mag.shape)
        for i in np.ndindex(hess_mag.shape):
            d_y, d_x_dyp, d_y_dyp, d_dyp = _fd_partials(lag, x[i], y0[i], dy0[i])
            res[i] = np.einsum("gkg->k", d_x_dyp)
            res[i] += np.einsum("jkg,jg->k", d_y_dyp, dy0[i])
            res[i] += np.einsum("jbkg,jbg->k", d_dyp, d2y0[i])
            res[i] -= d_y
            coeff[i] = np.max(np.abs(d_dyp))
    else:
        raise ValueError(f"unknown residual method {method!r}")
    return res, 1.0 + coeff * hess_mag


def _residual_and_scale(lag: Lagrangian, y: PolyField, x, method: str):
    x = np.asarray(x, dtype=float).reshape(1, 1, 3)
    res, scale = _residuals(lag, x, *field_states([y], x), method)
    return res[0, 0], float(scale[0, 0])


def euler_residual(lag: Lagrangian, y: PolyField, x, method: str = "auto") -> np.ndarray:
    """Euler-operator components E_k at the point x for the field y."""
    if method == "auto":
        method = "closed" if lag.closed_form else "fd"
    res, _ = _residual_and_scale(lag, y, x, method)
    return res


def _actions(lag: Lagrangian, fields, order: int) -> np.ndarray:
    """Exact tensor-product Gauss-Legendre actions (F,) of F fields over the
    unit cube: one rule, one kept monomial matrix per derivative level on the
    union of the fields' tables, and one density evaluation per field over
    its Q rows, so no temporary grows with F.

    Raises ValueError if the order is below what the density's
    per-coordinate degree bound requires for any field, and
    FloatingPointError if any field's density is not finite."""
    for y in fields:
        degree = lag.integrand_degree(y.axis_degree())
        if degree is not None and 2 * order - 1 < degree:
            raise ValueError(
                f"quadrature order {order} is inexact for integrand degree {degree}; "
                f"use order >= {required_order(degree)}"
            )
    pts, wts = cube_rule(order)
    table, coeffs = stack_fields(fields)
    f, n, _ = coeffs.shape
    child, grad = table.differentiate(coeffs)
    density = np.empty((f, pts.shape[0]))
    for i in range(f):
        y = evaluate_on_rule(table, coeffs[i].T, order)
        dy = evaluate_on_rule(child, grad[i].reshape(3 * n, len(child)).T, order).reshape(-1, n, 3)
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            density[i] = lag.evaluate(pts, y, dy)
    if not np.all(np.isfinite(density)):
        raise FloatingPointError("non-finite density evaluation during quadrature")
    return density @ wts


def action_integral(lag: Lagrangian, y: PolyField, order: int) -> float:
    """Exact tensor-product Gauss-Legendre action over the unit cube.

    Raises ValueError if the order is below what the density's
    per-coordinate degree bound requires."""
    return float(_actions(lag, [y], order)[0])


def boundary_dependence_test(lag: Lagrangian, y: PolyField, w: PolyField, order: int) -> float:
    """|action(y + b*w) - action(y)| with the bubble b vanishing on the cube
    boundary; zero (to quadrature accuracy) for a null density."""
    shifted, base = _actions(lag, [y + bubble_damped(w), y], order)
    return float(abs(shifted - base))


class FieldSampler:
    """Random test fields and boundary-vanishing perturbations.

    Perturbations are bubble-damped low-degree fields, which keeps the
    perturbed integrand degree small enough for the default quadrature.
    """

    def __init__(self, n: int):
        self.n = n

    def field(self, rng: np.random.Generator, degree: int) -> PolyField:
        return random_polyfield(rng, self.n, degree)

    def boundary_delta(self, rng: np.random.Generator, degree: int) -> PolyField:
        return bubble_damped(random_polyfield(rng, self.n, min(degree, 1)))


@dataclass(frozen=True)
class NullCertificate:
    passed: bool
    max_normalized_residual: float
    boundary_action_deltas: tuple[float, ...]
    residual_tolerance: float
    action_tolerance: float
    trials: int
    degree: int
    seed: int
    path: str

    def as_dict(self) -> dict:
        return {
            "passed": self.passed,
            "max_normalized_residual": self.max_normalized_residual,
            "boundary_action_deltas": list(self.boundary_action_deltas),
            "residual_tolerance": self.residual_tolerance,
            "action_tolerance": self.action_tolerance,
            "trials": self.trials,
            "degree": self.degree,
            "seed": self.seed,
            "path": self.path,
        }


def certify_null(
    lag: Lagrangian,
    trials: int = 64,
    degree: int = 3,
    seed: int = 42,
    *,
    sampler: FieldSampler | None = None,
    residual_tol: float | None = None,
    action_tol_rel: float = ACTION_TOL_REL,
    points_per_trial: int = 3,
    order: int = 8,
    boundary_pairs: int = 3,
) -> NullCertificate:
    """Randomized certificate that the density has identically vanishing
    Euler residual and boundary-only action dependence.

    Deterministic for a fixed seed: each trial draws its field, then its
    points, from its own child of the seed sequence.  The states of all
    trials are then evaluated in one batch and reduced in one residual
    evaluation.  `order` is a minimum: each boundary action is raised to the
    order that the density's per-coordinate degree bound needs, and all
    actions of one order share one quadrature pass.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if degree < 2:
        raise ValueError("degree must be >= 2 to exercise second derivatives")
    if order < 1:
        raise ValueError("order must be >= 1")
    if seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed}")
    sampler = sampler or FieldSampler(lag.n)
    method = "closed" if lag.closed_form else "fd"
    if residual_tol is None:
        residual_tol = CLOSED_FORM_RESIDUAL_TOL if lag.closed_form else FD_RESIDUAL_TOL
    elif not (np.isfinite(residual_tol) and residual_tol >= 0.0):
        raise ValueError(f"residual tolerance must be a finite number >= 0, got {residual_tol}")

    children = np.random.SeedSequence(seed).spawn(trials + boundary_pairs)

    fields, points = [], []
    for t in range(trials):
        rng = np.random.default_rng(children[t])
        fields.append(sampler.field(rng, degree))
        points.append(rng.uniform(0.0, 1.0, size=(points_per_trial, 3)))
    x = np.stack(points)
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        res, scale = _residuals(lag, x, *field_states(fields, x), method)
        normalized = np.max(np.abs(res), axis=-1) / scale
    if not np.all(np.isfinite(normalized)):
        raise FloatingPointError("non-finite Euler residual")
    max_resid = float(np.max(normalized, initial=0.0))

    # Every pair's base and perturbed fields join the group of its order;
    # each group is integrated on one rule in one call.
    pair_orders, groups = [], {}
    for b in range(boundary_pairs):
        rng = np.random.default_rng(children[trials + b])
        field = sampler.field(rng, degree)
        perturbed = field + sampler.boundary_delta(rng, degree)
        degree_bound = lag.integrand_degree(max(field.axis_degree(), perturbed.axis_degree()))
        use_order = order if degree_bound is None else max(order, required_order(degree_bound))
        pair_orders.append(use_order)
        groups.setdefault(use_order, []).extend((field, perturbed))
    actions = {o: iter(_actions(lag, group, o).tolist()) for o, group in groups.items()}
    deltas = []
    for use_order in pair_orders:
        base, shifted = next(actions[use_order]), next(actions[use_order])
        deltas.append(abs(shifted - base) / max(1.0, abs(base)))

    passed = max_resid <= residual_tol and all(d <= action_tol_rel for d in deltas)
    return NullCertificate(
        passed=passed,
        max_normalized_residual=max_resid,
        boundary_action_deltas=tuple(deltas),
        residual_tolerance=residual_tol,
        action_tolerance=action_tol_rel,
        trials=trials,
        degree=degree,
        seed=seed,
        path="closed-form" if method == "closed" else "finite-difference",
    )
