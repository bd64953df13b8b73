"""Euler-operator evaluation and null-Lagrangian certification.

The Euler operator used throughout is

    E_k(L) = d/dx_g (dL/dy'_kg) - dL/dy_k

expanded by the chain rule into second partials of L contracted with the
exact field derivatives.  With this sign convention the residual of the
Dirichlet density |grad u|^2 / 2 is the (positive) Laplacian.

Every density gives its residual exactly through
`Lagrangian.closed_residual`: the quadratic densities with constant
coefficients here and the generator-built densities of `nullag.rund`.  The
test suite cross-checks these closed forms against a finite-difference
oracle kept under `tests/`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import chain, islice

import numpy as np

from .polyfield import (PolyField, bubble, bubble_pairs, dense_states, evaluate_on_rule, field_states,
                        random_polyfield, stack_fields)
from .quadrature import cube_rule, required_order
from .report import as_tolerance

__all__ = [
    "Lagrangian",
    "QuadraticLagrangian",
    "FieldSampler",
    "NullCertificate",
    "euler_residual",
    "action_integral",
    "boundary_dependence_test",
    "certify_null",
    "CLOSED_FORM_RESIDUAL_TOL",
    "ACTION_TOL_REL",
]

CLOSED_FORM_RESIDUAL_TOL = 1e-10
ACTION_TOL_REL = 1e-12


class Lagrangian:
    """Base class: a density L(x, y, Dy) evaluated on batches of states."""

    n: int

    @property
    def reads_values(self) -> bool:
        """False if `evaluate` reads only Dy and `closed_residual` only the
        Hessians, so their y, y0 and dy0 may be None."""
        return True

    def evaluate(self, x: np.ndarray, y: np.ndarray, dy: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def closed_residual(self, x: np.ndarray, y0: np.ndarray, dy0: np.ndarray, d2y0: np.ndarray):
        """Exact Euler residual at points x (..., 3) with field values
        (..., N), gradients (..., N, 3) and Hessians (..., N, 3, 3), for any
        leading batch axes: E_k (..., N) and the scale max|d2L/dDy dDy|, a
        number or one per point (...)."""
        raise TypeError(f"{type(self).__name__} defines no closed_residual, the exact Euler residual")

    def integrand_degree(self, field_degree: int) -> int:
        """Upper bound on the degree in each single coordinate of
        x -> L(x, y(x), Dy(x)), for a polynomial field y of degree
        `field_degree` in each single coordinate (`PolyField.axis_degree`).
        A tensor-product Gauss rule of order n is exact through degree
        2n - 1 in each coordinate separately, so this bound, not a
        total-degree one, sizes the action quadrature."""
        raise TypeError(f"{type(self).__name__} defines no integrand_degree, the bound on its degree")


class QuadraticLagrangian(Lagrangian):
    """L = p[z,z]/2 + q[z,y] + r[y,y]/2 with z = Dy and constant blocks.

    `p` has shape (N,3,N,3) and is symmetrized under pair swap, `q` has
    shape (N,3,N), `r` shape (N,N) symmetrized.  The blocks are read-only,
    and the terms of an identically zero `q` or `r` are skipped, which
    leaves every value as it is; with both zero the density reads neither
    y nor, in its residual, Dy (`reads_values`).
    """

    def __init__(self, p: np.ndarray, q: np.ndarray | None = None, r: np.ndarray | None = None):
        p = np.asarray(p, dtype=float)
        self.n = n = p.shape[0] if p.ndim else 0
        self.q = np.zeros((n, 3, n)) if q is None else np.array(q, dtype=float)
        r = np.zeros((n, n)) if r is None else np.asarray(r, dtype=float)
        for name, block, shape in (("p", p, (n, 3, n, 3)), ("q", self.q, (n, 3, n)), ("r", r, (n, n))):
            if block.shape != shape:
                raise ValueError(f"density block {name} has shape {block.shape}, expected {shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # reported just below
            self.p = 0.5 * (p + np.transpose(p, (2, 3, 0, 1)))
            self.r = 0.5 * (r + r.T)
        for name in ("p", "q", "r"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"density block {name} must be finite after symmetrization")
            getattr(self, name).flags.writeable = False
        self._uses_q, self._uses_r = bool(np.any(self.q)), bool(np.any(self.r))

    @property
    def reads_values(self) -> bool:
        # A subclass that replaces either method may read what these skip.
        own = (type(self).evaluate is QuadraticLagrangian.evaluate
               and type(self).closed_residual is QuadraticLagrangian.closed_residual)
        return self._uses_q or self._uses_r or not own

    def evaluate(self, x, y, dy):
        dy = np.asarray(dy, dtype=float)
        f = dy.reshape(dy.shape[0], 3 * self.n)
        out = 0.5 * np.einsum("mi,mi->m", f @ self.p.reshape(3 * self.n, 3 * self.n), f)
        if self._uses_q or self._uses_r:
            y = np.asarray(y, dtype=float)
        if self._uses_q:
            out += np.einsum("mi,mi->m", f @ self.q.reshape(3 * self.n, self.n), y)
        if self._uses_r:
            out += 0.5 * np.einsum("mi,mi->m", y @ self.r, y)
        return out

    def integrand_degree(self, field_degree: int) -> int:
        # y and Dy have degree <= p in each coordinate: a derivative does not
        # raise it, and the density is a quadratic form in (y, Dy).
        return 2 * max(int(field_degree), 0)

    def closed_residual(self, x, y0, dy0, d2y0):
        # The einsums sum in an order that follows the layout of d2y0, so it
        # is used as given.  Addition commutes, so starting from the p term
        # keeps the bits of the q terms' difference plus the p term.
        res = np.einsum("kcjb,...jbc->...k", self.p, d2y0)
        if self._uses_q:
            res += np.einsum("kcj,...jc->...k", self.q, dy0) - np.einsum("jbk,...jb->...k", self.q, dy0)
        if self._uses_r:
            res -= np.einsum("kj,...j->...k", self.r, y0)
        return res, self.second_derivative_scale()

    def second_derivative_scale(self) -> float:
        return float(np.max(np.abs(self.p))) if self.p.size else 0.0


def _residuals(lag: Lagrangian, x, y0, dy0, d2y0):
    """Euler residuals (..., N) and normalization scales (...) at the states
    (y0, dy0, d2y0) of points x (..., 3), for any leading batch axes."""
    res, coeff = lag.closed_residual(x, y0, dy0, d2y0)
    return res, 1.0 + coeff * np.max(np.abs(d2y0), axis=(-3, -2, -1))


def _levels(lag: Lagrangian) -> tuple:
    """The state levels the residual reads: the Hessians alone if no values."""
    return (0, 1, 2) if lag.reads_values else (2,)


def _residual_and_scale(lag: Lagrangian, y: PolyField, x):
    x = np.asarray(x, dtype=float).reshape(1, 1, 3)
    res, scale = _residuals(lag, x, *field_states([y], x, _levels(lag)))
    return res[0, 0], float(scale[0, 0])


def euler_residual(lag: Lagrangian, y: PolyField, x) -> np.ndarray:
    """Euler-operator components E_k at the point x for the field y."""
    res, _ = _residual_and_scale(lag, y, x)
    return res


def _actions(lag: Lagrangian, fields, order: int) -> np.ndarray:
    """Exact tensor-product Gauss-Legendre actions (F,) of F fields over the
    unit cube: one rule, one kept monomial matrix per derivative level on the
    union of the fields' tables, and one density evaluation per field over
    its Q rows, so no temporary grows with F.  The values are evaluated
    only for a density that reads them.

    Raises ValueError if the order is below what the density's
    per-coordinate degree bound requires for any field, and
    FloatingPointError if any field's density is not finite."""
    for y in fields:
        degree = lag.integrand_degree(y.axis_degree())
        if 2 * order - 1 < degree:
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
        y = evaluate_on_rule(table, coeffs[i].T, order) if lag.reads_values else None
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
    shifted, base = _actions(lag, [y + bubble() * w, y], order)
    return float(abs(shifted - base))


class FieldSampler:
    """Random test fields and boundary-vanishing perturbations.

    Perturbations are bubble-damped low-degree fields, which keeps the
    perturbed integrand degree small enough for the default quadrature.
    `certify_null` calls these methods only if a subclass replaces one.
    """

    def __init__(self, n: int):
        self.n = n

    def field(self, rng: np.random.Generator, degree: int) -> PolyField:
        return random_polyfield(rng, self.n, degree)

    def boundary_delta(self, rng: np.random.Generator, degree: int) -> PolyField:
        return bubble() * random_polyfield(rng, self.n, min(degree, 1))


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
        return {**vars(self), "boundary_action_deltas": list(self.boundary_action_deltas)}


# numpy's seeding constants (NEP 19): SeedSequence's hash and mix, and PCG64's multiplier.
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _PCG_MULT = 0xCA01F9DD, 0x4973F715, 0x2360ED051FC65DA44385DF649FCCF645
_SEED_BLOCK = 1024  # children seeded per pass, so seeding memory is bounded
_POOL_ROWS = [0, 1, 2, 3, 0, 1, 2, 3]  # generate_state(4, uint64) hashes 8 words from the pool of 4


def _hashmix(value: np.ndarray, init: int, mult: int, hashes) -> np.ndarray:
    """SeedSequence's hash k of uint32 `value`, per row k of `hashes`, by the constants init * mult**k."""
    const = np.uint32(init) * np.power(np.uint32(mult), np.array(hashes, dtype=np.uint32)[:, None])
    value = (value ^ const) * (const * np.uint32(mult))
    return value ^ value >> 16


def _trial_generators(seed: int, count: int):
    """Yield one Generator `count` times, in the state of `np.random.default_rng(c)` for each child c of
    `np.random.SeedSequence(seed).spawn(count)` in turn.  A child's entropy is the seed's words, zero-padded
    to the pool size 4, then its key; the parent hashes zeros past its last word too, so a child's pool is
    the parent's mixed with its key's hashes.  That mix, and generate_state's hashes into PCG64's
    (initstate, initseq), are uint32 array ops on a block of children at a time."""
    if count > 1 << 32:  # a spawn key from 2**32 on has two words
        raise ValueError(f"trials plus boundary pairs must be at most 2**32, got {count}")
    parent = np.random.SeedSequence(seed)
    pool = parent.pool[_POOL_ROWS, None] * np.uint32(_MIX_MULT_L)
    first = 4 * max(4, -(-seed.bit_length() // 32))  # the parent's hashes: 4 per word, of at least 4 words
    rng = np.random.Generator(np.random.PCG64(parent))  # its state is replaced before each yield
    for start in range(0, count, _SEED_BLOCK):
        keys = np.arange(start, min(start + _SEED_BLOCK, count), dtype=np.uint32)
        child = pool - _hashmix(keys, _INIT_A, _MULT_A, [first + r for r in _POOL_ROWS]) * np.uint32(_MIX_MULT_R)
        words = _hashmix(child ^ child >> 16, _INIT_B, _MULT_B, range(8))
        # uint32 words paired low first, as generate_state's '<u4' -> '<u8' view does
        for hi, lo, seq_hi, seq_lo in np.ascontiguousarray(words.T, dtype="<u4").view("<u8").tolist():
            inc = ((seq_hi << 64 | seq_lo) << 1 | 1) % (1 << 128)
            state = {"state": (((hi << 64 | lo) + inc) * _PCG_MULT + inc) % (1 << 128), "inc": inc}
            rng.bit_generator.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
            yield rng


def _integer(value, name: str, least: int, why: str = "") -> int:
    """`value` as a plain int, if it is an integer other than a bool and >= least."""
    if isinstance(value, bool) or not hasattr(type(value), "__index__") or operator.index(value) < least:
        raise ValueError(f"{name} must be an integer >= {least}{why}, got {value}")
    return operator.index(value)


def certify_null(
    lag: Lagrangian,
    trials: int = 64,
    degree: int = 3,
    seed: int = 42,
    *,
    sampler: FieldSampler | None = None,
    residual_tol: float | None = None,
    points_per_trial: int = 3,
    order: int = 8,
    boundary_pairs: int = 3,
) -> NullCertificate:
    """Randomized certificate that the density has identically vanishing
    Euler residual and boundary-only action dependence.

    Deterministic for a fixed seed: trial t, then boundary pair b, draws
    from `default_rng` of child t, then trials + b, of `SeedSequence(seed)
    .spawn(trials + boundary_pairs)`, at most 2**32 children; a sampler's
    Generator is valid only during its call.  Counts, degree and seed are
    ints and the residual tolerance a real number, none of them a bool.
    All trial states are evaluated in one batch and reduced in one residual
    evaluation.  `order` is a minimum: all boundary actions share one
    quadrature pass, at the order their fields' highest per-coordinate degree
    bound needs, also pairs of lower degree (an exactly 0.0 draw, or a custom
    sampler's): still exact, only their deltas' rounding can move.  The
    default sampler draws each stream by one `Generator.random` into stacked
    arrays, bit for bit; a subclass that replaces a method is called per stream.
    """
    trials = _integer(trials, "trials", 1)
    degree = _integer(degree, "degree", 2, " to exercise second derivatives")
    order = _integer(order, "order", 1)
    seed = _integer(seed, "seed", 0)
    points_per_trial = _integer(points_per_trial, "points per trial", 1)
    boundary_pairs = _integer(boundary_pairs, "boundary pairs", 0)
    if trials + boundary_pairs > 1 << 32:  # as in `_trial_generators`, but before any draw is allocated
        raise ValueError(f"trials plus boundary pairs must be at most 2**32, got {trials + boundary_pairs}")
    residual_tol = as_tolerance(CLOSED_FORM_RESIDUAL_TOL if residual_tol is None else residual_tol,
                                "residual tolerance")
    sampler = sampler or FieldSampler(lag.n)
    n, k = sampler.n, (degree + 1) * (degree + 2) * (degree + 3) // 6  # k monomials of degree <= degree

    streams = _trial_generators(seed, trials + boundary_pairs)
    if type(sampler).field is FieldSampler.field and type(sampler).boundary_delta is FieldSampler.boundary_delta:
        try:  # a trial's row: its field's draws, then its points'; a pair's: its field's, then w's
            rows = np.empty((trials + boundary_pairs, n * k + max(3 * points_per_trial, 4 * n)))
        except (MemoryError, ValueError):  # numpy's text names no count
            raise ValueError(f"cannot allocate the random draws of {trials} trials") from None
        for row, rng in zip(rows, streams):
            rng.random(out=row)  # the doubles `uniform` takes: uniform(-1, 1) is -1 + 2u bit for bit
        dense, tail = -1.0 + 2.0 * rows[:, :n * k].reshape(-1, n, k), rows[:, n * k:]
        x = tail[:trials, :3 * points_per_trial].reshape(trials, points_per_trial, 3)
        states = dense_states(dense[:trials], degree, x, _levels(lag))
        pairs = bubble_pairs(dense[trials:], -1.0 + 2.0 * tail[trials:, :4 * n].reshape(-1, n, 4), degree)
    else:
        fields, points = zip(*((sampler.field(rng, degree), rng.uniform(0.0, 1.0, size=(points_per_trial, 3)))
                               for rng in islice(streams, trials)))
        x = np.stack(points)
        states = field_states(fields, x, _levels(lag))
        pairs = list(chain.from_iterable((field := sampler.field(rng, degree),
                                          field + sampler.boundary_delta(rng, degree)) for rng in streams))
    with np.errstate(over="ignore", invalid="ignore"):  # reported just below
        res, scale = _residuals(lag, x, *states)
        normalized = np.max(np.abs(res), axis=-1) / scale
    if not np.all(np.isfinite(normalized)):
        raise FloatingPointError("non-finite Euler residual")
    max_resid = float(np.max(normalized, initial=0.0))

    deltas = []
    if pairs:  # [y_0, y_0 + delta_0, y_1, ...], integrated on one rule in one call
        use_order = max(order, required_order(max(lag.integrand_degree(f.axis_degree()) for f in pairs)))
        deltas = [abs(s - b) / max(1.0, abs(b)) for b, s in _actions(lag, pairs, use_order).reshape(-1, 2).tolist()]

    passed = max_resid <= residual_tol and all(d <= ACTION_TOL_REL for d in deltas)
    return NullCertificate(
        passed=passed,
        max_normalized_residual=max_resid,
        boundary_action_deltas=tuple(deltas),
        residual_tolerance=residual_tol,
        action_tolerance=ACTION_TOL_REL,
        trials=trials,
        degree=degree,
        seed=seed,
        path="closed-form",
    )
