"""Dense tensor algebra in dimension 3.

Rank-2/3/4 tensors are plain float64 ndarrays made read-only after
validation.  Symmetry classes are data (signed index permutations plus
zero predicates) and can be checked by exhaustive enumeration, or used
to project a tensor onto the subspace where every relation holds.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

__all__ = [
    "as_matrix3",
    "as_tensor3",
    "as_tensor4",
    "levi_civita",
    "apply4",
    "invariants2",
    "major_transpose",
    "IndexRelation",
    "SymmetryClass",
    "MAJOR",
    "MINOR_LEFT",
    "MINOR_RIGHT",
    "SWAP24_ANTI",
    "SWAP13_ANTI",
    "ZERO_IF_IK_OR_JL",
    "combine",
    "check_symmetry",
    "project",
    "orbit_summary",
    "class_projector_matrix",
    "nullspace_projector",
    "tensor_to_json",
    "tensor_from_json",
]

_SHAPES = {2: (3, 3), 3: (3, 3, 3), 4: (3, 3, 3, 3)}


def _validated(data, order: int) -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    shape = _SHAPES[order]
    if arr.shape != shape:
        if arr.size == np.prod(shape):
            arr = arr.reshape(shape)
        else:
            raise ValueError(
                f"expected {np.prod(shape)} components for an order-{order} "
                f"tensor, got shape {np.asarray(data).shape}"
            )
    if not np.all(np.isfinite(arr)):
        raise ValueError("tensor entries must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def as_matrix3(data) -> np.ndarray:
    """Validate and freeze a 3x3 matrix (row-major flat input accepted)."""
    return _validated(data, 2)


def as_tensor3(data) -> np.ndarray:
    """Validate and freeze a 3x3x3 tensor."""
    return _validated(data, 3)


def as_tensor4(data) -> np.ndarray:
    """Validate and freeze a 3x3x3x3 tensor."""
    return _validated(data, 4)


def _build_levi_civita() -> np.ndarray:
    e = np.zeros((3, 3, 3))
    e[0, 1, 2] = e[1, 2, 0] = e[2, 0, 1] = 1.0
    e[0, 2, 1] = e[2, 1, 0] = e[1, 0, 2] = -1.0
    e.flags.writeable = False
    return e


_LEVI_CIVITA = _build_levi_civita()


def levi_civita() -> np.ndarray:
    """The alternating tensor: +1 on even permutations of (1,2,3)."""
    return _LEVI_CIVITA


def apply4(t4: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Action of a rank-4 tensor on a matrix: (T[M])_ij = T_ijkl M_kl."""
    return np.einsum("ijkl,kl->ij", t4, m)


def major_transpose(t4: np.ndarray) -> np.ndarray:
    """Swap the leading and trailing index pairs: T_ijkl -> T_klij."""
    return np.transpose(t4, (2, 3, 0, 1))


def invariants2(m: np.ndarray) -> tuple[float, float, float]:
    """Return (tr M, I2(M), M_ij M_ji).

    I2 is the second principal invariant ((tr M)^2 - tr M^2)/2; the third
    component is the contraction of M with its own transpose, tr(M @ M).
    """
    tr = float(np.trace(m))
    tdot = float(np.einsum("ij,ji->", m, m))
    return tr, 0.5 * (tr * tr - tdot), tdot


@dataclass(frozen=True)
class IndexRelation:
    """One relation T_{perm(idx)} = sign * T_{idx}; perm is an axes tuple."""

    perm: tuple[int, ...]
    sign: float

    def apply(self, idx: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(idx[p] for p in self.perm)


@dataclass(frozen=True)
class SymmetryClass:
    """A named bundle of index relations and structurally-zero entries."""

    name: str
    order: int
    relations: tuple[IndexRelation, ...]
    zero_indices: frozenset[tuple[int, ...]] = frozenset()

    def all_indices(self):
        return itertools.product(range(3), repeat=self.order)

    @functools.cached_property
    def _check_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """Gather indices and signs, both (K, 3**order), such that row k of
        |t.flat[index] - signs * t.flat| is relation k's violation.  With
        structural zeros, a last row reads |t| there (sign 0), 0 elsewhere."""
        cube = np.arange(3**self.order).reshape((3,) * self.order)
        index = [np.transpose(cube, r.perm) for r in self.relations]
        signs = [np.full(cube.shape, r.sign) for r in self.relations]
        if self.zero_indices:
            index.append(cube)
            signs.append(np.where(np.isin(cube, [cube[idx] for idx in self.zero_indices]), 0.0, 1.0))
        index = np.array(index, dtype=np.intp).reshape(-1, cube.size)
        signs = np.array(signs).reshape(-1, cube.size)
        index.flags.writeable = signs.flags.writeable = False
        return index, signs


def _zeros_from_predicate(order, predicate) -> frozenset:
    return frozenset(
        idx for idx in itertools.product(range(3), repeat=order) if predicate(idx)
    )


MAJOR = SymmetryClass("MAJOR", 4, (IndexRelation((2, 3, 0, 1), 1.0),))
MINOR_LEFT = SymmetryClass("MINOR_LEFT", 4, (IndexRelation((1, 0, 2, 3), 1.0),))
MINOR_RIGHT = SymmetryClass("MINOR_RIGHT", 4, (IndexRelation((0, 1, 3, 2), 1.0),))
SWAP24_ANTI = SymmetryClass("SWAP24_ANTI", 4, (IndexRelation((0, 3, 2, 1), -1.0),))
SWAP13_ANTI = SymmetryClass("SWAP13_ANTI", 4, (IndexRelation((2, 1, 0, 3), -1.0),))
ZERO_IF_IK_OR_JL = SymmetryClass(
    "ZERO_IF_IK_OR_JL",
    4,
    (),
    _zeros_from_predicate(4, lambda t: t[0] == t[2] or t[1] == t[3]),
)


def combine(name: str, *classes: SymmetryClass) -> SymmetryClass:
    """Merge several symmetry classes of the same tensor order into one."""
    orders = {c.order for c in classes}
    if len(orders) != 1:
        raise ValueError("cannot combine classes of different tensor order")
    rels = tuple(r for c in classes for r in c.relations)
    zeros = frozenset().union(*(c.zero_indices for c in classes))
    return SymmetryClass(name, orders.pop(), rels, zeros)


def check_symmetry(t: np.ndarray, cls: SymmetryClass) -> float:
    """Maximum violation of the class over all index tuples (0 = holds).

    Entries near the double limit can make a difference overflow; the
    violation is then inf, without a floating-point warning."""
    if t.ndim != cls.order:
        raise ValueError(f"tensor order {t.ndim} does not match class order {cls.order}")
    index, signs = cls._check_plan
    flat = t.reshape(-1)
    with np.errstate(over="ignore"):
        return float(np.abs(flat[index] - signs * flat).max(initial=0.0))


@functools.lru_cache(maxsize=64)
def _orbits(cls: SymmetryClass) -> tuple[tuple[MappingProxyType, bool], ...]:
    """Decompose index space into relation orbits, once per class.

    Returns (members, dead) pairs where members maps index -> sign relative
    to the orbit's canonical (lexicographically smallest) representative
    and dead marks orbits forced to zero by sign conflicts or zero
    predicates.  The result is cached, so members are read-only views.
    """
    orbits = []
    visited: set[tuple[int, ...]] = set()
    for start in cls.all_indices():
        if start in visited:
            continue
        members = {start: 1.0}
        stack = [start]
        dead = start in cls.zero_indices
        while stack:
            cur = stack.pop()
            s_cur = members[cur]
            for rel in cls.relations:
                nxt = rel.apply(cur)
                s_nxt = s_cur * rel.sign
                if nxt in members:
                    if members[nxt] != s_nxt:
                        dead = True
                else:
                    members[nxt] = s_nxt
                    if nxt in cls.zero_indices:
                        dead = True
                    stack.append(nxt)
        rep = min(members)
        rep_sign = members[rep]
        members = {idx: s / rep_sign for idx, s in members.items()}
        visited |= set(members)
        orbits.append((MappingProxyType(members), dead))
    return tuple(orbits)


def project(t: np.ndarray, cls: SymmetryClass) -> np.ndarray:
    """Orthogonal projection onto the class subspace by orbit averaging.

    Relations hold bit-exactly on the result: every orbit is assigned a
    single averaged value with per-entry signs, and conflicted orbits are
    zeroed.
    """
    if t.ndim != cls.order:
        raise ValueError(f"tensor order {t.ndim} does not match class order {cls.order}")
    out = np.zeros_like(t, dtype=float)
    for members, dead in _orbits(cls):
        if dead:
            continue
        ordered = sorted(members)
        value = sum(members[idx] * float(t[idx]) for idx in ordered) / len(ordered)
        for idx, sign in members.items():
            out[idx] = sign * value
    return out


def orbit_summary(cls: SymmetryClass) -> dict:
    """Structural counts: entries forced to zero and free orbit count (a
    fresh dictionary on every call)."""
    forced = 0
    free = 0
    reps = []
    for members, dead in _orbits(cls):
        if dead:
            forced += len(members)
        else:
            free += 1
            reps.append(min(members))
    return {"forced_zero_entries": forced, "free_orbits": free, "representatives": reps}


def class_projector_matrix(cls: SymmetryClass) -> np.ndarray:
    """The orbit-averaging projection as a dense matrix on the flattened
    component vector; useful for projecting large sample batches at once."""
    dim = 3 ** cls.order
    strides = [3 ** (cls.order - 1 - k) for k in range(cls.order)]
    flat = lambda idx: sum(i * s for i, s in zip(idx, strides))
    p = np.zeros((dim, dim))
    for members, dead in _orbits(cls):
        if dead:
            continue
        n = len(members)
        for idx_a, sign_a in members.items():
            for idx_b, sign_b in members.items():
                p[flat(idx_a), flat(idx_b)] = sign_a * sign_b / n
    return p


def nullspace_projector(rows: np.ndarray, dim: int) -> np.ndarray:
    """Projector onto {x : A x = 0} for a stack of constraint rows A."""
    a = np.asarray(rows, dtype=float).reshape(-1, dim)
    if a.shape[0] == 0:
        return np.eye(dim)
    _, s, vt = np.linalg.svd(a)
    tol = max(a.shape) * np.finfo(float).eps * (s[0] if s.size else 1.0)
    null_basis = vt[int(np.sum(s > tol)):]
    return null_basis.T @ null_basis


def tensor_to_json(t: np.ndarray) -> dict:
    """Encode as {"order": n, "data": [...]} with row-major flattening."""
    if t.ndim not in _SHAPES:
        raise ValueError(f"unsupported tensor order {t.ndim}")
    return {"order": t.ndim, "data": np.asarray(t, dtype=float).reshape(-1).tolist()}


def tensor_from_json(obj: dict) -> np.ndarray:
    """Decode the JSON tensor encoding with strict length validation."""
    if set(obj) != {"order", "data"}:
        raise ValueError(f"tensor object must have exactly keys order/data, got {sorted(obj)}")
    order = obj["order"]
    if order not in _SHAPES:
        raise ValueError(f"unsupported tensor order {order}")
    data = obj["data"]
    expected = int(np.prod(_SHAPES[order]))
    if len(data) != expected:
        raise ValueError(f"order-{order} tensor needs {expected} entries, got {len(data)}")
    return _validated(data, order)
