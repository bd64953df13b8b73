"""Dense tensor algebra in dimension 3.

Rank-2/3/4 tensors are plain float64 ndarrays made read-only after
validation.  Symmetry classes are data (signed index permutations plus
structural zeros); each builds, once, a gather plan that checks a tensor
and an orbit plan that projects it onto the subspace of the class.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "as_matrix3",
    "as_tensor4",
    "levi_civita",
    "invariants2",
    "IndexRelation",
    "SymmetryClass",
    "MAJOR",
    "MINOR_LEFT",
    "MINOR_RIGHT",
    "SWAP24_ANTI",
    "SWAP13_ANTI",
    "ZERO_IF_IK_OR_JL",
    "TILDE",
    "SYMMETRY_TOL",
    "Moduli",
    "combine",
    "check_symmetry",
    "project",
    "orbit_summary",
    "class_projector_matrix",
    "nullspace_projector",
    "tensor_to_json",
    "tensor_from_json",
    "floats_from_json",
]

_SHAPES = {2: (3, 3), 3: (3, 3, 3), 4: (3, 3, 3, 3)}

#: Largest violation of its constructor symmetries that a moduli type accepts.
SYMMETRY_TOL = 1e-12


def _validated(data, order: int, where: str = "") -> np.ndarray:
    arr = np.asarray(data, dtype=float)
    shape = _SHAPES[order]
    if arr.shape != shape:
        if arr.size == np.prod(shape):
            arr = arr.reshape(shape)
        else:
            raise ValueError(
                f"{where}expected {np.prod(shape)} components for an order-{order} "
                f"tensor, got shape {np.asarray(data).shape}"
            )
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{where}tensor entries must be finite")
    arr = arr.copy()
    arr.flags.writeable = False
    return arr


def as_matrix3(data) -> np.ndarray:
    """Validate and freeze a 3x3 matrix (row-major flat input accepted)."""
    return _validated(data, 2)


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

    @functools.cached_property
    def _check_plan(self) -> tuple[np.ndarray, np.ndarray]:
        """Gather indices and signs, both (K, 3**order), such that row k of
        t.flat[index] - signs * t.flat is relation k's defect.  With
        structural zeros, a last row reads t there (sign 0), 0 elsewhere."""
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

    @functools.cached_property
    def orbits(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The orbit plan, read-only arrays over the 3**order flat entries:
        `label`, the smallest flat index in the entry's orbit (its
        representative); `sign`, the entry's sign relative to it, so that
        t.flat[f] = sign[f] * t.flat[label[f]] on the class; `dead`, set on
        orbits that a sign conflict or a structural zero forces to zero.

        Built from the `_check_plan` gather, in which the last row's sign 0
        at a structural zero reads as a relation no sign can satisfy."""
        index, signs = self._check_plan
        entries = np.arange(index.shape[1])
        label, sign = entries, np.ones(entries.size)
        while index.size:  # each entry takes the smallest label one relation away
            k = np.argmin(label[index], axis=0)
            step = index[k, entries]
            smaller = label[step] < label
            if not smaller.any():
                break
            label = np.where(smaller, label[step], label)
            sign = np.where(smaller, signs[k, entries] * sign[step], sign)
        conflict = (sign[index] != signs * sign).any(axis=0)
        dead = np.isin(label, label[conflict])
        label.flags.writeable = sign.flags.writeable = dead.flags.writeable = False
        return label, sign, dead

    def defect(self, t: np.ndarray) -> np.ndarray:
        """The check plan as a linear map of t, shape (K, 3**order): zero
        exactly where t lies in the class, its largest |entry| the violation.
        Entries near the double limit can make a difference overflow."""
        index, signs = self._check_plan
        flat = _flat(t, self)
        return flat[index] - signs * flat


@functools.cache
def _index_tuples(order: int) -> tuple[tuple[int, ...], ...]:
    """Every index tuple of an order-`order` tensor, in flat order."""
    return tuple(itertools.product(range(3), repeat=order))


MAJOR = SymmetryClass("MAJOR", 4, (IndexRelation((2, 3, 0, 1), 1.0),))
MINOR_LEFT = SymmetryClass("MINOR_LEFT", 4, (IndexRelation((1, 0, 2, 3), 1.0),))
MINOR_RIGHT = SymmetryClass("MINOR_RIGHT", 4, (IndexRelation((0, 1, 3, 2), 1.0),))
SWAP24_ANTI = SymmetryClass("SWAP24_ANTI", 4, (IndexRelation((0, 3, 2, 1), -1.0),))
SWAP13_ANTI = SymmetryClass("SWAP13_ANTI", 4, (IndexRelation((2, 1, 0, 3), -1.0),))
ZERO_IF_IK_OR_JL = SymmetryClass(
    "ZERO_IF_IK_OR_JL",
    4,
    (),
    frozenset(t for t in _index_tuples(4) if t[0] == t[2] or t[1] == t[3]),
)


@functools.lru_cache(maxsize=64)
def combine(name: str, *classes: SymmetryClass) -> SymmetryClass:
    """Merge classes of one tensor order; equal arguments give the same class."""
    orders = {c.order for c in classes}
    if len(orders) != 1:
        raise ValueError("cannot combine classes of different tensor order")
    rels = tuple(r for c in classes for r in c.relations)
    zeros = frozenset().union(*(c.zero_indices for c in classes))
    return SymmetryClass(name, orders.pop(), rels, zeros)


#: Rank-4 moduli that support a null energy (micropolar B-tilde, the
#: quasicrystal phason E): major symmetric, antisymmetric under both odd
#: index swaps, vanishing when i=k or j=l.
TILDE = combine("TILDE", MAJOR, SWAP24_ANTI, SWAP13_ANTI, ZERO_IF_IK_OR_JL)


def _flat(t: np.ndarray, cls: SymmetryClass) -> np.ndarray:
    if t.shape != (3,) * cls.order:
        raise ValueError(f"tensor of shape {t.shape} does not match class {cls.name}, "
                         f"which needs shape {(3,) * cls.order}")
    return t.reshape(-1)


def check_symmetry(t: np.ndarray, cls: SymmetryClass) -> float:
    """Maximum violation of the class over all index tuples (0 = holds).

    Entries near the double limit can make a difference overflow; the
    violation is then inf, without a floating-point warning."""
    with np.errstate(over="ignore"):
        return float(np.abs(cls.defect(t)).max(initial=0.0))


class Moduli:
    """Base of the frozen moduli dataclasses, each the record of its model
    family: `FAMILY` names it, `check(tol_abs)` and `lagrangian()` give its
    null-condition report and density.  `FIELDS` maps each dataclass field,
    in constructor order, to its symmetry class, whose order gives the
    tensor's shape, and the message for a violation above `SYMMETRY_TOL`,
    formatted with the violation `gap`; a field without a symmetry condition
    has message None.  Construction first validates and freezes every field,
    naming the field in an error, then checks the symmetries in order, so a
    non-finite entry is reported before any asymmetry.
    """

    FIELDS: dict[str, tuple[SymmetryClass, str | None]] = {}

    def __post_init__(self) -> None:
        for name, (cls, _) in self.FIELDS.items():
            object.__setattr__(self, name, _validated(getattr(self, name), cls.order, f"field {name!r}: "))
        for name, (cls, message) in self.FIELDS.items():
            if message is not None and (gap := check_symmetry(getattr(self, name), cls)) > SYMMETRY_TOL:
                raise ValueError(message.format(gap=gap))

    @classmethod
    def zero(cls):
        """The moduli whose every field is zero."""
        return cls(*(np.zeros((3,) * sym.order) for sym, _ in cls.FIELDS.values()))


def project(t: np.ndarray, cls: SymmetryClass) -> np.ndarray:
    """Orthogonal projection onto the class subspace by orbit averaging.

    Relations hold bit-exactly on the result: every orbit is assigned a
    single averaged value with per-entry signs (summed in ascending flat
    order), and dead orbits are zeroed.
    """
    label, sign, dead = cls.orbits
    flat = _flat(t, cls)
    mean = np.bincount(label, sign * flat)[label] / np.bincount(label)[label]
    return np.where(dead, 0.0, sign * mean).reshape(t.shape)


def orbit_summary(cls: SymmetryClass) -> dict:
    """Structural counts: entries forced to zero, free orbit count and the
    free orbits' smallest index tuples, ascending (a fresh dictionary on
    every call)."""
    label, _, dead = cls.orbits
    live, index = label[~dead], _index_tuples(cls.order)
    reps = [index[f] for f in sorted(set(live.tolist()))]
    return {"forced_zero_entries": label.size - live.size, "free_orbits": len(reps), "representatives": reps}


def class_projector_matrix(cls: SymmetryClass) -> np.ndarray:
    """The orbit-averaging projection as a dense matrix on the flattened
    component vector; useful for projecting large sample batches at once."""
    label, sign, dead = cls.orbits
    same = (label[:, None] == label) & ~dead
    return np.where(same, np.outer(sign, sign) / np.bincount(label)[label], 0.0)


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
    """Encode as {"order": n, "data": [...]} with row-major flattening, the
    encoding `tensor_from_json` reads back: a (3,) * n tensor of order 2, 3
    or 4 with finite entries; any other is a ValueError."""
    arr = np.asarray(t, dtype=float)
    if arr.ndim not in _SHAPES:
        raise ValueError(f"unsupported tensor order {arr.ndim}")
    if arr.shape != _SHAPES[arr.ndim]:
        raise ValueError(f"an order-{arr.ndim} tensor must have shape {_SHAPES[arr.ndim]}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("tensor entries must be finite")
    return {"order": arr.ndim, "data": arr.reshape(-1).tolist()}


def floats_from_json(values, length: int, what: str) -> np.ndarray:
    """A flat JSON list of `length` numbers as floats.  Entries must be of
    exact type int or float (JSON true/false load as bool, which must not
    read as 1/0) and within the double range; otherwise a ValueError names
    `what`."""
    if not isinstance(values, list) or len(values) != length or not set(map(type, values)) <= {int, float}:
        raise ValueError(f"{what} must be a flat list of {length} numbers")
    try:
        return np.asarray(values, dtype=float)
    except OverflowError:
        raise ValueError(f"{what} holds a number outside the double range") from None


def tensor_from_json(obj: dict) -> np.ndarray:
    """Decode the JSON tensor encoding strictly: exactly the keys order/data,
    an int order of 2, 3 or 4 and data by the rule of `floats_from_json`;
    any other input is a ValueError."""
    if not isinstance(obj, dict):
        raise ValueError("a tensor must be a JSON object")
    if set(obj) != {"order", "data"}:
        raise ValueError(f"tensor object must have exactly keys order/data, got {sorted(obj)}")
    order = obj["order"]
    if type(order) is not int or order not in _SHAPES:
        raise ValueError(f"unsupported tensor order {order!r}")
    return _validated(floats_from_json(obj["data"], 3**order, f"order-{order} tensor data"), order)
