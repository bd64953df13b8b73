import dataclasses
import functools
import itertools
import json
import re
import warnings

import numpy as np
import pytest

from nullag import em, micropolar, quasicrystal, tensors
from nullag.polyfield import random_polyfield
from nullag.tensors import (
    MAJOR,
    MINOR_LEFT,
    SWAP13_ANTI,
    SWAP24_ANTI,
    ZERO_IF_IK_OR_JL,
    IndexRelation,
    SymmetryClass,
    as_matrix3,
    as_tensor4,
    check_symmetry,
    class_projector_matrix,
    combine,
    invariants2,
    levi_civita,
    nullspace_projector,
    orbit_summary,
    project,
    tensor_from_json,
    tensor_to_json,
)


def test_levi_civita_values():
    e = levi_civita()
    assert e[0, 1, 2] == 1.0
    assert e[1, 0, 2] == -1.0
    assert e[0, 0, 1] == 0.0


def test_levi_civita_antisymmetry():
    e = levi_civita()
    assert np.array_equal(np.transpose(e, (1, 0, 2)), -e)
    assert np.array_equal(np.transpose(e, (0, 2, 1)), -e)


def test_invariants2_identity():
    assert invariants2(np.eye(3)) == (3.0, 3.0, 3.0)


def test_invariants2_skew_axial_e3():
    m = np.zeros((3, 3))
    m[0, 1] = -1.0
    m[1, 0] = 1.0
    tr, i2, tdot = invariants2(m)
    assert tr == 0.0
    assert i2 == 1.0
    assert tdot == -2.0


def test_invariants2_zero():
    assert invariants2(np.zeros((3, 3))) == (0.0, 0.0, 0.0)


def test_second_invariant_identity_random():
    rng = np.random.default_rng(42)
    for _ in range(200):
        m = rng.uniform(-1, 1, (3, 3))
        tr, i2, tdot = invariants2(m)
        lhs = tr * tr - tdot
        assert abs(lhs - 2.0 * i2) <= 1e-13 * max(1.0, abs(lhs))


def test_adjoint_identity_random():
    rng = np.random.default_rng(7)
    for _ in range(100):
        t = rng.uniform(-1, 1, (3, 3, 3, 3))
        m = rng.uniform(-1, 1, (3, 3))
        n = rng.uniform(-1, 1, (3, 3))
        lhs = float(np.einsum("ij,ijkl,kl->", m, t, n))  # m . T[n]
        rhs = float(np.einsum("ij,klij,kl->", n, t, m))  # n . T^T[m], T^T the major transpose
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(lhs))


def test_check_symmetry_isotropic_major_exact_zero():
    eye = np.eye(3)
    b = (
        1.7 * np.einsum("ij,kl->ijkl", eye, eye)
        + 0.3 * np.einsum("ik,jl->ijkl", eye, eye)
        - 2.2 * np.einsum("il,jk->ijkl", eye, eye)
    )
    assert check_symmetry(b, MAJOR) == 0.0


def test_check_symmetry_zero_predicate():
    t = np.zeros((3, 3, 3, 3))
    t[0, 0, 0, 0] = 1.0
    cls = tensors.SymmetryClass(
        "ZERO_IF_IK", 4, (), frozenset(i for i in itertools.product(range(3), repeat=4) if i[0] == i[2])
    )
    assert check_symmetry(t, cls) == 1.0


def test_check_symmetry_zero_tensor():
    z = np.zeros((3, 3, 3, 3))
    for cls in (MAJOR, MINOR_LEFT, SWAP24_ANTI, SWAP13_ANTI, ZERO_IF_IK_OR_JL):
        assert check_symmetry(z, cls) == 0.0


def reference_check_symmetry(t, cls):
    """The per-relation loop `check_symmetry` replaced: one transpose per
    relation, then one Python step per structural zero."""
    worst = 0.0
    for rel in cls.relations:
        with np.errstate(over="ignore"):
            worst = max(worst, float(np.max(np.abs(np.transpose(t, rel.perm) - rel.sign * t))))
    for idx in cls.zero_indices:
        worst = max(worst, abs(float(t[idx])))
    return worst


ALL_CLASSES = {
    value.name: value
    for module in (tensors, micropolar, quasicrystal, em)
    for value in vars(module).values()
    if isinstance(value, tensors.SymmetryClass)
}
# The phason null class is the B-tilde class under its quasicrystal name; it
# keeps a case of its own so both names stay covered.
ALL_CLASSES["PHASON_NULL"] = quasicrystal.PHASON_NULL_CLASS


def oracle_tensors(cls, rng):
    """Random, in-class and near-double-limit tensors of the class's order,
    and a non-contiguous view of one of them."""
    shape = (3,) * cls.order
    out = [rng.uniform(-1, 1, shape), rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, shape)]
    out += [project(rng.uniform(-1, 1, shape), cls) for _ in range(2)]
    huge = [rng.choice([-1.5e308, -1e308, 1e308, 1.5e308], shape) for _ in range(3)]
    out += huge + [np.where(rng.uniform(size=shape) < 0.5, h, 0.0) for h in huge]
    return out + [np.transpose(out[0])]


@pytest.mark.parametrize("name", sorted(ALL_CLASSES))
def test_check_symmetry_matches_the_per_relation_loop(name):
    cls = ALL_CLASSES[name]
    rng = np.random.default_rng(sorted(ALL_CLASSES).index(name))
    results = []
    for t in oracle_tensors(cls, rng):
        expected = reference_check_symmetry(t, cls)
        assert check_symmetry(t, cls) == expected
        results.append(expected)
    assert results[2] == results[3] == 0.0
    if cls.relations:
        assert np.inf in results


@pytest.mark.parametrize(
    "constants",
    [(1.7, 0.3, -2.2), (0.0, -0.0, 1.0), (-1.0, 0.0, 0.0), (1e308, 1e308, -1e308), (np.inf, 1.0, 0.0)],
)
def test_iso_tensor_matches_its_einsum_construction(constants):
    c_tr, c_id, c_swap = constants
    eye = np.eye(3)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = (
            c_tr * np.einsum("ij,kl->ijkl", eye, eye)
            + c_id * np.einsum("ik,jl->ijkl", eye, eye)
            + c_swap * np.einsum("il,jk->ijkl", eye, eye)
        )
    assert micropolar._iso_tensor(*constants).tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "classes",
    [
        (MAJOR,),
        (MAJOR, SWAP24_ANTI),
        (MAJOR, SWAP24_ANTI, SWAP13_ANTI, ZERO_IF_IK_OR_JL),
        (MINOR_LEFT, SWAP13_ANTI),
    ],
)
def test_projection_lands_exactly_on_class(classes):
    cls = combine("combined", *classes)
    rng = np.random.default_rng(hash(tuple(c.name for c in classes)) % 2**32)
    t = rng.uniform(-1, 1, (3, 3, 3, 3))
    projected = project(t, cls)
    assert check_symmetry(projected, cls) == 0.0


def test_projection_idempotent():
    cls = combine("c", MAJOR, SWAP24_ANTI)
    rng = np.random.default_rng(3)
    t = rng.uniform(-1, 1, (3, 3, 3, 3))
    p1 = project(t, cls)
    assert np.allclose(project(p1, cls), p1, rtol=0, atol=1e-15)


def test_relation_permutations_are_involutive():
    rng = np.random.default_rng(2)
    t = rng.uniform(-1, 1, (3, 3, 3, 3))
    for cls in (MAJOR, MINOR_LEFT, SWAP24_ANTI, SWAP13_ANTI):
        perm = cls.relations[0].perm
        assert np.array_equal(np.transpose(np.transpose(t, perm), perm), t)


def test_class_projector_matrix_matches_project():
    cls = combine("c", MAJOR, SWAP24_ANTI, SWAP13_ANTI, ZERO_IF_IK_OR_JL)
    p = tensors.class_projector_matrix(cls)
    rng = np.random.default_rng(6)
    t = rng.uniform(-1, 1, (3, 3, 3, 3))
    via_matrix = (p @ t.reshape(81)).reshape(3, 3, 3, 3)
    assert np.allclose(via_matrix, project(t, cls), rtol=0, atol=1e-15)
    assert np.allclose(p @ p, p, atol=1e-14)


def test_orbit_summary_tilde_counts():
    cls = combine("tilde", MAJOR, SWAP24_ANTI, SWAP13_ANTI, ZERO_IF_IK_OR_JL)
    summary = orbit_summary(cls)
    assert summary["forced_zero_entries"] == 45
    assert summary["free_orbits"] == 9


def test_orbit_cache_cannot_be_mutated_by_callers():
    from nullag.micropolar import TILDE_CLASS

    first = orbit_summary(TILDE_CLASS)
    first["forced_zero_entries"] = -1
    first["representatives"].clear()
    again = orbit_summary(TILDE_CLASS)
    assert again["forced_zero_entries"] == 45 and len(again["representatives"]) == 9
    plan = TILDE_CLASS.orbits
    assert plan is TILDE_CLASS.orbits
    for array in plan:
        assert array.shape == (81,)
        with pytest.raises(ValueError):
            array[0] = 2


# The orbit walk, projection, summary, projector matrix and phason closure
# that the per-class orbit plan replaced, kept as oracles.


@functools.cache
def reference_orbits(cls):
    """(members, dead) per orbit, in order of each orbit's smallest index
    tuple: members maps index -> sign relative to that representative, and
    dead marks orbits forced to zero by sign conflicts or zero predicates."""
    orbits = []
    visited = set()
    for start in itertools.product(range(3), repeat=cls.order):
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
        rep_sign = members[min(members)]
        members = {idx: s / rep_sign for idx, s in members.items()}
        visited |= set(members)
        orbits.append((members, dead))
    return tuple(orbits)


def reference_project(t, cls):
    out = np.zeros_like(t, dtype=float)
    for members, dead in reference_orbits(cls):
        if dead:
            continue
        ordered = sorted(members)
        value = sum(members[idx] * float(t[idx]) for idx in ordered) / len(ordered)
        for idx, sign in members.items():
            out[idx] = sign * value
    return out


def reference_orbit_summary(cls):
    forced = 0
    reps = []
    for members, dead in reference_orbits(cls):
        if dead:
            forced += len(members)
        else:
            reps.append(min(members))
    return {"forced_zero_entries": forced, "free_orbits": len(reps), "representatives": reps}


def reference_class_projector_matrix(cls):
    strides = [3 ** (cls.order - 1 - k) for k in range(cls.order)]
    flat = lambda idx: sum(i * s for i, s in zip(idx, strides))
    p = np.zeros((3**cls.order, 3**cls.order))
    for members, dead in reference_orbits(cls):
        if dead:
            continue
        for idx_a, sign_a in members.items():
            for idx_b, sign_b in members.items():
                p[flat(idx_a), flat(idx_b)] = sign_a * sign_b / len(members)
    return p


def reference_phason_closure(seeds):
    cls = quasicrystal.PHASON_NULL_CLASS
    orbit_of = {idx: orbit for orbit in reference_orbits(cls) for idx in orbit[0]}
    e = np.zeros((3, 3, 3, 3))
    assigned = {}
    for start, value in seeds.items():
        if start in cls.zero_indices and value != 0.0:
            raise ValueError(f"entry {start} is structurally zero in the admissible class")
        members, dead = orbit_of[start]
        if dead:
            raise ValueError(f"seed {start} lies on a sign-conflicted orbit; value must be 0")
        for idx, sign in members.items():
            val = sign * members[start] * float(value)
            if idx in assigned and assigned[idx] != val:
                raise ValueError(f"conflicting closure values at entry {idx}")
            assigned[idx] = val
            e[idx] = val
    return e


def same_bits(a, b):
    """Equal dtype, shape and bytes, with any NaN equal to any NaN."""
    nan = np.isnan(a)
    return (a.dtype == b.dtype and a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.where(nan, 0.0, a).tobytes() == np.where(nan, 0.0, b).tobytes())


# Every module-level class, the combined classes of the acceptance tests and
# a class with neither relations nor structural zeros.
ORBIT_CLASSES = {
    **ALL_CLASSES,
    "cn": combine("cn", quasicrystal.PHONON_CLASS, SWAP13_ANTI),
    "dn": combine("dn", MINOR_LEFT, SWAP13_ANTI),
    "cen": combine("cen", em.EM_ELASTIC_CLASS, SWAP13_ANTI),
    "PIEZO_NULL": SymmetryClass(
        "PIEZO_NULL", 3, (IndexRelation((0, 2, 1), 1.0), IndexRelation((2, 1, 0), -1.0))
    ),
    "FREE": SymmetryClass("FREE", 2, ()),
}


@pytest.mark.parametrize("name", sorted(ORBIT_CLASSES))
def test_orbit_plan_consumers_match_the_orbit_walk(name):
    cls = ORBIT_CLASSES[name]
    rng = np.random.default_rng([sorted(ORBIT_CLASSES).index(name), 20])
    shape = (3,) * cls.order
    decades = [rng.standard_normal(shape) * 10.0 ** rng.integers(-5, 5, shape) for _ in range(10)]
    infinite = rng.choice([-np.inf, np.inf, 1.0], shape)  # orbit sums of inf - inf are NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for t in oracle_tensors(cls, rng) + decades + [infinite]:
            assert same_bits(project(t, cls), reference_project(t, cls))
    assert repr(orbit_summary(cls)) == repr(reference_orbit_summary(cls))
    assert class_projector_matrix(cls).tobytes() == reference_class_projector_matrix(cls).tobytes()


def acceptance_phason_seeds():
    """The seed dictionaries of acceptance criterion 8, drawn in its order."""
    rng = np.random.default_rng(108)
    reps = [idx for idx in itertools.product(range(3), repeat=4) if idx[0] < idx[2] and idx[1] < idx[3]]
    for _ in range(20):
        chosen = rng.choice(len(reps), 3, replace=False)
        yield {reps[int(i)]: float(rng.uniform(-1, 1)) for i in chosen}
        random_polyfield(rng, 3, 3)
        random_polyfield(rng, 3, 3)
        rng.uniform(0, 1, (3, 3))


def test_phason_closure_matches_the_orbit_walk():
    cases = list(acceptance_phason_seeds())
    cases += [{(0, 1, 1, 2): 1.0}, {(0, 1, 1, 2): 1.0, (1, 2, 0, 1): 1.0},
              {(0, 1, 1, 2): 0.25, (0, 1, 1, 0): -3.0, (2, 0, 1, 2): 1e308}]
    for seeds in cases:
        e = quasicrystal.admissible_phason_modulus(seeds)
        assert e.tobytes() == reference_phason_closure(seeds).tobytes()


def test_phason_forced_zero_orbits_are_its_structural_zeros():
    cls = quasicrystal.PHASON_NULL_CLASS
    zeros = np.zeros((3, 3, 3, 3), dtype=bool)
    zeros[tuple(np.array(sorted(cls.zero_indices)).T)] = True
    assert np.array_equal(cls.orbits[2], zeros.reshape(-1))


@pytest.mark.parametrize("shape", [(4, 4, 4, 4), (2, 2, 2, 2), (3, 3, 3), (9, 9), (81,)])
@pytest.mark.parametrize("check", [project, check_symmetry])
def test_class_functions_require_the_class_shape(check, shape):
    with pytest.raises(ValueError, match=re.escape(f"shape {shape} does not match class MAJOR")):
        check(np.ones(shape), MAJOR)


def test_nullspace_projector_properties():
    rng = np.random.default_rng(11)
    rows = rng.uniform(-1, 1, (5, 12))
    p = nullspace_projector(rows, 12)
    assert np.allclose(p, p.T, atol=1e-13)
    assert np.allclose(p @ p, p, atol=1e-12)
    x = rng.uniform(-1, 1, 12)
    assert np.max(np.abs(rows @ (p @ x))) <= 1e-12


def test_json_round_trip_bit_exact():
    rng = np.random.default_rng(5)
    for order, shape in ((2, (3, 3)), (3, (3, 3, 3)), (4, (3, 3, 3, 3))):
        t = rng.uniform(-1, 1, shape)
        encoded = json.loads(json.dumps(tensor_to_json(t)))
        back = tensor_from_json(encoded)
        assert back.shape == shape
        assert np.array_equal(back, t)


@pytest.mark.parametrize("t, message", [
    (np.zeros((2, 2)), "shape"),
    (np.zeros((3, 9)), "shape"),
    (np.zeros((9, 3, 3)), "shape"),
    (np.zeros(3), "order 1"),
    (np.zeros((3,) * 5), "order 5"),
    (np.full((3, 3), np.nan), "finite"),
    (np.pad(np.full((1, 1, 1, 1), np.inf), ((0, 2),) * 4), "finite"),
    (np.full((3, 3, 3), -np.inf), "finite"),
], ids=["2x2", "3x9", "9x3x3", "order-1", "order-5", "nan", "one-inf", "minus-inf"])
def test_json_encoder_rejects_what_the_decoder_rejects(t, message):
    """`tensor_to_json` writes only what `tensor_from_json` reads back: a
    (3,) * order tensor of order 2, 3 or 4 with finite entries."""
    with pytest.raises(ValueError, match=message):
        tensor_to_json(t)


def test_json_strict_validation():
    with pytest.raises(ValueError, match="81"):
        tensor_from_json({"order": 4, "data": [0.0] * 80})
    with pytest.raises(ValueError):
        tensor_from_json({"order": 4, "data": [0.0] * 81, "extra": 1})
    with pytest.raises(ValueError):
        tensor_from_json({"order": 5, "data": [0.0] * 81})


@pytest.mark.parametrize("obj", [
    {"order": 2, "data": [True] + [0.0] * 8},
    {"order": 2, "data": ["1"] + [0.0] * 8},
    {"order": 2, "data": [[0.0]] * 9},
    {"order": 2.0, "data": [0.0] * 9},
    [["order", 2], ["data", [0.0] * 9]],
    {"order": [2], "data": [0.0] * 9},
    {"order": 2, "data": 0},
    {"order": 2, "data": [10**400] + [0.0] * 8},
], ids=["bool-entry", "string-entry", "nested-data", "float-order", "list-object", "list-order",
        "int-data", "huge-int-entry"])
def test_json_takes_numbers_by_the_model_file_rule(obj):
    """Exact int or float entries within the double range, an int order and
    a JSON object: anything else is one ValueError, never a coercion."""
    with pytest.raises(ValueError):
        tensor_from_json(obj)


#: The constructor message of every moduli field with a symmetry condition,
#: for a tensor whose one nonzero entry, 1, has zero partners.
MODULI_MESSAGES = [
    (micropolar.MicropolarModuli, "a", "modulus a violates major symmetry by 1.000e+00"),
    (micropolar.MicropolarModuli, "b", "modulus b violates major symmetry by 1.000e+00"),
    (quasicrystal.QcModuli, "c", "phonon modulus violates its symmetries by 1.000e+00"),
    (quasicrystal.QcModuli, "d", "coupling modulus violates left minor symmetry by 1.000e+00"),
    (quasicrystal.QcModuli, "e", "phason modulus violates major symmetry by 1.000e+00"),
    (em.EmModuli, "c", "elastic modulus violates its symmetries by 1.000e+00"),
    (em.EmModuli, "p", "piezoelectric coupling must be symmetric in its trailing pair (1.000e+00)"),
    (em.EmModuli, "q", "piezomagnetic coupling must be symmetric in its trailing pair (1.000e+00)"),
    (em.EmModuli, "ediel", "dielectric matrix must be symmetric (1.000e+00)"),
    (em.EmModuli, "bperm", "permeability matrix must be symmetric (1.000e+00)"),
    (em.EmModuli, "acpl", "coupling matrix must be symmetric (1.000e+00)"),
]


@pytest.mark.parametrize("moduli, name, message", MODULI_MESSAGES,
                         ids=[f"{m.__name__}.{name}" for m, name, _ in MODULI_MESSAGES])
def test_moduli_name_the_violated_symmetry(moduli, name, message):
    bad = np.zeros(getattr(moduli.zero(), name).shape)
    bad[(0, 1, 2, 0)[:bad.ndim]] = 1.0
    with pytest.raises(ValueError) as info:
        dataclasses.replace(moduli.zero(), **{name: bad})
    assert str(info.value) == message


def test_moduli_report_a_non_finite_entry_before_any_asymmetry():
    bad_a = np.zeros((3, 3, 3, 3))
    bad_a[0, 1, 2, 0] = 1.0
    with pytest.raises(ValueError, match="^field 'd': tensor entries must be finite$"):
        micropolar.MicropolarModuli(bad_a, np.zeros((3, 3, 3, 3)), np.full((3, 3, 3, 3), np.nan))


def test_moduli_name_the_field_of_a_wrong_size():
    with pytest.raises(ValueError, match=r"^field 'q': expected 27 components for an order-3 tensor, got shape"):
        dataclasses.replace(em.EmModuli.zero(), q=np.zeros(26))


@pytest.mark.parametrize("moduli", [micropolar.MicropolarModuli, quasicrystal.QcModuli, em.EmModuli],
                         ids=lambda m: m.__name__)
def test_moduli_declare_each_field_once(moduli):
    """`FIELDS` lists the dataclass fields in order; `zero()` gives
    read-only zeros of each declared order."""
    assert list(moduli.FIELDS) == [f.name for f in dataclasses.fields(moduli)]
    zero = moduli.zero()
    for name, (cls, _) in moduli.FIELDS.items():
        value = getattr(zero, name)
        assert value.shape == (3,) * cls.order
        assert not value.flags.writeable and not value.any()


def test_validators_reject_nonfinite():
    bad = np.zeros((3, 3))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError, match="finite"):
        as_matrix3(bad)
    with pytest.raises(ValueError):
        as_tensor4(np.full((3, 3, 3, 3), np.inf))


def test_validators_freeze_arrays():
    m = as_matrix3(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        m[0, 0] = 1.0
