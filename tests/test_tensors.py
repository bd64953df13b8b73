import itertools
import json

import numpy as np
import pytest

from nullag import em, micropolar, quasicrystal, tensors
from nullag.tensors import (
    MAJOR,
    MINOR_LEFT,
    SWAP13_ANTI,
    SWAP24_ANTI,
    ZERO_IF_IK_OR_JL,
    apply4,
    as_matrix3,
    as_tensor4,
    check_symmetry,
    combine,
    invariants2,
    levi_civita,
    major_transpose,
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


def test_apply4_identity_pairing():
    t = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))
    m = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(apply4(t, m), m)


def test_apply4_transposer():
    t = np.einsum("il,jk->ijkl", np.eye(3), np.eye(3))
    m = np.arange(9.0).reshape(3, 3)
    assert np.array_equal(apply4(t, m), m.T)


def test_apply4_trace_pairing():
    # hand contraction: T_ijkl = d_ij d_kl acting on I gives d_ij * I_kk = 3 I
    t = np.einsum("ij,kl->ijkl", np.eye(3), np.eye(3))
    expected = np.zeros((3, 3))
    m = np.eye(3)
    for i, j in itertools.product(range(3), repeat=2):
        for k, l in itertools.product(range(3), repeat=2):
            expected[i, j] += t[i, j, k, l] * m[k, l]
    assert np.array_equal(apply4(t, m), expected)
    assert np.array_equal(expected, 3.0 * np.eye(3))


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
        lhs = float(np.einsum("ij,ij->", m, apply4(t, n)))
        rhs = float(np.einsum("ij,ij->", n, apply4(major_transpose(t), m)))
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
    orbits = tensors._orbits(TILDE_CLASS)
    assert orbits is tensors._orbits(TILDE_CLASS)
    with pytest.raises(TypeError):
        orbits[0][0][(0, 0, 0, 0)] = 2.0


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


def test_json_strict_validation():
    with pytest.raises(ValueError, match="81"):
        tensor_from_json({"order": 4, "data": [0.0] * 80})
    with pytest.raises(ValueError):
        tensor_from_json({"order": 4, "data": [0.0] * 81, "extra": 1})
    with pytest.raises(ValueError):
        tensor_from_json({"order": 5, "data": [0.0] * 81})


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
