import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nullag.micropolar import CurlFreeRotationSampler
from nullag.polyfield import (
    Poly3,
    PolyField,
    bubble,
    bubble_damped,
    constant_field,
    field_states,
    gradient_field,
    monomials_upto,
    random_polyfield,
    random_scalar_poly,
    stack_fields,
)
from nullag.quadrature import cube_rule, face_rules, gauss_points_01, required_order


def test_diff_is_exact():
    p = Poly3({(3, 1, 0): 2.0, (0, 0, 2): -1.0})
    dx = p.diff(0)
    assert dx.terms == {(2, 1, 0): 6.0}
    assert p.diff(2).terms == {(0, 0, 1): -2.0}
    assert p.degree() == 4
    assert dx.degree() == 3


def test_eval_matches_direct():
    p = Poly3({(2, 0, 0): 1.5, (0, 1, 1): -0.5, (0, 0, 0): 2.0})
    pts = np.array([[0.1, 0.2, 0.3], [1.0, -1.0, 2.0]])
    direct = 1.5 * pts[:, 0] ** 2 - 0.5 * pts[:, 1] * pts[:, 2] + 2.0
    assert np.allclose(p.eval(pts), direct, rtol=0, atol=1e-15)
    assert p.eval(pts[0]) == pytest.approx(direct[0], abs=1e-15)


def test_product_and_bubble():
    b = bubble()
    assert b.degree() == 6
    assert bubble() is b  # built once
    product = Poly3.constant(1.0)
    for axis in range(3):
        x = Poly3.variable(axis)
        product = product * (x - x * x)
    assert product.terms == b.terms
    assert b.eval(np.array([0.5, 0.5, 0.5])) == pytest.approx(0.25**3, abs=1e-16)
    # vanishes on all six faces (expanded monomial cancellation ~1e-19)
    rng = np.random.default_rng(0)
    for axis in range(3):
        for value in (0.0, 1.0):
            pt = rng.uniform(0, 1, 3)
            pt[axis] = value
            assert abs(b.eval(pt)) <= 1e-16


def test_hessian_exactly_symmetric():
    rng = np.random.default_rng(1)
    f = random_polyfield(rng, 4, 4)
    pts = rng.uniform(0, 1, (5, 3))
    h = f.eval_hess(pts)
    assert np.array_equal(h, np.transpose(h, (0, 1, 3, 2)))


def test_gradient_field_is_curl_free():
    rng = np.random.default_rng(2)
    chi = random_scalar_poly(rng, 4)
    phi = gradient_field(chi)
    pts = rng.uniform(0, 1, (7, 3))
    grad = phi.eval_grad(pts)  # grad[m, i, j] = d phi_i / dx_j = chi_{,ij}
    assert np.max(np.abs(grad - np.transpose(grad, (0, 2, 1)))) <= 1e-12


def test_field_arithmetic():
    f = constant_field([1.0, 2.0])
    g = PolyField([Poly3.variable(0), Poly3.variable(1)])
    s = f + g.scale(2.0)
    vals = s.eval(np.array([[0.5, 0.25, 0.0]]))
    assert np.allclose(vals, [[2.0, 2.5]], rtol=0, atol=1e-15)


def cross_check_fields():
    """Fields whose tables are dense, sparse, empty, mixed or derived."""
    rng = np.random.default_rng(3)
    fields = [random_polyfield(rng, 3, d) for d in range(6)]
    fields.append(PolyField.zero(4))
    fields.append(PolyField([random_scalar_poly(rng, d) for d in (0, 2, 5)] + [Poly3()]))
    fields.append(gradient_field(random_scalar_poly(rng, 4)))
    b = bubble()
    fields.append(PolyField([b * c for c in random_polyfield(rng, 3, 1).components]))
    fields.append(fields[3] + fields[-1].scale(-0.5))
    return fields


def reference_state(field, pts):
    """Values, gradients and Hessians component by component via Poly3.diff,
    and the sum of absolute term values that bounds their roundoff."""
    def absolute(p):
        return Poly3({e: abs(c) for e, c in p.terms.items()})

    partials = lambda c: (c, [c.diff(a) for a in range(3)],
                          [[c.diff(a).diff(b) for b in range(3)] for a in range(3)])
    states = []
    for transform in (lambda p: p, absolute):
        v, g, h = zip(*(partials(c) for c in field.components))
        ev = lambda p: transform(p).eval(pts)
        states.append((
            np.stack([ev(c) for c in v], axis=1),
            np.stack([np.stack([ev(d) for d in row], axis=1) for row in g], axis=1),
            np.stack([np.stack([np.stack([ev(d) for d in r], axis=1) for r in m], axis=1)
                      for m in h], axis=1),
        ))
    return states


def test_field_state_matches_per_component_reference():
    pts = np.random.default_rng(4).uniform(0, 1, (40, 3))
    for field in cross_check_fields():
        got = (field.eval(pts), field.eval_grad(pts), field.eval_hess(pts))
        (ref, size) = reference_state(field, pts)
        for g, r, s in zip(got, ref, size):
            assert g.shape == r.shape
            # 1e-15 per unit of term magnitude: summation order is free,
            # and values reach ~60 (degree-5 Hessians) with ulp ~7e-15.
            assert np.all(np.abs(g - r) <= 1e-15 * (1.0 + s))
        h = got[2]
        assert np.array_equal(h, np.transpose(h, (0, 1, 3, 2)))
        assert field.degree() == max(c.degree() for c in field.components)


def assert_states_match_per_field(fields, pts):
    values, grads, hessians = field_states(fields, pts)
    assert values.shape == pts.shape[:2] + (fields[0].n,)
    for i, field in enumerate(fields):
        assert np.array_equal(values[i], field.eval(pts[i]))
        assert np.array_equal(grads[i], field.eval_grad(pts[i]))
        assert np.array_equal(hessians[i], field.eval_hess(pts[i]))


@pytest.mark.parametrize("degree", range(6))
def test_field_states_equal_per_field_eval_dense(degree):
    rng = np.random.default_rng(degree)
    fields = [random_polyfield(rng, 3, degree) for _ in range(5)]
    assert stack_fields(fields)[0] is stack_fields(fields[:1])[0]  # one shared table
    assert_states_match_per_field(fields, rng.uniform(0, 1, (5, 3, 3)))


def test_field_states_equal_per_field_eval_zero_and_single():
    rng = np.random.default_rng(8)
    assert_states_match_per_field([PolyField.zero(2)], rng.uniform(0, 1, (1, 4, 3)))
    assert_states_match_per_field([random_polyfield(rng, 2, 3), PolyField.zero(2)], rng.uniform(0, 1, (2, 3, 3)))
    assert_states_match_per_field([random_polyfield(rng, 4, 2)], rng.uniform(0, 1, (1, 1, 3)))


def test_field_states_equal_per_field_eval_mixed_tables():
    rng = np.random.default_rng(9)
    sampler = CurlFreeRotationSampler()
    fields = [sampler.field(rng, 3), sampler.field(rng, 2),
              sampler.field(rng, 3) + sampler.boundary_delta(rng, 3), sampler.boundary_delta(rng, 2)]
    assert len({f._matrix()[0] for f in fields}) > 1
    assert_states_match_per_field(fields, rng.uniform(0, 1, (4, 3, 3)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 4),
    points=st.integers(1, 4),
    degrees=st.lists(st.integers(0, 5), min_size=1, max_size=5),
    shared=st.booleans(),
    damped=st.lists(st.booleans(), min_size=5, max_size=5),
    seed=st.integers(0, 2**32 - 1),
)
def test_field_states_property(n, points, degrees, shared, damped, seed):
    """Shared tables (one dense degree) and mixed tables (several degrees,
    some fields bubble-perturbed) both equal per-field evaluation."""
    rng = np.random.default_rng(seed)
    fields = [random_polyfield(rng, n, degrees[0] if shared else d) for d in degrees]
    if not shared:
        fields = [f + bubble_damped(random_polyfield(rng, n, 1)) if bump else f
                  for f, bump in zip(fields, damped)]
    assert_states_match_per_field(fields, rng.uniform(0, 1, (len(fields), points, 3)))


def test_stack_fields_union_table():
    rng = np.random.default_rng(10)
    fields = [random_polyfield(rng, 2, 1), random_polyfield(rng, 2, 3)]
    table, coeffs = stack_fields(fields)
    assert table.keys == tuple(sorted(monomials_upto(3, 3)))
    pts = rng.uniform(0, 1, (6, 3))
    for field, c in zip(fields, coeffs):
        assert np.allclose(PolyField._from_matrix(table, c).eval(pts), field.eval(pts), rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="component count"):
        stack_fields([random_polyfield(rng, 2, 1), random_polyfield(rng, 3, 1)])


def poly3_damped(w):
    b = bubble()
    return PolyField([b * c for c in w.components])


@pytest.mark.parametrize("fields", [
    *([random_polyfield(np.random.default_rng(seed), 6, d) for seed in range(4)] for d in range(3)),
    [PolyField([random_scalar_poly(np.random.default_rng(11), 1), Poly3(), Poly3.variable(2)])],
    [PolyField.zero(2)],
], ids=["degree0", "degree1", "degree2", "zero-component", "zero"])
def test_bubble_damped_equals_poly3_product(fields):
    for w in fields:
        (got_table, got), (ref_table, ref) = bubble_damped(w)._matrix(), poly3_damped(w)._matrix()
        assert got_table.keys == ref_table.keys
        assert np.array_equal(got, ref)


def test_random_polyfield_draws_like_scalar_polys():
    for degree in range(5):
        field = random_polyfield(np.random.default_rng(degree), 4, degree)
        rng = np.random.default_rng(degree)
        scalar = [random_scalar_poly(rng, degree) for _ in range(4)]
        assert [c.terms for c in field.components] == [c.terms for c in scalar]
        assert field.degree() == degree


def test_monomials_upto_graded_order():
    assert list(monomials_upto(3, 4)) == [
        (e1, e2, t - e1 - e2) for t in range(5) for e1 in range(t + 1) for e2 in range(t - e1 + 1)
    ]
    for nvars, degree in ((3, 4), (5, 2), (1, 3)):
        expos = list(monomials_upto(nvars, degree))
        assert len(set(expos)) == len(expos)
        assert [sum(e) for e in expos] == sorted(sum(e) for e in expos)
        assert max(sum(e) for e in expos) == degree


def test_quadrature_monomial_exactness():
    # int_0^1 x^a dx = 1/(a+1); tensor products separate
    for order in (2, 4, 8):
        pts, wts = cube_rule(order)
        for a in range(2 * order):
            for b in (0, 1):
                exact = 1.0 / (a + 1) / (b + 1)
                approx = float((pts[:, 0] ** a * pts[:, 1] ** b) @ wts)
                assert abs(approx - exact) <= 1e-14 * max(1.0, abs(exact))


def test_gauss_points_raise_on_bad_order():
    with pytest.raises(ValueError):
        gauss_points_01(0)


def test_face_rules_measure_and_normals():
    faces = face_rules(3)
    assert len(faces) == 6
    normal_sum = np.zeros(3)
    for pts, wts, normal in faces:
        assert float(np.sum(wts)) == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(normal) == 1.0
        normal_sum += normal
        axis = int(np.argmax(np.abs(normal)))
        assert np.all((pts[:, axis] == 0.0) | (pts[:, axis] == 1.0))
    assert np.array_equal(normal_sum, np.zeros(3))


def test_required_order():
    assert required_order(0) == 1
    assert required_order(1) == 1
    assert required_order(2) == 2
    assert required_order(15) == 8
    assert required_order(16) == 9
