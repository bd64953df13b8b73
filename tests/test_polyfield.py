import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nullag.micropolar import CurlFreeRotationSampler
from nullag.polyfield import (
    PolyField,
    bubble,
    bubble_damped,
    constant_field,
    field_states,
    join,
    monomials_upto,
    random_polyfield,
    stack_fields,
)
from nullag.quadrature import cube_rule, face_rules, gauss_points_01, required_order

X = sp.symbols("x1:4")


def sympy_components(field):
    """The field's components as exact sympy polynomials."""
    return [sp.Poly.from_dict({e: sp.Rational(c) for e, c in terms.items()}, X) for terms in field.terms]


def sympy_terms(polys):
    """Float term dicts of sympy polynomials, as `PolyField.terms` gives them."""
    return [{e: float(c) for e, c in p.as_dict().items()} for p in polys]


def dyadic_field(rng, n, degree, density=1.0):
    """Coefficients k / 8 with |k| <= 8 on a random subset of the monomials:
    products with the bubble and sums of a few such terms are exact floats."""
    return PolyField([{e: int(rng.integers(-8, 9)) / 8 for e in monomials_upto(3, degree) if rng.uniform() < density}
                      for _ in range(n)])


def test_diff_is_exact():
    p = PolyField([{(3, 1, 0): 2.0, (0, 0, 2): -1.0}])
    d = p.diff()
    assert d.terms == [{(2, 1, 0): 6.0}, {(3, 0, 0): 2.0}, {(0, 0, 1): -2.0}]
    assert p.degree() == 4
    assert d.degree() == 3


def test_eval_matches_direct():
    p = PolyField([{(2, 0, 0): 1.5, (0, 1, 1): -0.5, (0, 0, 0): 2.0}])
    pts = np.array([[0.1, 0.2, 0.3], [1.0, -1.0, 2.0]])
    direct = 1.5 * pts[:, 0] ** 2 - 0.5 * pts[:, 1] * pts[:, 2] + 2.0
    assert np.allclose(p.eval(pts)[:, 0], direct, rtol=0, atol=1e-15)
    assert p.eval(pts[0])[0, 0] == pytest.approx(direct[0], abs=1e-15)


def test_product_and_bubble():
    b = bubble()
    assert b.n == 1 and b.degree() == 6
    assert bubble() is b  # built once
    product = constant_field([1.0])
    for axis in range(3):
        x = [0, 0, 0]
        x[axis] = 1
        x2 = [0, 0, 0]
        x2[axis] = 2
        product = product * PolyField([{tuple(x): 1.0, tuple(x2): -1.0}])
    assert product.terms == b.terms
    assert b.eval(np.array([0.5, 0.5, 0.5]))[0, 0] == pytest.approx(0.25**3, abs=1e-16)
    # vanishes on all six faces (expanded monomial cancellation ~1e-19)
    rng = np.random.default_rng(0)
    for axis in range(3):
        for value in (0.0, 1.0):
            pt = rng.uniform(0, 1, 3)
            pt[axis] = value
            assert abs(b.eval(pt)[0, 0]) <= 1e-16


def test_hessian_exactly_symmetric():
    rng = np.random.default_rng(1)
    f = random_polyfield(rng, 4, 4)
    pts = rng.uniform(0, 1, (5, 3))
    h = f.eval_hess(pts)
    assert np.array_equal(h, np.transpose(h, (0, 1, 3, 2)))


def test_gradient_field_is_curl_free():
    rng = np.random.default_rng(2)
    chi = random_polyfield(rng, 1, 4)
    phi = chi.diff()
    pts = rng.uniform(0, 1, (7, 3))
    grad = phi.eval_grad(pts)  # grad[m, i, j] = d phi_i / dx_j = chi_{,ij}
    assert np.max(np.abs(grad - np.transpose(grad, (0, 2, 1)))) <= 1e-12


def test_field_arithmetic():
    f = constant_field([1.0, 2.0])
    g = PolyField([{(1, 0, 0): 1.0}, {(0, 1, 0): 1.0}])
    s = f + g.map(2.0 * np.eye(2))
    vals = s.eval(np.array([[0.5, 0.25, 0.0]]))
    assert np.allclose(vals, [[2.0, 2.5]], rtol=0, atol=1e-15)
    with pytest.raises(ValueError, match="one component"):
        g * f


def test_diff_product_and_join_match_sympy_on_mixed_tables():
    """Sparse dyadic fields over different tables: every float operation is
    exact, so `diff`, `*` and `join` must equal sympy's terms exactly."""
    rng = np.random.default_rng(12)
    a = dyadic_field(rng, 1, 3, density=0.5)
    b = dyadic_field(rng, 2, 2, density=0.6)
    c = PolyField([{(0, 4, 1): 0.5}, {}, {(2, 0, 0): -0.25, (0, 0, 0): 1.0}])
    pa, pb, pc = sympy_components(a), sympy_components(b), sympy_components(c)
    assert len({a._table, b._table, c._table}) == 3

    joined = join(a, b, c)
    assert joined.terms == a.terms + b.terms + c.terms
    assert joined._table.keys == tuple(sorted(set().union(*(f._table.keys for f in (a, b, c)))))

    for left, right, pl, pr in ((a, b, pa, pb), (a, joined, pa, pa + pb + pc)):
        assert (left * right).terms == sympy_terms([pl[0] * p for p in pr])

    for field, polys in ((b, pb), (joined, pa + pb + pc), (a * c, [pa[0] * p for p in pc])):
        assert field.diff().terms == sympy_terms([p.diff(x) for p in polys for x in X])


def cross_check_fields():
    """Fields whose tables are dense, sparse, empty, mixed or derived."""
    rng = np.random.default_rng(3)
    fields = [random_polyfield(rng, 3, d) for d in range(6)]
    fields.append(PolyField.zero(4))
    fields.append(join(*(random_polyfield(rng, 1, d) for d in (0, 2, 5)), PolyField.zero(1)))
    fields.append(random_polyfield(rng, 1, 4).diff())
    fields.append(bubble() * random_polyfield(rng, 3, 1))
    fields.append(fields[3] + fields[-1].map(-0.5 * np.eye(3)))
    return fields


def evaluate_terms(poly, pts, transform):
    """Sum of transform(coeff) * x ** e over the terms of a sympy
    polynomial, by direct powers."""
    out = np.zeros(len(pts))
    for expo, coeff in poly.terms():
        out += transform(float(coeff)) * np.prod(pts ** np.array(expo), axis=1)
    return out


def reference_state(field, pts):
    """Values, gradients and Hessians component by component from sympy's
    exact derivatives, and the sum of absolute term values that bounds their
    roundoff."""
    comps = sympy_components(field)
    grads = [[p.diff(a) for a in X] for p in comps]
    hessians = [[[d.diff(b) for b in X] for d in row] for row in grads]
    states = []
    for transform in (lambda c: c, abs):
        ev = lambda p: evaluate_terms(p, pts, transform)
        states.append((
            np.stack([ev(p) for p in comps], axis=1),
            np.stack([np.stack([ev(d) for d in row], axis=1) for row in grads], axis=1),
            np.stack([np.stack([np.stack([ev(d) for d in r], axis=1) for r in m], axis=1)
                      for m in hessians], axis=1),
        ))
    return states, max(p.total_degree() for p in comps)


def test_field_state_matches_per_component_reference():
    pts = np.random.default_rng(4).uniform(0, 1, (40, 3))
    for field in cross_check_fields():
        got = (field.eval(pts), field.eval_grad(pts), field.eval_hess(pts))
        (ref, size), degree = reference_state(field, pts)
        for g, r, s in zip(got, ref, size):
            assert g.shape == r.shape
            # 1e-15 per unit of term magnitude: summation order is free,
            # and values reach ~60 (degree-5 Hessians) with ulp ~7e-15.
            assert np.all(np.abs(g - r) <= 1e-15 * (1.0 + s))
        h = got[2]
        assert np.array_equal(h, np.transpose(h, (0, 1, 3, 2)))
        assert field.degree() == degree


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
    assert len({f._table for f in fields}) > 1
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


@pytest.mark.parametrize("fields", [
    *([dyadic_field(np.random.default_rng(seed), 6, d, density=0.7) for seed in range(4)] for d in range(3)),
    [PolyField([{e: k / 4 for k, e in enumerate(monomials_upto(3, 1), 1)}, {}, {(0, 0, 1): 1.0}])],
    [PolyField.zero(2)],
], ids=["degree0", "degree1", "degree2", "zero-component", "zero"])
def test_bubble_damped_equals_poly3_product(fields):
    """The bubble times each component, against sympy's expansion; dyadic
    coefficients make every float product and sum exact."""
    bub = sympy_components(bubble())[0]
    for w in fields:
        expected = sympy_terms([bub * p for p in sympy_components(w)])
        for damped in (bubble() * w, bubble_damped(w)):
            assert damped.terms == expected
            assert damped._table.keys == tuple(sorted(set().union(*expected)))


def test_random_polyfield_draws_like_scalar_polys():
    """Component by component, in the graded order of `monomials_upto`, one
    `rng.uniform` draw per monomial."""
    for degree in range(5):
        field = random_polyfield(np.random.default_rng(degree), 4, degree)
        rng = np.random.default_rng(degree)
        expected = [{e: rng.uniform(-1.0, 1.0) for e in monomials_upto(3, degree)} for _ in range(4)]
        assert field.terms == expected
        assert field.degree() == degree
        # Row-major, as every other coefficient matrix: evaluation rounds by layout.
        assert field._coeffs.flags.c_contiguous


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
