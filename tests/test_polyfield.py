import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from nullag import polyfield
from nullag.micropolar import CurlFreeRotationSampler
from nullag.polyfield import (
    PolyField,
    _monomials,
    bubble,
    bubble_damped,
    constant_field,
    evaluate_monomials,
    evaluate_on_rule,
    field_states,
    join,
    monomial_plan,
    monomials_upto,
    random_polyfield,
    stack_fields,
)
from nullag.quadrature import boundary_rule, cube_rule, face_rules, gauss_points_01, required_order

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


@pytest.mark.parametrize("levels", [(2,), (0, 2), (1, 2)])
def test_hessian_only_states_keep_bits_and_layout(levels):
    """The residual contractions sum in an order that follows the Hessians'
    layout, so a call that skips values or gradients must give the same
    array in the same strides, on dense and bubble-damped tables alike."""
    rng = np.random.default_rng(10)
    fields = [random_polyfield(rng, 3, 3), bubble_damped(random_polyfield(rng, 3, 1)),
              random_polyfield(rng, 3, 3) + bubble_damped(random_polyfield(rng, 3, 1)), random_polyfield(rng, 3, 2)]
    assert len({f._table for f in fields}) == 4
    pts = rng.uniform(0, 1, (4, 5, 3))
    full = field_states(fields, pts)
    part = field_states(fields, pts, levels)
    for level in range(3):
        if level not in levels:
            assert part[level] is None
            continue
        assert_same_bits(part[level], full[level])
        assert part[level].strides == full[level].strides
        assert part[level].flags.c_contiguous == full[level].flags.c_contiguous


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


def reference_monomials(points, expos):
    """The per-variable power tables that the monomial plans replaced: every
    term takes a power of every variable in use, 1.0 for exponent 0."""
    mono = np.ones((points.shape[0], expos.shape[0]))
    for v in range(expos.shape[1]):
        col = expos[:, v]
        max_e = int(col.max(initial=0))
        if max_e == 0:
            continue
        powers = np.empty((points.shape[0], max_e + 1))
        powers[:, 0] = 1.0
        for e in range(1, max_e + 1):
            powers[:, e] = powers[:, e - 1] * points[:, v]
        mono *= powers[:, col]
    return mono


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


EXPONENT_TABLES = st.integers(1, 9).flatmap(
    lambda nvars: st.lists(st.lists(st.integers(0, 12), min_size=nvars, max_size=nvars), max_size=12)
    .map(lambda rows: np.array(rows, dtype=np.int64).reshape(-1, nvars)))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(expos=EXPONENT_TABLES, m=st.sampled_from([0, 1, 2048, 2049]), seed=st.integers(0, 2**32 - 1))
def test_monomial_plan_matches_per_variable_powers(expos, m, seed):
    """Products of only each term's own factors equal the per-variable power
    table bit for bit, signed zeros and underflow included, as a C-contiguous
    (m, T) matrix; `evaluate_monomials` keeps its 2048-row blocks."""
    rng = np.random.default_rng(seed)
    shape = (m, expos.shape[1])
    special = rng.choice([0.0, -0.0, 1.0, -1.0, 1e-30, -1e-30], shape)
    points = np.where(rng.uniform(size=shape) < 0.3, special, rng.uniform(-2.0, 2.0, shape))
    plan = monomial_plan(expos)
    mono = _monomials(points, plan)
    assert mono.flags.c_contiguous
    assert_same_bits(mono, reference_monomials(points, expos))
    coeffs = rng.uniform(-1.0, 1.0, (len(expos), 3))
    blocks = [reference_monomials(points[i:i + 2048], expos) @ coeffs for i in range(0, m, 2048)]
    assert_same_bits(evaluate_monomials(points, plan, coeffs), np.concatenate(blocks or [np.zeros((0, 3))]))


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


def per_left_term_product(left, w):
    """Keys and coefficients of `left * w` summed one fancy-index scatter per
    term of `left`, in its table order, then trimmed to nonzero columns."""
    table, columns = polyfield._product(left._table, w._table)
    coeffs = np.zeros((w.n, len(table)))
    for factor, cols in zip(left._coeffs[0], columns):
        coeffs[:, cols] += factor * w._coeffs
    used = np.any(coeffs != 0.0, axis=0)
    return tuple(e for e, u in zip(table.keys, used.tolist()) if u), coeffs[:, used]


def assert_product_matches_per_term(left, w):
    keys, coeffs = per_left_term_product(left, w)
    product = left * w
    assert product._table.keys == keys
    assert product._coeffs.shape == coeffs.shape
    assert product._coeffs.tobytes() == coeffs.tobytes()
    return product


@pytest.mark.parametrize("degree", [0, 1, 2, 3])
def test_product_keeps_per_term_bits(degree):
    """The single scatter of all term products adds them in the order of the
    per-term loop: the bubble and a random one-component field times fields
    of degree 0-3 keep its keys and coefficient bytes."""
    rng = np.random.default_rng(100 + degree)
    for n in (1, 3, 6):
        w = random_polyfield(rng, n, degree)
        for left in (bubble(), random_polyfield(rng, 1, 3), random_polyfield(rng, 1, 0)):
            assert_product_matches_per_term(left, w)


def test_product_of_zero_field_and_cancellation():
    """A zero right factor gives a zero field over an empty table; a product
    whose terms cancel exactly drops them from its table."""
    for left in (bubble(), random_polyfield(np.random.default_rng(3), 1, 2)):
        zero = assert_product_matches_per_term(left, PolyField.zero(2))
        assert zero.n == 2 and len(zero._table) == 0
    left = PolyField([{(1, 0, 0): 1.0, (0, 1, 0): -1.0}])  # x - y
    w = PolyField([{(1, 0, 0): 1.0, (0, 1, 0): 1.0}, {(1, 0, 0): 0.5, (0, 1, 0): 0.5}])
    square = assert_product_matches_per_term(left, w)
    assert square._table.keys == ((0, 2, 0), (2, 0, 0))  # the xy terms cancel
    assert square.terms == [{(0, 2, 0): -1.0, (2, 0, 0): 1.0}, {(0, 2, 0): -0.5, (2, 0, 0): 0.5}]


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    n=st.integers(1, 4),
    left_degree=st.integers(0, 3),
    degree=st.integers(0, 3),
    density=st.sampled_from([0.3, 0.7, 1.0]),
    use_bubble=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_product_property(n, left_degree, degree, density, use_bubble, seed):
    """Sparse dyadic factors, whose products cancel to exact zeros, and dense
    random ones keep the per-term keys and bytes."""
    rng = np.random.default_rng(seed)
    left = bubble() if use_bubble else dyadic_field(rng, 1, left_degree, density)
    assert_product_matches_per_term(left, dyadic_field(rng, n, degree, density))
    assert_product_matches_per_term(random_polyfield(rng, 1, left_degree), random_polyfield(rng, n, degree))


def test_axis_degree_is_kept_and_coefficients_are_read_only():
    rng = np.random.default_rng(5)
    y, w, scalar = random_polyfield(rng, 3, 2), random_polyfield(rng, 3, 1), random_polyfield(rng, 1, 2)
    keep = np.array([1.0, 0.0] * (len(y._table) // 2) + [0.0] * (len(y._table) % 2))
    fields = [y, y + w, y + PolyField._from_matrix(y._table, -y._coeffs), scalar * w, bubble_damped(w),
              PolyField._from_matrix(y._table, y._coeffs * keep), y.diff(), PolyField([{(0, 4, 1): 2.0}])]
    for field in fields:
        used = field._table.expos[np.any(field._coeffs != 0.0, axis=0)]
        fresh = int(used.max()) if used.size else 0
        assert field.axis_degree() == field.axis_degree() == fresh
        with pytest.raises(ValueError, match="read-only"):
            field._coeffs[0, 0] = 1.0
    assert [f.axis_degree() for f in fields[2:4]] == [0, 3]


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


@pytest.mark.parametrize("order", [1, 3, 8])
def test_boundary_rule_stacks_face_rules(order):
    """The boundary rule is the six face rules in order, each point's weight
    times its face's outward normal; it is built once per order."""
    pts, flux = boundary_rule(order)
    faces = face_rules(order)
    assert np.array_equal(pts, np.concatenate([p for p, _, _ in faces]))
    assert np.array_equal(flux, np.concatenate([np.outer(w, n) for _, w, n in faces]))
    assert np.max(np.abs(np.sum(flux, axis=0))) <= 1e-15  # opposite faces cancel
    assert float(np.sum(np.abs(flux))) == pytest.approx(6.0, abs=1e-13)
    assert boundary_rule(order)[0] is pts


def test_quadrature_rules_are_read_only():
    """Rules are cached per order and shared by every caller, including the
    monomial blocks kept at their points: no caller may write to them."""
    x, w = gauss_points_01(3)
    pts, wts = cube_rule(3)
    arrays = [x, w, pts, wts, *boundary_rule(3)] + [a for face in face_rules(3) for a in face]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 5.0
    assert cube_rule(3)[0][0, 0] == gauss_points_01(3)[0][0]


def rule_bytes():
    return sum(block.nbytes for blocks in polyfield._rule_blocks.values() for block in blocks)


@pytest.fixture
def cold_rules():
    """An empty rule cache before and after the test."""
    polyfield._rule_blocks.clear()
    yield polyfield._rule_blocks
    polyfield._rule_blocks.clear()


def rule_tables():
    """A dense table, its gradient table and a bubble-damped table."""
    rng = np.random.default_rng(21)
    y = random_polyfield(rng, 2, 3)
    damped = bubble_damped(random_polyfield(rng, 2, 1))
    return [(y._table, y._coeffs.T), (y._gradient()[0], y._gradient()[1].reshape(6, -1).T),
            (damped._table, damped._coeffs.T)]


@pytest.mark.parametrize("face", [None, 0, 1, 2, 3, 4, 5])
@pytest.mark.parametrize("order", [8, 12, 13, 14])
def test_rule_evaluation_equals_evaluate_monomials(order, face, cold_rules):
    """Cold and warm, the kept blocks give the bits of `evaluate_monomials`
    at the rule's points: the cube rule for face None (orders 13 and 14 span
    two 2048-row blocks), else the boundary rule, whose rows of that face
    are the face rule's points."""
    boundary = face is not None
    pts = (boundary_rule if boundary else cube_rule)(order)[0]
    if boundary:
        rows = order * order
        assert_same_bits(pts[face * rows:(face + 1) * rows], face_rules(order)[face][0])
    for table, coeffs in rule_tables():
        want = evaluate_monomials(pts, table.plan, coeffs)
        for _ in range(2):
            assert_same_bits(evaluate_on_rule(table, coeffs, order, boundary), want)
        blocks = cold_rules[(table, order, boundary)]
        rows = polyfield._BLOCK_ROWS
        assert [len(b) for b in blocks] == [len(pts[i:i + rows]) for i in range(0, len(pts), rows)]
    field = random_polyfield(np.random.default_rng(order), 3, 3)
    vals, grads = field.eval_on_rule(order, boundary)
    assert_same_bits(vals, field.eval(pts))
    assert_same_bits(grads, field.eval_grad(pts))


def test_rule_blocks_are_read_only(cold_rules):
    for table, coeffs in rule_tables():
        evaluate_on_rule(table, coeffs, 13)
        evaluate_on_rule(table, coeffs, 4, boundary=True)
    assert len(cold_rules) == 6
    for blocks in cold_rules.values():
        for block in blocks:
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 5.0


def test_rule_cache_stays_within_byte_budget(cold_rules):
    """Many orders and tables overflow the budget; the least recently used
    entries go first, and the total never exceeds it."""
    tables = [polyfield._dense(d)[0] for d in range(6)]
    for order in range(1, 21):
        for table in tables:
            evaluate_on_rule(table, np.ones((len(table), 1)), order)
            assert rule_bytes() <= polyfield._RULE_BYTES
    assert (tables[0], 1, False) not in cold_rules
    assert (tables[-1], 20, False) in cold_rules
    assert rule_bytes() > polyfield._RULE_BYTES // 2


def test_rule_cache_evicts_least_recently_used(cold_rules, monkeypatch):
    table = polyfield._dense(3)[0]
    coeffs = np.ones((len(table), 1))
    monkeypatch.setattr(polyfield, "_RULE_BYTES", 2 * 64 * len(table) * 8)
    # 54 boundary points at order 3, 64 cube points at order 4, 24 boundary
    # points at order 2: the third rule evicts the second, used least recently.
    for order, boundary in ((3, True), (4, False), (3, True), (2, True)):
        evaluate_on_rule(table, coeffs, order, boundary)
    assert list(cold_rules) == [(table, 3, True), (table, 2, True)]


def test_rule_larger_than_budget_is_evaluated_but_not_kept(cold_rules):
    table = polyfield._dense(6)[0]
    pts = cube_rule(40)[0]
    assert len(pts) * len(table) * 8 > polyfield._RULE_BYTES
    coeffs = np.random.default_rng(4).uniform(-1.0, 1.0, (len(table), 2))
    assert_same_bits(evaluate_on_rule(table, coeffs, 40), evaluate_monomials(pts, table.plan, coeffs))
    assert len(cold_rules) == 0


def test_required_order():
    assert required_order(0) == 1
    assert required_order(1) == 1
    assert required_order(2) == 2
    assert required_order(15) == 8
    assert required_order(16) == 9
