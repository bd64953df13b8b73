import json
from fractions import Fraction
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nullag import verifier as vf
from nullag.polyfield import field_states, random_polyfield
from nullag.quadrature import cube_rule, required_order
from nullag.rund import (
    GenPoly,
    GeneratorSet,
    coefficient_identity_residuals,
    build_null_lagrangian,
    generator_set_from_json,
    generator_set_to_json,
    micropolar_block_view,
    random_generator_set,
    rund_coefficients,
)

N = 6
NVARS = 3 + N


def unit_gen(var_index, sign=1):
    """Generator equal to +/- one coordinate (0-based over x1..x3,y1..yN)."""
    expo = [0] * NVARS
    expo[var_index] = 1
    return GenPoly(NVARS, {tuple(expo): Fraction(sign)})


def diff(poly, var):
    """Exact partial of a `GenPoly` along variable `var`, term by term."""
    out = {}
    for expo, coeff in poly.terms.items():
        if expo[var]:
            key = expo[:var] + (expo[var] - 1,) + expo[var + 1:]
            out[key] = out.get(key, Fraction(0)) + coeff * expo[var]
    return GenPoly(poly.nvars, out)


def minor_example():
    """S1 = y5, S2 = -y4, S3 = 0."""
    return GeneratorSet([unit_gen(3 + 4), unit_gen(3 + 3, -1), GenPoly(NVARS)], N)


def test_genpoly_exact_diff_commutes():
    rng = np.random.default_rng(0)
    g = random_generator_set(rng, N, 2)
    for poly in g.polys:
        for v1 in range(NVARS):
            for v2 in range(NVARS):
                a = diff(diff(poly, v1), v2)
                b = diff(diff(poly, v2), v1)
                assert a.terms == b.terms


def test_rund_coefficients_minor_example():
    g = minor_example()
    coeff = rund_coefficients(g, [0.3, 0.1, 0.9], np.zeros(N))
    # 0-based: D2(a1=0, a2=1; i1=3, i2=4) = det [[0, -1], [1, 0]] = 1
    assert coeff.d2[0, 1, 3, 4] == 1.0
    assert coeff.d2[0, 1, 4, 3] == -1.0
    assert coeff.d2[1, 0, 3, 4] == -1.0
    assert np.array_equal(coeff.d1, np.zeros((3, N)))
    assert coeff.d0 == 0.0


def test_rund_coefficients_constant_generators():
    g = GeneratorSet([GenPoly(NVARS, {(0,) * NVARS: Fraction(5)}) for _ in range(3)], N)
    coeff = rund_coefficients(g, [0.5, 0.5, 0.5], np.ones(N))
    assert np.array_equal(coeff.d2, np.zeros((3, 3, N, N)))
    assert np.array_equal(coeff.d1, np.zeros((3, N)))
    assert coeff.d0 == 0.0
    lag = build_null_lagrangian(g)
    assert lag.evaluate(np.zeros((1, 3)), np.zeros((1, N)), np.zeros((1, N, 3)))[0] == 0.0


def test_rund_coefficients_x_swap_example():
    # S1 = x2, S2 = x1: each ordered dummy pair contributes det [[0,1],[1,0]] = -1
    g = GeneratorSet([unit_gen(1), unit_gen(0), GenPoly(NVARS)], N)
    coeff = rund_coefficients(g, [0.2, 0.4, 0.6], np.zeros(N))
    assert np.array_equal(coeff.d2, np.zeros((3, 3, N, N)))
    assert np.array_equal(coeff.d1, np.zeros((3, N)))
    assert coeff.d0 == -2.0


def test_d2_antisymmetry_exact():
    rng = np.random.default_rng(1)
    g = random_generator_set(rng, N, 2)
    coeff = rund_coefficients(g, rng.uniform(0, 1, 3), rng.uniform(-1, 1, N))
    assert np.array_equal(coeff.d2, -np.transpose(coeff.d2, (1, 0, 2, 3)))
    assert np.array_equal(coeff.d2, np.transpose(coeff.d2, (1, 0, 3, 2)))


def test_minor_example_density_is_gradient_minor():
    lag = build_null_lagrangian(minor_example())
    rng = np.random.default_rng(2)
    for _ in range(10):
        dy = rng.uniform(-1, 1, (N, 3))
        val = lag.evaluate(np.zeros((1, 3)), np.zeros((1, N)), dy[None])[0]
        expected = dy[3, 0] * dy[4, 1] - dy[3, 1] * dy[4, 0]
        assert val == pytest.approx(expected, abs=1e-14)


def test_evaluate_agrees_with_coefficient_assembly():
    rng = np.random.default_rng(3)
    for s in range(5):
        g = random_generator_set(np.random.default_rng(10 + s), N, 2)
        lag = build_null_lagrangian(g)
        x = rng.uniform(0, 1, 3)
        y = rng.uniform(-1, 1, N)
        dy = rng.uniform(-1, 1, (N, 3))
        fast = lag.evaluate(x[None], y[None], dy[None])[0]
        slow = lag.evaluate_from_coefficients(x, y, dy)
        assert fast == pytest.approx(slow, rel=1e-12, abs=1e-12)


def test_euler_residual_vanishes_at_random_points():
    g = random_generator_set(np.random.default_rng(4), N, 2)
    lag = build_null_lagrangian(g)
    field = random_polyfield(np.random.default_rng(5), N, 3)
    rng = np.random.default_rng(6)
    for x in rng.uniform(0, 1, (20, 3)):
        res, scale = vf._residual_and_scale(lag, field, x, "fd")
        assert np.max(np.abs(res)) / scale <= 1e-6


def test_block_view_partitions():
    g_phi = minor_example()  # depends only on rotation components
    rng = np.random.default_rng(7)
    x, y = rng.uniform(0, 1, 3), rng.uniform(-1, 1, N)
    blocks = micropolar_block_view(g_phi, x, y)
    assert np.array_equal(blocks.d2_uu, np.zeros((3, 3, 3, 3)))
    assert np.array_equal(blocks.d2_uphi, np.zeros((3, 3, 3, 3)))
    assert np.any(blocks.d2_phiphi != 0.0)

    # S1 = y1 (= u1), S2 = -y2 (= u2): only the displacement block survives
    g_u = GeneratorSet([unit_gen(3 + 0), unit_gen(3 + 1, -1), GenPoly(NVARS)], N)
    blocks = micropolar_block_view(g_u, x, y)
    assert np.any(blocks.d2_uu != 0.0)
    assert np.array_equal(blocks.d2_phiphi, np.zeros((3, 3, 3, 3)))
    assert np.array_equal(blocks.d2_uphi, np.zeros((3, 3, 3, 3)))


def test_block_view_reassembles():
    g = random_generator_set(np.random.default_rng(8), N, 2)
    rng = np.random.default_rng(9)
    x, y = rng.uniform(0, 1, 3), rng.uniform(-1, 1, N)
    coeff = rund_coefficients(g, x, y)
    blocks = micropolar_block_view(g, x, y)
    assert np.array_equal(blocks.d2_uu, coeff.d2[:, :, :3, :3])
    assert np.array_equal(blocks.d2_phiphi, coeff.d2[:, :, 3:, 3:])
    assert np.array_equal(blocks.d1_u, coeff.d1[:, :3])
    assert np.array_equal(blocks.d1_phi, coeff.d1[:, 3:])
    assert blocks.d0 == coeff.d0


def test_rotation_only_generators_leave_no_displacement_block():
    # generators independent of the displacement components never produce a
    # displacement-displacement coefficient block
    rng = np.random.default_rng(10)
    base = random_generator_set(rng, N, 2)
    filtered = []
    for poly in base.polys:
        terms = {e: c for e, c in poly.terms.items() if all(e[3 + i] == 0 for i in range(3))}
        filtered.append(GenPoly(NVARS, terms))
    g = GeneratorSet(filtered, N)
    for _ in range(5):
        blocks = micropolar_block_view(g, rng.uniform(0, 1, 3), rng.uniform(-1, 1, N))
        assert np.array_equal(blocks.d2_uu, np.zeros((3, 3, 3, 3)))
        assert np.array_equal(blocks.d2_uphi, np.zeros((3, 3, 3, 3)))


def test_coefficient_identities_random_generators():
    rng = np.random.default_rng(11)
    for s in range(10):
        g = random_generator_set(np.random.default_rng(20 + s), N, 2)
        for _ in range(5):
            rq, rl = coefficient_identity_residuals(g, rng.uniform(0, 1, 3), rng.uniform(-1, 1, N))
            assert np.max(np.abs(rq)) <= 1e-9
            assert np.max(np.abs(rl)) <= 1e-9


def test_coefficient_identities_special_cases():
    g = GeneratorSet([GenPoly(NVARS, {(0,) * NVARS: Fraction(3)}) for _ in range(3)], N)
    rq, rl = coefficient_identity_residuals(g, [0.1, 0.2, 0.3], np.zeros(N))
    assert np.array_equal(rq, np.zeros(N))
    assert np.array_equal(rl, np.zeros((N, 3, N)))

    # single mixed term S1 = x1*y1
    expo = [0] * NVARS
    expo[0] = 1
    expo[3] = 1
    g = GeneratorSet([GenPoly(NVARS, {tuple(expo): Fraction(1)}), GenPoly(NVARS), GenPoly(NVARS)], N)
    rng = np.random.default_rng(12)
    rq, rl = coefficient_identity_residuals(g, rng.uniform(0, 1, 3), rng.uniform(-1, 1, N))
    assert np.max(np.abs(rq)) <= 1e-15
    assert np.max(np.abs(rl)) <= 1e-15


def test_certify_random_generator_sets():
    for s in range(3):
        g = random_generator_set(np.random.default_rng(30 + s), N, 2)
        cert = vf.certify_null(build_null_lagrangian(g), trials=3, seed=s)
        assert cert.passed, (s, cert.max_normalized_residual, cert.boundary_action_deltas)
        assert cert.path == "closed-form"
        assert cert.residual_tolerance == 1e-10


def test_closed_residual_halves_match_finite_differences():
    """The density is null, so a closed residual near zero proves nothing by
    itself.  Each half of the Euler operator, D_g(dL/dy'_kg) and dL/dy_k, is
    O(1) and must match its finite-difference counterpart on its own, on
    every generator set of acceptance 07; the Piola divergence D_g C[a,g]
    must vanish, and the closed and finite-difference residuals and scales
    agree."""
    for s in range(100):
        lag = build_null_lagrangian(random_generator_set(np.random.default_rng(20_000 + s), N, 2))
        rng = np.random.default_rng(40_000 + s)
        x = rng.uniform(0.0, 1.0, (1, 2, 3))
        states = field_states([random_polyfield(rng, N, 3)], x)
        y0, dy0, d2y0 = (a[0] for a in states)
        d_dyp, d_y, div_c, _ = lag._euler_halves(x[0], y0, dy0, d2y0)
        closed, scale = vf._residuals(lag, x, *states, "closed")
        fd, fd_scale = vf._residuals(lag, x, *states, "fd")
        assert np.max(np.abs(closed - fd) / scale[..., None]) <= 1e-6
        assert np.max(np.abs(scale - fd_scale) / fd_scale) <= 1e-6
        assert np.max(np.abs(div_c)) / np.min(scale) <= 1e-12
        for p in range(2):
            fd_y, fd_x_dyp, fd_y_dyp, fd_dyp_dyp = vf._fd_partials(lag, x[0, p], y0[p], dy0[p])
            fd_half = (np.einsum("gkg->k", fd_x_dyp) + np.einsum("jkg,jg->k", fd_y_dyp, dy0[p])
                       + np.einsum("jbkg,jbg->k", fd_dyp_dyp, d2y0[p]))
            assert np.max(np.abs(d_y[p])) >= 1e-3 * scale[0, p]
            assert np.max(np.abs(d_dyp[p] - fd_half)) / scale[0, p] <= 1e-6
            assert np.max(np.abs(d_y[p] - fd_y)) / scale[0, p] <= 1e-6


def test_generator_json_round_trip():
    g = random_generator_set(np.random.default_rng(13), N, 2)
    encoded = json.loads(json.dumps(generator_set_to_json(g)))
    back = generator_set_from_json(encoded)
    assert back.n == g.n
    for p1, p2 in zip(g.polys, back.polys):
        assert p1.terms == p2.terms


def test_generator_json_validation():
    with pytest.raises(ValueError, match="three"):
        generator_set_from_json([[], []])
    with pytest.raises(ValueError, match="exponents/coeff"):
        generator_set_from_json([[{"exponents": [0] * 9, "coeff": "1", "extra": 2}], [], []])
    with pytest.raises(ValueError, match="inconsistent"):
        generator_set_from_json(
            [[{"exponents": [0] * 9, "coeff": "1"}], [{"exponents": [0] * 8, "coeff": "1"}], []]
        )
    with pytest.raises(ValueError, match="undetermined"):
        generator_set_from_json([[], [], []])


def test_generator_set_validates_dimensions():
    with pytest.raises(ValueError, match="three"):
        GeneratorSet([GenPoly(9)], 6)
    with pytest.raises(ValueError, match="9 variables"):
        GeneratorSet([GenPoly(8), GenPoly(9), GenPoly(9)], 6)


def _exact_value(poly, pt):
    """Value and absolute term sum of an exact polynomial, term by term."""
    terms = [float(c) * float(np.prod(pt ** np.array(e, dtype=float))) for e, c in poly.terms.items()]
    return sum(terms), sum(abs(t) for t in terms)


def _reference_sets():
    """Random sets for N in {1, 3, 6}, degree 0-3, plus an all-zero
    polynomial and a constant-only set."""
    sets = []
    for n in (1, 3, 6):
        for degree in range(4):
            sets.append(random_generator_set(np.random.default_rng(100 * n + degree), n, degree))
        nvars = 3 + n
        sparse = random_generator_set(np.random.default_rng(7 * n), n, 2)
        sets.append(GeneratorSet([sparse.polys[0], GenPoly(nvars), sparse.polys[2]], n))
        const = {(0,) * nvars: Fraction(-7, 3)}
        sets.append(GeneratorSet([GenPoly(nvars, const), GenPoly(nvars, const), GenPoly(nvars)], n))
    return sets


@pytest.mark.parametrize("g", _reference_sets(), ids=lambda g: f"n{g.n}d{g.degree()}")
def test_partials_match_exact_per_partial_evaluation(g):
    nvars = 3 + g.n
    rng = np.random.default_rng(g.n + 10 * g.degree())
    x, y = rng.uniform(0, 1, (4, 3)), rng.uniform(-1, 1, (4, g.n))
    sx, sy = g.first_partials(x, y)
    got1 = np.concatenate([sx, sy], axis=2)
    batched = g.second_partials(x, y)
    for m in range(4):
        pt = np.concatenate([x[m], y[m]])
        # one point keeps the unbatched shapes; a batch's rows need not
        # match it bit for bit, because BLAS sums depend on the row count
        single = g.second_partials(x[m], y[m])
        for sxx, sxy, syy in (single, (part[m] for part in batched)):
            assert np.array_equal(sxx, np.transpose(sxx, (0, 2, 1)))
            assert np.array_equal(syy, np.transpose(syy, (0, 2, 1)))
            got2 = np.zeros((3, nvars, nvars))
            got2[:, :3, :3], got2[:, :3, 3:], got2[:, 3:, 3:] = sxx, sxy, syy
            got2[:, 3:, :3] = np.transpose(sxy, (0, 2, 1))
            for a, poly in enumerate(g.polys):
                for v1 in range(nvars):
                    ref, size = _exact_value(diff(poly, v1), pt)
                    assert abs(got1[m, a, v1] - ref) <= 1e-15 * size
                    for v2 in range(nvars):
                        ref, size = _exact_value(diff(diff(poly, v1), v2), pt)
                        assert abs(got2[a, v1, v2] - ref) <= 1e-15 * size


@pytest.mark.parametrize("g", _reference_sets(), ids=lambda g: f"n{g.n}d{g.degree()}")
def test_partial_matrices_hold_float_of_exact_coefficients(g):
    nvars = 3 + g.n
    expos, coeffs, _ = g._gradient()
    rows = {tuple(e): i for i, e in enumerate(expos.tolist())}
    expected = np.zeros_like(coeffs)
    for a, poly in enumerate(g.polys):
        for v in range(nvars):
            for e, c in diff(poly, v).terms.items():
                expected[rows[e], a * nvars + v] = float(c)
    assert np.array_equal(coeffs, expected)

    expos, coeffs, _, index = g._hessian()
    rows = {tuple(e): i for i, e in enumerate(expos.tolist())}
    expected = np.zeros_like(coeffs)
    for a, poly in enumerate(g.polys):
        for v1 in range(nvars):
            for v2 in range(nvars):
                for e, c in diff(diff(poly, v1), v2).terms.items():
                    expected[rows[e], index[a, v1, v2]] = float(c)
    assert np.array_equal(coeffs, expected)
    assert np.array_equal(index, np.transpose(index, (0, 2, 1)))


def test_partial_coefficient_outside_double_range_is_rejected():
    x2 = (2,) + (0,) * (NVARS - 1)
    big = GeneratorSet([GenPoly(NVARS, {x2: Fraction(10**308)}), GenPoly(NVARS), GenPoly(NVARS)], N)
    with pytest.raises(ValueError, match="double range"):
        big.first_partials(np.zeros((1, 3)), np.zeros((1, N)))
    tiny = GeneratorSet([GenPoly(NVARS, {x2: Fraction(1, 10**400)}), GenPoly(NVARS), GenPoly(NVARS)], N)
    with pytest.raises(ValueError, match="double range"):
        tiny.second_partials(np.zeros(3), np.zeros(N))


def fraction_partial_matrix(polys, nvars: int, order: int) -> tuple:
    """Reference builder: exponents and float coefficients of all partials of
    the given order, term by term from the exact `Fraction` coefficients.
    Column p * P + i holds the partial of polynomial p along the i-th tuple of
    `combinations_with_replacement(range(nvars), order)`; rows are the sorted
    union of the partials' exponents."""
    partials = {vs: i for i, vs in enumerate(combinations_with_replacement(range(nvars), order))}
    columns = [{} for _ in range(len(polys) * len(partials))]
    for p, poly in enumerate(polys):
        for expo, c in poly.terms.items():
            support = [v for v, e in enumerate(expo) if e]
            for vs in combinations_with_replacement(support, order):
                shifted, num = list(expo), c.numerator
                for v in vs:
                    num *= shifted[v]
                    shifted[v] -= 1
                if num:
                    columns[p * len(partials) + partials[vs]][tuple(shifted)] = Fraction(num, c.denominator)
    keys = sorted(set().union(*columns))
    index = {e: i for i, e in enumerate(keys)}
    coeffs = np.zeros((len(keys), len(columns)))
    for col, column in enumerate(columns):
        for expo, value in column.items():
            coeffs[index[expo], col] = float(value)
    return np.array(keys, dtype=np.int64).reshape(-1, nvars), coeffs


def assert_matrices_equal_reference(g):
    for order, (expos, coeffs, *_) in ((1, g._gradient()), (2, g._hessian())):
        ref_expos, ref_coeffs = fraction_partial_matrix(g.polys, 3 + g.n, order)
        assert expos.shape == ref_expos.shape and expos.tobytes() == ref_expos.tobytes()
        assert coeffs.shape == ref_coeffs.shape and coeffs.tobytes() == ref_coeffs.tobytes()


def _edge_sets():
    """Loaded sets with duplicate and cancelling terms, and with numerators of
    2**64 and more over large denominators, some from exponent factors near 2**62."""
    x1y1, y1y2, x2 = [1, 0, 0, 1, 0], [0, 0, 0, 1, 1], [0, 2, 0, 0, 0]
    big = [2**62, 0, 0, 1, 0]
    files = [
        [[{"exponents": x1y1, "coeff": "1/2"}, {"exponents": y1y2, "coeff": "3"},
          {"exponents": x1y1, "coeff": "-1/2"}, {"exponents": y1y2, "coeff": "1/3"}],
         [{"exponents": x2, "coeff": "0"}, {"exponents": x2, "coeff": "-2/7"}, {"exponents": x2, "coeff": "2/7"}],
         [{"exponents": y1y2, "coeff": "5"}, {"exponents": y1y2, "coeff": "5"}]],
        [[{"exponents": [3, 0, 1, 2, 0], "coeff": f"{3**47}/{7**30}"}],
         [{"exponents": big, "coeff": "3/7"}, {"exponents": x2, "coeff": f"-{2**70 + 1}/{5**25}"}],
         [{"exponents": [0, 0, 0, 2, 2], "coeff": f"{10**30}/{3**40}"}]],
    ]
    return [generator_set_from_json(f) for f in files]


@pytest.mark.parametrize("g", _reference_sets() + _edge_sets(), ids=lambda g: f"n{g.n}d{g.degree()}")
def test_partial_matrices_equal_fraction_loop_bits(g):
    assert_matrices_equal_reference(g)


def test_partial_matrices_of_acceptance_07_sets_equal_fraction_loop_bits():
    for s in range(100):
        assert_matrices_equal_reference(random_generator_set(np.random.default_rng(20_000 + s), 6, 2))


def test_loaded_table_sums_duplicates_and_drops_zero_sums():
    g = _edge_sets()[0]
    assert g._polys is None
    assert g.poly.tolist() == [0, 2]
    assert g.expos.tolist() == [[0, 0, 0, 1, 1]] * 2
    assert (g.num.tolist(), g.den.tolist()) == ([10, 10], [3, 1])
    assert g.degree() == 2
    assert [p.terms for p in g.polys] == [{(0, 0, 0, 1, 1): Fraction(10, 3)}, {}, {(0, 0, 0, 1, 1): Fraction(10)}]
    for table in (g.poly, g.expos, g.num, g.den):
        with pytest.raises(ValueError, match="read-only"):
            table[0] = 1


def test_set_built_from_polys_keeps_them():
    polys = [unit_gen(3 + 4), unit_gen(3 + 3, -1), GenPoly(NVARS)]
    g = GeneratorSet(polys, N)
    assert all(a is b for a, b in zip(g.polys, polys))
    assert g.poly.tolist() == [0, 1] and (g.num.tolist(), g.den.tolist()) == ([1, -1], [1, 1])


def _table(g) -> list:
    """The exact table as sorted (generator, exponents, numerator, denominator) rows."""
    return sorted(zip(g.poly.tolist(), map(tuple, g.expos.tolist()), g.num.tolist(), g.den.tolist()))


def _term_lists(n):
    """Three lists of (exponents, coefficient) terms in 3 + n variables."""
    term = st.tuples(st.tuples(*[st.integers(0, 3)] * (3 + n)),
                     st.fractions(max_denominator=50).filter(lambda c: abs(c) < 10**6))
    return st.tuples(st.just(n), st.lists(st.lists(term, max_size=8), min_size=3, max_size=3))


TERM_LISTS = st.sampled_from([1, 3, 6]).flatmap(_term_lists)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(TERM_LISTS, st.booleans())
def test_generator_json_round_trip_keeps_table_and_matrices(case, duplicate):
    n, term_lists = case
    if duplicate:  # repeat every term, with the coefficient split or negated
        term_lists = [terms + [(e, -c if k % 2 else c / 3) for k, (e, c) in enumerate(terms)]
                      for terms in term_lists]
    g = GeneratorSet([GenPoly(3 + n, terms) for terms in term_lists], n)
    assume(len(g.poly))
    encoded = json.loads(json.dumps(generator_set_to_json(g)))
    back = generator_set_from_json(encoded)
    assert (back.n, back.degree()) == (g.n, g.degree())
    assert _table(back) == _table(g)
    assert generator_set_to_json(back) == encoded
    # loading the term lists themselves sums their duplicates as GenPoly does
    raw = [[{"exponents": list(e), "coeff": str(c)} for e, c in terms] for terms in term_lists]
    assert _table(generator_set_from_json(raw)) == _table(g)
    for mine, theirs in ((g._gradient(), back._gradient()), (g._hessian(), back._hessian())):
        for a, b in zip(mine[:2], theirs[:2]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
    assert_matrices_equal_reference(back)


def _total_degree_order(lag, field):
    """The order sized by the total-degree bound this per-coordinate one
    replaced: a derivative lowers the total degree by one."""
    d = field.degree()
    k = max(lag.generators.degree() - 1, 0)
    return required_order(2 * (k * max(d, 1) + max(d - 1, 0)))


def test_generator_action_per_coordinate_order_matches_total_degree_order():
    """The per-coordinate order (7 or 10 against 14 or 21 for these fields;
    certify raises 7 to its floor of 8) gives the same perturbed-field
    action, up to rounding of the sum."""
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n, degree = (3, 6)[seed % 2], 2 + (seed // 2) % 2
        lag = build_null_lagrangian(random_generator_set(rng, n, degree))
        sampler = vf.FieldSampler(n)
        field = sampler.field(rng, 2) + sampler.boundary_delta(rng, 2)
        new = required_order(lag.integrand_degree(field.axis_degree()))
        old = _total_degree_order(lag, field)
        assert (new, old) == ((7, 14) if degree == 2 else (10, 21))
        reference = vf.action_integral(lag, field, old)
        # the action can cancel; rounding scales with the integral of |L|
        pts, wts = cube_rule(old)
        magnitude = float(np.abs(lag.evaluate(pts, field.eval(pts), field.eval_grad(pts))) @ wts)
        assert abs(vf.action_integral(lag, field, new) - reference) <= 1e-13 * max(1.0, magnitude)


@pytest.mark.parametrize("degree, order", [(2, 8), (3, 10)])
def test_certify_generator_sizes_quadrature_per_coordinate(monkeypatch, degree, order):
    orders = []
    actions = vf._actions
    monkeypatch.setattr(vf, "_actions",
                        lambda lag, fields, o: orders.extend([o] * len(fields)) or actions(lag, fields, o))
    lag = build_null_lagrangian(random_generator_set(np.random.default_rng(degree), 3, degree))
    assert vf.certify_null(lag, trials=1, degree=2, seed=1).passed
    assert orders == [order] * 6
