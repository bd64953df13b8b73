import tracemalloc

import numpy as np
import pytest
import sympy as sp

from nullag import em
from nullag import micropolar as mp
from nullag import polyfield
from nullag import quasicrystal as qc
from nullag import rund
from nullag import verifier as vf
from nullag.polyfield import PolyField, bubble, bubble_damped, evaluate_monomials, random_polyfield, stack_fields
from nullag.quadrature import boundary_rule, cube_rule, required_order
from nullag.tensors import project
from nullag.verifier import (
    CallableLagrangian,
    FieldSampler,
    QuadraticLagrangian,
    action_integral,
    boundary_dependence_test,
    certify_null,
    euler_residual,
)


def dirichlet_density(n=3):
    """L = |Dy|^2 / 2 with the identity pairing block."""
    p = np.zeros((n, 3, n, 3))
    for i in range(n):
        for j in range(3):
            p[i, j, i, j] = 1.0
    return QuadraticLagrangian(p)


def test_laplacian_residual():
    lag = dirichlet_density()
    y = PolyField([{(2, 0, 0): 1.0}, {}, {}])
    res = euler_residual(lag, y, [0.3, 0.4, 0.5])
    assert np.allclose(res, [2.0, 0.0, 0.0], rtol=0, atol=1e-12)


def test_constant_density_zero_residual():
    lag = CallableLagrangian(lambda x, y, dy: 7.5, n=3, degree_bound=lambda d: 0)
    y = random_polyfield(np.random.default_rng(0), 3, 3)
    res = euler_residual(lag, y, [0.2, 0.2, 0.2])
    assert np.array_equal(res, np.zeros(3))


def test_iso_null_evaluator_residual_vanishes():
    lag = mp.iso_null_evaluator(1.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        y = random_polyfield(rng, 6, 3)
        x = rng.uniform(0, 1, 3)
        res, scale = vf._residual_and_scale(lag, y, x, "closed")
        assert np.max(np.abs(res)) / scale <= 1e-10


def test_action_integral_constant():
    lag = CallableLagrangian(lambda x, y, dy: np.ones(x.shape[0]), n=3, batched=True,
                             degree_bound=lambda d: 0)
    y = PolyField.zero(3)
    assert action_integral(lag, y, 2) == pytest.approx(1.0, abs=1e-15)


def test_action_integral_iso_null_single_shear():
    lag = mp.iso_null_evaluator(1.0)
    # phi = (x2, 0, 0): wryness has a single off-diagonal entry, so both the
    # trace and the transposed contraction vanish
    y = PolyField([{}] * 3 + [{(0, 1, 0): 1.0}, {}, {}])
    assert action_integral(lag, y, 4) == pytest.approx(0.0, abs=1e-15)


def test_action_integral_dirichlet():
    lag = dirichlet_density()
    y = PolyField([{(1, 0, 0): 1.0}, {}, {}])
    assert action_integral(lag, y, 4) == pytest.approx(0.5, abs=1e-14)


def test_action_integral_rejects_low_order():
    lag = dirichlet_density()
    y = random_polyfield(np.random.default_rng(2), 3, 5)
    with pytest.raises(ValueError, match="order >= 6"):
        action_integral(lag, y, 3)


def test_axis_degree():
    rng = np.random.default_rng(5)
    for d in range(5):
        field = random_polyfield(rng, 3, d)
        assert field.axis_degree() == field.degree() == d
    damped = FieldSampler(3).boundary_delta(rng, 3)
    assert (damped.axis_degree(), damped.degree()) == (3, 7)
    assert PolyField.zero(4).axis_degree() == 0
    mixed = PolyField([{(0, 4, 1): 1.0}, {(2, 2, 2): -1.0}, {}])
    assert (mixed.axis_degree(), mixed.degree()) == (4, 6)
    assert (mixed + damped).axis_degree() == 4
    assert (damped + random_polyfield(rng, 3, 1)).axis_degree() == 3


@pytest.mark.parametrize("p", [2, 3, 4])
def test_quadratic_action_order_is_tight_per_coordinate(p):
    """y = x1^p e1 under L = y^2 / 2: the integrand x1^(2p) / 2 has degree 2p
    in one coordinate, so required_order(2p) is exact and one order less,
    which the guard rejects, is not."""
    lag = QuadraticLagrangian(np.zeros((1, 3, 1, 3)), r=np.eye(1))
    y = PolyField([{(p, 0, 0): 1.0}])
    order = required_order(lag.integrand_degree(y.axis_degree()))
    assert order == required_order(2 * p)
    exact = 1.0 / (2.0 * (2 * p + 1))
    assert abs(action_integral(lag, y, order) - exact) <= 1e-14
    with pytest.raises(ValueError, match=f"order >= {order}"):
        action_integral(lag, y, order - 1)
    pts, wts = cube_rule(order - 1)
    low = float(lag.evaluate(pts, y.eval(pts), y.eval_grad(pts)) @ wts)
    assert abs(low - exact) > 1e-6


def test_action_integral_guard_reads_axis_degree():
    """A bubble-damped field has total degree 7 but degree 3 per coordinate:
    order 4 is exact for the Dirichlet action and accepted."""
    lag = dirichlet_density()
    y = FieldSampler(3).boundary_delta(np.random.default_rng(6), 3)
    assert action_integral(lag, y, 4) == pytest.approx(action_integral(lag, y, 8), rel=1e-14)
    with pytest.raises(ValueError, match="order >= 4"):
        action_integral(lag, y, 3)


def test_action_integral_rejects_nonfinite():
    lag = CallableLagrangian(lambda x, y, dy: np.nan, n=1, degree_bound=lambda d: 0)
    with pytest.raises(FloatingPointError):
        action_integral(lag, PolyField.zero(1), 2)


def parent_action(lag, y, order):
    """Single-field quadrature as one evaluation on the field's own table,
    and the integral of |L| that bounds its rounding."""
    pts, wts = cube_rule(order)
    density = lag.evaluate(pts, y.eval(pts), y.eval_grad(pts))
    return float(density @ wts), float(np.abs(density) @ wts)


def test_batched_actions_match_per_field_actions():
    rng = np.random.default_rng(12)
    sampler = mp.CurlFreeRotationSampler()
    lag = random_micropolar_density(rng)
    fields = []
    for degree in (2, 3):
        y = sampler.field(rng, degree)
        fields += [y, y + sampler.boundary_delta(rng, degree), random_polyfield(rng, 6, degree)]
    got = vf._actions(lag, fields, 8)
    assert got.shape == (len(fields),)
    for value, y in zip(got, fields):
        reference, magnitude = parent_action(lag, y, 8)
        assert action_integral(lag, y, 8) == reference  # one field: the same sums
        assert abs(value - reference) <= 1e-14 * max(1.0, magnitude)


def test_batched_actions_guard_every_field():
    lag = dirichlet_density(1)
    low, high = (PolyField([{(p, 0, 0): 1.0}]) for p in (1, 5))
    order = required_order(lag.integrand_degree(high.axis_degree()))
    vf._actions(lag, [low, high], order)
    for fields in ([low, high], [high, low]):
        with pytest.raises(ValueError, match=f"order >= {order}"):
            vf._actions(lag, fields, order - 1)


def test_batched_actions_reject_one_nonfinite_field():
    lag = CallableLagrangian(lambda x, y, dy: np.where(y[:, 0] > 5.0, np.inf, y[:, 0] ** 2), n=1,
                             batched=True, degree_bound=lambda d: 2 * d)
    fine, bad = PolyField.zero(1), PolyField([{(0, 0, 0): 10.0}])
    assert vf._actions(lag, [fine, fine], 2).tolist() == [0.0, 0.0]
    for fields in ([bad, fine], [fine, bad]):
        with pytest.raises(FloatingPointError):
            vf._actions(lag, fields, 2)


def monomial_actions(lag, fields, order):
    """`vf._actions` with each monomial matrix built from the rule points by
    `evaluate_monomials` on every call: row i of the density is `lag.evaluate`
    of field i alone, its values and gradients over the fields' union table."""
    pts, wts = cube_rule(order)
    table, coeffs = stack_fields(fields)
    child, grad = table.differentiate(coeffs)
    n = coeffs.shape[1]
    density = [lag.evaluate(pts, evaluate_monomials(pts, table.plan, c.T),
                            evaluate_monomials(pts, child.plan, g.reshape(3 * n, -1).T).reshape(-1, n, 3))
               for c, g in zip(coeffs, grad)]
    return np.array(density) @ wts


def monomial_surface_potential(tilde, phi, order):
    """`mp.surface_potential` with `eval` and `eval_grad` at the points of the
    stacked boundary rule: B~ (9, 9) against the moment of the gradients and
    the values times weight and normal."""
    pts, flux = boundary_rule(order)
    values = (phi.eval(pts)[:, :, None] * flux[:, None, :]).reshape(-1, 9)
    return 0.5 * float(np.sum(tilde.reshape(9, 9) * (phi.eval_grad(pts).reshape(-1, 9).T @ values)))


@pytest.mark.parametrize("order", [8, 13])
def test_actions_same_bits_on_cold_and_warm_rule_cache(order):
    """Kept monomial blocks change no bit of an action, a boundary delta, a
    surface potential or a certificate; order 13 spans two 2048-row blocks."""
    rng = np.random.default_rng(31)
    lag = random_micropolar_density(rng)
    y, w, phi = random_polyfield(rng, 6, 3), random_polyfield(rng, 6, 1), random_polyfield(rng, 3, 3)
    b = rng.uniform(-1, 1, (3, 3, 3, 3))
    tilde = mp.split_B(0.5 * (b + np.transpose(b, (2, 3, 0, 1)))).b_tilde

    def run():
        return (action_integral(lag, y, order), boundary_dependence_test(lag, y, w, order),
                mp.surface_potential(tilde, phi, order), certify_null(lag, trials=4, seed=9))

    polyfield._rule_blocks.clear()
    cold = run()
    assert polyfield._rule_blocks
    assert run() == cold
    assert cold[0] == float(monomial_actions(lag, [y], order)[0])
    shifted, base = monomial_actions(lag, [y + bubble_damped(w), y], order)
    assert cold[1] == float(abs(shifted - base))
    assert cold[2] == monomial_surface_potential(tilde, phi, order)


def test_actions_evaluate_each_field_alone():
    """3456 density rows over both fields round differently in the BLAS
    product than 1728 rows per field; the actions keep the per-field bits."""
    rng = np.random.default_rng(17)
    lag = random_micropolar_density(rng)
    fields = [random_polyfield(rng, 6, 3), random_polyfield(rng, 6, 2)]
    assert vf._actions(lag, fields, 12).tolist() == monomial_actions(lag, fields, 12).tolist()


def test_actions_memory_does_not_grow_with_fields():
    rng = np.random.default_rng(7)
    lag = random_micropolar_density(rng)
    fields = [random_polyfield(rng, 6, 3) for _ in range(6)]

    def peak(group):
        vf._actions(lag, group, 12)  # keep the rule's monomial blocks first
        tracemalloc.start()
        try:
            vf._actions(lag, group, 12)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(fields) <= 1.5 * peak(fields[:1])


@pytest.mark.parametrize("sampler", [None, mp.CurlFreeRotationSampler()], ids=["dense", "curl-free"])
def test_certify_residual_equals_per_trial_evaluation(sampler):
    """The batched trial states reduce to the same bits as one `eval`,
    `eval_grad` and `eval_hess` call per trial, stacked.  A null density's
    residuals are pure rounding, so any change in summation order shows."""
    lag = mp.iso_null_evaluator(1.3)
    sampler_used = sampler or FieldSampler(lag.n)
    trials, seed = 16, 5
    children = np.random.SeedSequence(seed).spawn(trials + 3)
    points, states = [], []
    for t in range(trials):
        rng = np.random.default_rng(children[t])
        field = sampler_used.field(rng, 3)
        pts = rng.uniform(0.0, 1.0, size=(3, 3))
        points.append(pts)
        states.append((field.eval(pts), field.eval_grad(pts), field.eval_hess(pts)))
    res, scale = vf._residuals(lag, np.stack(points), *(np.stack(s) for s in zip(*states)), "closed")
    expected = float(np.max(np.max(np.abs(res), axis=-1) / scale))
    cert = certify_null(lag, trials=trials, seed=seed, sampler=sampler)
    assert cert.max_normalized_residual == expected


def test_boundary_dependence_null_density():
    rng = np.random.default_rng(3)
    b = mp.split_B(
        0.5 * (lambda t: t + np.transpose(t, (2, 3, 0, 1)))(rng.uniform(-1, 1, (3, 3, 3, 3)))
    ).b_tilde
    lag = mp.lagrangian(mp.MicropolarModuli(np.zeros((3, 3, 3, 3)), b, np.zeros((3, 3, 3, 3))))
    y = random_polyfield(rng, 6, 3)
    w = random_polyfield(rng, 6, 1)
    base = action_integral(lag, y, 8)
    delta = boundary_dependence_test(lag, y, w, 8)
    assert delta <= 1e-12 * max(1.0, abs(base))


def test_boundary_dependence_dirichlet_positive():
    lag = dirichlet_density()
    y = PolyField.zero(3)
    w = PolyField([{(0, 0, 0): 1.0}, {}, {}])
    delta = boundary_dependence_test(lag, y, w, 8)
    # oracle: brute-force quadrature of |grad b|^2 / 2
    pts, wts = cube_rule(8)
    grads = bubble().diff().eval(pts)
    expected = 0.5 * float(np.einsum("ma,ma->m", grads, grads) @ wts)
    assert delta == pytest.approx(expected, rel=1e-12)
    assert delta > 0.0


def test_boundary_dependence_zero_perturbation():
    lag = dirichlet_density()
    y = random_polyfield(np.random.default_rng(4), 3, 2)
    assert boundary_dependence_test(lag, y, PolyField.zero(3), 8) == 0.0


def random_micropolar_density(rng):
    """A non-null micropolar density: random moduli with major symmetry."""
    a, b = (0.5 * (t + np.transpose(t, (2, 3, 0, 1))) for t in rng.uniform(-1, 1, (2, 3, 3, 3, 3)))
    return mp.lagrangian(mp.MicropolarModuli(a, b, rng.uniform(-1, 1, (3, 3, 3, 3))))


def test_certify_seed_determinism():
    lag = random_micropolar_density(np.random.default_rng(7))
    a = certify_null(lag, trials=6, degree=3, seed=123)
    assert not a.passed
    assert certify_null(lag, trials=6, degree=3, seed=123) == a
    different = certify_null(lag, trials=6, degree=3, seed=124)
    assert different.max_normalized_residual != a.max_normalized_residual


def test_certify_validates_arguments():
    lag = mp.iso_null_evaluator(1.0)
    with pytest.raises(ValueError, match="trials"):
        certify_null(lag, trials=0)
    with pytest.raises(ValueError, match="degree"):
        certify_null(lag, trials=1, degree=1)
    with pytest.raises(ValueError, match="seed must be an integer >= 0, got -1"):
        certify_null(lag, trials=1, seed=-1)


def test_closed_vs_fd_cross_validation():
    rng = np.random.default_rng(5)
    for _ in range(5):
        a = rng.uniform(-1, 1, (3, 3, 3, 3))
        a = 0.5 * (a + np.transpose(a, (2, 3, 0, 1)))
        b = rng.uniform(-1, 1, (3, 3, 3, 3))
        b = 0.5 * (b + np.transpose(b, (2, 3, 0, 1)))
        d = rng.uniform(-1, 1, (3, 3, 3, 3))
        lag = mp.lagrangian(mp.MicropolarModuli(a, b, d))
        y = random_polyfield(rng, 6, 3)
        x = rng.uniform(0, 1, 3)
        closed, s1 = vf._residual_and_scale(lag, y, x, "closed")
        fd, s2 = vf._residual_and_scale(lag, y, x, "fd")
        assert np.max(np.abs(closed - fd)) / s1 <= 1e-5


def test_certify_failing_model_reports_path_and_tolerances():
    m = mp.IsotropicParams(1.0, 1.0, 1.0, 0.0, 0.0, 0.0).moduli()
    cert = certify_null(mp.lagrangian(m), trials=3, seed=9)
    assert not cert.passed
    assert cert.path == "closed-form"
    assert cert.residual_tolerance == 1e-10
    payload = cert.as_dict()
    assert payload["passed"] is False
    assert len(payload["boundary_action_deltas"]) == 3


def test_field_sampler_perturbation_vanishes_on_boundary():
    sampler = FieldSampler(4)
    rng = np.random.default_rng(6)
    delta = sampler.boundary_delta(rng, 3)
    for axis in range(3):
        for value in (0.0, 1.0):
            pt = rng.uniform(0, 1, 3)
            pt[axis] = value
            assert np.max(np.abs(delta.eval(pt[None, :])[0])) <= 1e-15


X = sp.symbols("x1:4")


def sympy_components(field):
    """The field's components as exact sympy polynomials."""
    return [sp.Poly.from_dict({e: sp.Rational(c) for e, c in terms.items()}, X) for terms in field.terms]


def reference_certificate_residual(lag, trials, degree, seed, points_per_trial=3):
    """certify_null's residual pass, one point at a time through
    euler_residual, with Hessians from sympy's exact second partials."""
    children = np.random.SeedSequence(seed).spawn(trials + 3)
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng(children[t])
        field = FieldSampler(lag.n).field(rng, degree)
        second = [c.diff(a).diff(b) for c in sympy_components(field) for a in X for b in X]
        for x in rng.uniform(0.0, 1.0, size=(points_per_trial, 3)):
            at = [sp.Rational(v) for v in x]
            hess = max(abs(float(d(*at))) for d in second)
            scale = 1.0 + lag.second_derivative_scale() * hess
            worst = max(worst, float(np.max(np.abs(euler_residual(lag, field, x)))) / scale)
    return worst


def test_certify_matches_per_point_reference():
    rng = np.random.default_rng(8)
    sym = lambda t: 0.5 * (t + np.transpose(t, (2, 3, 0, 1)))
    c = project(rng.uniform(-1, 1, (3, 3, 3, 3)), em.EM_ELASTIC_CLASS)
    z4, z3, z2 = np.zeros((3, 3, 3, 3)), np.zeros((3, 3, 3)), np.zeros((3, 3))
    qc_moduli = qc.QcModuli(project(rng.uniform(-1, 1, (3, 3, 3, 3)), qc.PHONON_CLASS),
                            project(rng.uniform(-1, 1, (3, 3, 3, 3)), qc.MINOR_LEFT),
                            sym(rng.uniform(-1, 1, (3, 3, 3, 3))))
    densities = [
        mp.iso_null_evaluator(0.7),
        random_micropolar_density(rng),
        qc.lagrangian(qc_moduli),
        qc.lagrangian(qc.QcModuli(z4, z4, qc.admissible_phason_modulus({(0, 1, 1, 2): 1.0}))),
        em.lagrangian(em.EmModuli(c, z3, z3, z2, z2, z2)),
    ]
    verdicts = []
    for lag in densities:
        cert = certify_null(lag, trials=5, degree=3, seed=11)
        ref = reference_certificate_residual(lag, trials=5, degree=3, seed=11)
        assert (ref <= cert.residual_tolerance) == (cert.max_normalized_residual <= cert.residual_tolerance)
        assert cert.max_normalized_residual == pytest.approx(ref, rel=1e-12, abs=1e-15)
        verdicts.append(cert.passed)
    assert verdicts == [True, False, False, True, False]


def reference_fd_partials(lag, x0, y0, dy0):
    """The finite-difference stencil built row by row from Python dicts, in
    the row and operation order that `_fd_partials` keeps."""
    n = lag.n
    z0 = np.concatenate([x0, y0, dy0.reshape(-1)])
    h = lag.fd_base_step * (1.0 + np.abs(z0))
    rows = []

    def push(*bumps):
        z = z0.copy()
        for idx, amount in bumps:
            z[idx] += amount
        rows.append(z)
        return len(rows) - 1

    def plan_pm(i):
        return [(push((i, +s)), push((i, -s)), s) for s in (1.0 * h[i], 0.5 * h[i])]

    def plan_mixed(i, j):
        recs = []
        for scale in (1.0, 0.5):
            si, sj = scale * h[i], scale * h[j]
            recs.append((push((i, +si), (j, +sj)), push((i, +si), (j, -sj)),
                         push((i, -si), (j, +sj)), push((i, -si), (j, -sj)), si, sj))
        return recs

    idp = lambda k, g: 3 + n + 3 * k + g
    first_plan = [plan_pm(3 + k) for k in range(n)]
    center = push()
    xdyp = {(g, k): plan_mixed(g, idp(k, g)) for g in range(3) for k in range(n)}
    ydyp = {(j, k, g): plan_mixed(3 + j, idp(k, g)) for j in range(n) for k in range(n) for g in range(3)}
    dypdyp = {}
    for a in range(3 * n):
        for b in range(a, 3 * n):
            i, j = 3 + n + a, 3 + n + b
            dypdyp[(a, b)] = plan_pm(i) if a == b else plan_mixed(i, j)

    batch = np.array(rows)
    vals = lag.evaluate(batch[:, :3], batch[:, 3:3 + n], batch[:, 3 + n:].reshape(-1, n, 3))
    f0 = vals[center]
    richardson = lambda e: (4.0 * e[1] - e[0]) / 3.0
    first = lambda recs: richardson([(vals[p] - vals[q]) / (2.0 * s) for p, q, s in recs])
    diag = lambda recs: richardson([(vals[p] - 2.0 * f0 + vals[q]) / (s * s) for p, q, s in recs])
    mixed = lambda recs: richardson([(vals[pp] - vals[pm] - vals[mp] + vals[mm]) / (4.0 * si * sj)
                                     for pp, pm, mp, mm, si, sj in recs])

    d_y = np.array([first(recs) for recs in first_plan])
    d_x_dyp = np.zeros((3, n, 3))
    for (g, k), recs in xdyp.items():
        d_x_dyp[g, k, g] = mixed(recs)
    d_y_dyp = np.zeros((n, n, 3))
    for (j, k, g), recs in ydyp.items():
        d_y_dyp[j, k, g] = mixed(recs)
    d_dyp = np.zeros((3 * n, 3 * n))
    for (a, b), recs in dypdyp.items():
        d_dyp[a, b] = d_dyp[b, a] = diag(recs) if a == b else mixed(recs)
    return d_y, d_x_dyp, d_y_dyp, d_dyp.reshape(n, 3, n, 3)


def test_fd_partials_bit_identical_to_dict_stencil():
    from nullag.rund import build_null_lagrangian, random_generator_set

    rng = np.random.default_rng(21)
    p, q, r = rng.uniform(-1, 1, (3, 3, 3, 3)), rng.uniform(-1, 1, (3, 3, 3)), rng.uniform(-1, 1, (3, 3))
    densities = [QuadraticLagrangian(p, q, r),
                 build_null_lagrangian(random_generator_set(np.random.default_rng(22), 6, 3))]
    for lag in densities:
        for _ in range(3):
            x0, y0, dy0 = rng.uniform(0, 1, 3), rng.uniform(-1, 1, lag.n), rng.uniform(-1, 1, (lag.n, 3))
            got = vf._fd_partials(lag, x0, y0, dy0)
            ref = reference_fd_partials(lag, x0, y0, dy0)
            for a, b in zip(got, ref):
                assert a.shape == b.shape
                assert np.all(a == b)


def test_quadratic_evaluate_matches_einsum_form():
    rng = np.random.default_rng(23)
    sym3 = lambda t: 0.5 * (t + np.transpose(t, (0, 2, 1)))
    sym2 = lambda t: 0.5 * (t + t.T)
    sym4 = lambda t: 0.5 * (t + np.transpose(t, (2, 3, 0, 1)))
    densities = [
        random_micropolar_density(rng),
        qc.lagrangian(qc.QcModuli(project(rng.uniform(-1, 1, (3, 3, 3, 3)), qc.PHONON_CLASS),
                                  project(rng.uniform(-1, 1, (3, 3, 3, 3)), qc.MINOR_LEFT),
                                  sym4(rng.uniform(-1, 1, (3, 3, 3, 3))))),
        em.lagrangian(em.EmModuli(
            project(rng.uniform(-1, 1, (3, 3, 3, 3)), em.EM_ELASTIC_CLASS),
            sym3(rng.uniform(-1, 1, (3, 3, 3))), sym3(rng.uniform(-1, 1, (3, 3, 3))),
            sym2(rng.uniform(-1, 1, (3, 3))), sym2(rng.uniform(-1, 1, (3, 3))),
            sym2(rng.uniform(-1, 1, (3, 3))),
        )),
    ]
    for lag in densities:
        m = 500
        x, y, dy = rng.uniform(0, 1, (m, 3)), rng.uniform(-1, 1, (m, lag.n)), rng.uniform(-1, 1, (m, lag.n, 3))
        ref = 0.5 * np.einsum("mjb,jbkc,mkc->m", dy, lag.p, dy)
        ref += np.einsum("mjb,jbk,mk->m", dy, lag.q, y)
        ref += 0.5 * np.einsum("mj,jk,mk->m", y, lag.r, y)
        size = 0.5 * np.einsum("mjb,jbkc,mkc->m", abs(dy), abs(lag.p), abs(dy))
        size += np.einsum("mjb,jbk,mk->m", abs(dy), abs(lag.q), abs(y))
        size += 0.5 * np.einsum("mj,jk,mk->m", abs(y), abs(lag.r), abs(y))
        assert np.all(np.abs(lag.evaluate(x, y, dy) - ref) <= 1e-12 * size)


class ThreeBlockDensity(QuadraticLagrangian):
    """A quadratic density that takes the p, q and r terms on every call, in
    the order `QuadraticLagrangian` adds them, zero blocks included."""

    def evaluate(self, x, y, dy):
        f = np.asarray(dy, dtype=float).reshape(len(dy), 3 * self.n)
        out = 0.5 * np.einsum("mi,mi->m", f @ self.p.reshape(3 * self.n, 3 * self.n), f)
        out += np.einsum("mi,mi->m", f @ self.q.reshape(3 * self.n, self.n), y)
        out += 0.5 * np.einsum("mi,mi->m", y @ self.r, y)
        return out

    def closed_residual(self, x, y0, dy0, d2y0):
        res = np.einsum("kcj,...jc->...k", self.q, dy0)
        res -= np.einsum("jbk,...jb->...k", self.q, dy0)
        res += np.einsum("kcjb,...jbc->...k", self.p, d2y0)
        res -= np.einsum("kj,...j->...k", self.r, y0)
        return res, self.second_derivative_scale()


def zero_block_densities(rng):
    """Quasicrystal, em_elast and B-only micropolar densities: q and r are 0."""
    sym4 = lambda t: 0.5 * (t + np.transpose(t, (2, 3, 0, 1)))
    sym3 = lambda t: 0.5 * (t + np.transpose(t, (0, 2, 1)))
    sym2 = lambda t: 0.5 * (t + t.T)
    z4 = np.zeros((3, 3, 3, 3))
    return [
        qc.lagrangian(qc.QcModuli(project(rng.uniform(-1, 1, (3, 3, 3, 3)), qc.PHONON_CLASS),
                                  project(rng.uniform(-1, 1, (3, 3, 3, 3)), qc.MINOR_LEFT),
                                  sym4(rng.uniform(-1, 1, (3, 3, 3, 3))))),
        em.lagrangian(em.EmModuli(
            project(rng.uniform(-1, 1, (3, 3, 3, 3)), em.EM_ELASTIC_CLASS),
            sym3(rng.uniform(-1, 1, (3, 3, 3))), sym3(rng.uniform(-1, 1, (3, 3, 3))),
            sym2(rng.uniform(-1, 1, (3, 3))), sym2(rng.uniform(-1, 1, (3, 3))),
            sym2(rng.uniform(-1, 1, (3, 3))),
        )),
        mp.lagrangian(mp.MicropolarModuli(z4, sym4(rng.uniform(-1, 1, (3, 3, 3, 3))), z4)),
        mp.lagrangian(mp.MicropolarModuli(z4, mp.split_B(sym4(rng.uniform(-1, 1, (3, 3, 3, 3)))).b_tilde, z4)),
    ]


def assert_same_as_three_blocks(lag, rng):
    ref = ThreeBlockDensity(lag.p, lag.q, lag.r)
    assert all(np.array_equal(getattr(ref, name), getattr(lag, name)) for name in "pqr")
    m = 200
    x, y, dy = rng.uniform(0, 1, (m, 3)), rng.uniform(-1, 1, (m, lag.n)), rng.uniform(-1, 1, (m, lag.n, 3))
    assert np.array_equal(lag.evaluate(x, y, dy), ref.evaluate(x, y, dy))
    fields = [random_polyfield(rng, lag.n, 3), random_polyfield(rng, lag.n, 2)]
    assert np.array_equal(vf._actions(lag, fields, 8), vf._actions(ref, fields, 8))
    pts = rng.uniform(0, 1, (2, 3, 3))
    states = polyfield.field_states(fields, pts)
    for got, want in zip(lag.closed_residual(pts, *states), ref.closed_residual(pts, *states)):
        assert np.array_equal(got, want)
    assert certify_null(lag, trials=4, seed=5).as_dict() == certify_null(ref, trials=4, seed=5).as_dict()


def test_zero_blocks_are_skipped_with_the_same_values():
    rng = np.random.default_rng(41)
    for lag in zero_block_densities(rng):
        assert not lag._uses_q and not lag._uses_r
        assert_same_as_three_blocks(lag, rng)


def test_nonzero_blocks_take_all_three_terms():
    rng = np.random.default_rng(42)
    lag = random_micropolar_density(rng)
    assert lag._uses_q and lag._uses_r
    assert_same_as_three_blocks(lag, rng)


def evaluated_levels(lag):
    """Derivative levels (0 values, 1 gradients, 2 Hessians) that `_actions`
    and the residual states of `certify_null` and `euler_residual` evaluate
    for `lag`, read off the column count of each evaluated batch."""
    level = {lag.n: 0, 3 * lag.n: 1, 6 * lag.n: 2}
    actions, states = set(), set()
    on_rule, stacked = vf.evaluate_on_rule, polyfield._stacked_eval

    def count_on_rule(table, coeffs, *rest):
        actions.add(level[coeffs.shape[1]])
        return on_rule(table, coeffs, *rest)

    def count_stacked(points, table, coeffs):
        states.add(level[coeffs.shape[1]])
        return stacked(points, table, coeffs)

    rng = np.random.default_rng(44)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vf, "evaluate_on_rule", count_on_rule)
        patch.setattr(polyfield, "_stacked_eval", count_stacked)
        vf._actions(lag, [random_polyfield(rng, lag.n, 2), bubble_damped(random_polyfield(rng, lag.n, 1))], 8)
        certify_null(lag, trials=2, degree=2, seed=3, boundary_pairs=1)
        euler_residual(lag, random_polyfield(rng, lag.n, 2), [0.2, 0.3, 0.4])
    return actions, states


def test_gradient_only_densities_skip_values():
    rng = np.random.default_rng(45)
    isotropic = mp.lagrangian(mp.IsotropicParams(0.5, 0.3, 0.0, 1.0, 0.3, -0.2).moduli())
    for lag in zero_block_densities(rng) + [isotropic]:
        assert not lag.reads_values
        assert evaluated_levels(lag) == ({1}, {2})


def test_densities_that_read_values_get_every_level():
    rng = np.random.default_rng(46)
    quasicrystal = zero_block_densities(rng)[0]
    for lag in (random_micropolar_density(rng),
                rund.build_null_lagrangian(rund.random_generator_set(rng, 2, degree=2)),
                ThreeBlockDensity(quasicrystal.p, quasicrystal.q, quasicrystal.r)):
        assert lag.reads_values
        assert evaluated_levels(lag) == ({0, 1}, {0, 1, 2})


def test_density_blocks_are_read_only():
    rng = np.random.default_rng(43)
    q = rng.uniform(-1, 1, (2, 3, 2))
    lag = QuadraticLagrangian(rng.uniform(-1, 1, (2, 3, 2, 3)), q, rng.uniform(-1, 1, (2, 2)))
    for block in (lag.p, lag.q, lag.r):
        with pytest.raises(ValueError, match="read-only"):
            block[(0,) * block.ndim] = 1.0
    q[0, 0, 0] = 2.0  # the caller's array stays its own and writable
    assert lag.q[0, 0, 0] != 2.0
