import inspect
import itertools
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp

from fd_oracle import fd_point_residual
from nullag import em
from nullag import micropolar as mp
from nullag import polyfield
from nullag import quasicrystal as qc
from nullag import rund
from nullag import verifier as vf
from nullag.cli import _json_text
from nullag.polyfield import (
    PolyField,
    bubble,
    constant_field,
    evaluate_monomials,
    random_polyfield,
    stack_fields,
)
from nullag.quadrature import boundary_rule, cube_rule, required_order
from nullag.report import make_check
from nullag.tensors import MAJOR, MINOR_LEFT, TILDE, class_projector_matrix, project
from nullag.verifier import (
    FieldSampler,
    Lagrangian,
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
    lag = QuadraticLagrangian(np.zeros((3, 3, 3, 3)))
    y = random_polyfield(np.random.default_rng(0), 3, 3)
    res = euler_residual(lag, y, [0.2, 0.2, 0.2])
    assert np.array_equal(res, np.zeros(3))


def test_iso_null_evaluator_residual_vanishes():
    lag = mp.iso_null_evaluator(1.0)
    rng = np.random.default_rng(1)
    for _ in range(10):
        y = random_polyfield(rng, 6, 3)
        x = rng.uniform(0, 1, 3)
        res, scale = vf._residual_and_scale(lag, y, x)
        assert np.max(np.abs(res)) / scale <= 1e-10


def test_action_integral_constant():
    """L = r[y,y]/2 with r = 2 is 1 on the field y = 1."""
    lag = QuadraticLagrangian(np.zeros((1, 3, 1, 3)), r=2.0 * np.eye(1))
    assert action_integral(lag, constant_field([1.0]), 2) == pytest.approx(1.0, abs=1e-15)


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


def overflowing_density(n=1):
    """L = r[y,y]/2 with finite entries of 1e300, which overflows at |y| >= 1e10."""
    return QuadraticLagrangian(np.zeros((n, 3, n, 3)), r=np.array([[1e300, -1e300], [-1e300, 1e300]])[:n, :n])


def test_action_integral_rejects_nonfinite():
    """y = (1e10, 1e10) meets +inf and -inf in y @ r, so the density is NaN."""
    lag, y = overflowing_density(2), constant_field([1e10, 1e10])
    pts = cube_rule(2)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.all(np.isnan(lag.evaluate(pts, y.eval(pts), y.eval_grad(pts))))
    with pytest.raises(FloatingPointError):
        action_integral(lag, y, 2)


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
    lag = overflowing_density()
    fine, bad = PolyField.zero(1), constant_field([1e10])
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
    density = [lag.evaluate(pts, evaluate_monomials((pts,), table.plan, c.T),
                            evaluate_monomials((pts,), child.plan, g.reshape(3 * n, -1).T).reshape(-1, n, 3))
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
    shifted, base = monomial_actions(lag, [y + bubble() * w, y], order)
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
    res, scale = vf._residuals(lag, np.stack(points), *(np.stack(s) for s in zip(*states)))
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


@pytest.mark.parametrize("kwargs, message", [
    ({"points_per_trial": 0, "boundary_pairs": 0}, "points per trial must be an integer >= 1, got 0"),
    ({"boundary_pairs": -1}, "boundary pairs must be an integer >= 0, got -1"),
    ({"residual_tol": float("nan")}, "residual tolerance must be a finite number >= 0, got nan"),
])
def test_certify_rejects_degenerate_sampling(kwargs, message):
    """Without these checks a non-null model passed a certificate that
    sampled no point."""
    lag = mp.lagrangian(mp.IsotropicParams(1.0, 1.0, 1.0, 0.0, 0.0, 0.0).moduli())
    with pytest.raises(ValueError, match=f"^{message}$"):
        certify_null(lag, trials=3, seed=9, **kwargs)


ISO_FAILING = mp.IsotropicParams(1.0, 1.0, 1.0, 0.0, 0.0, 0.0)


@pytest.mark.parametrize("kwargs, message", [
    ({"seed": True}, "seed must be an integer >= 0, got True"),
    ({"seed": 1.0}, "seed must be an integer >= 0, got 1.0"),
    ({"seed": "3"}, "seed must be an integer >= 0, got 3"),
    ({"trials": True}, "trials must be an integer >= 1, got True"),
    ({"trials": 2.0}, "trials must be an integer >= 1, got 2.0"),
    ({"degree": 3.0}, "degree must be an integer >= 2 to exercise second derivatives, got 3.0"),
    ({"order": 8.5}, "order must be an integer >= 1, got 8.5"),
    ({"points_per_trial": np.float64(3.0)}, "points per trial must be an integer >= 1, got 3.0"),
    ({"boundary_pairs": False}, "boundary pairs must be an integer >= 0, got False"),
    ({"boundary_pairs": None}, "boundary pairs must be an integer >= 0, got None"),
])
def test_certify_arguments_are_integers_only(kwargs, message):
    """A bool or a float is not read as the integer it equals."""
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        certify_null(mp.lagrangian(ISO_FAILING.moduli()), **{"trials": 2, **kwargs})


@pytest.mark.parametrize("kind", [np.int64, np.int32, np.uint8])
def test_certify_stores_numpy_integers_as_int(kind):
    lag = mp.lagrangian(ISO_FAILING.moduli())
    kwargs = {"trials": 3, "degree": 2, "seed": 3, "order": 4, "points_per_trial": 2, "boundary_pairs": 2}
    cert = certify_null(lag, **{k: kind(v) for k, v in kwargs.items()})
    assert type(cert.trials) is type(cert.degree) is type(cert.seed) is int
    assert cert == certify_null(lag, **kwargs)
    assert _json_text(cert.as_dict()) == _json_text(certify_null(lag, **kwargs).as_dict())


#: Each taker of a tolerance: a call that returns the tolerance it stored, and the name its errors give it.
TOLERANCE_TAKERS = {
    "certify_null": (lambda tol: certify_null(mp.lagrangian(ISO_FAILING.moduli()), trials=2, seed=3,
                                              residual_tol=tol).residual_tolerance, "residual tolerance"),
    "make_check": (lambda tol: make_check("C zero", 0.0, 1e-3, tol).tolerance, "absolute tolerance"),
}


@pytest.mark.parametrize("taker", TOLERANCE_TAKERS)
@pytest.mark.parametrize("value", [True, False, "1e-10", 1e-10j, [1e-10]],
                         ids=["true", "false", "string", "complex", "list"])
def test_tolerances_are_real_numbers_only(taker, value):
    """A bool is not read as 1 or 0, nor a string as the number it spells."""
    call, what = TOLERANCE_TAKERS[taker]
    with pytest.raises(ValueError, match=f"^{re.escape(f'{what} must be a finite number >= 0, got {value}')}$"):
        call(value)


@pytest.mark.parametrize("taker", TOLERANCE_TAKERS)
@pytest.mark.parametrize("value", [np.float32(1e-10), np.float64(0.25), np.int64(1), Fraction(1, 4)],
                         ids=["float32", "float64", "int64", "fraction"])
def test_tolerances_are_stored_as_float(taker, value):
    stored = TOLERANCE_TAKERS[taker][0](value)
    assert type(stored) is float and stored == float(value)


def numpy_streams(seed, count):
    """The reference streams: one `default_rng` per child of numpy's spawn."""
    for child in np.random.SeedSequence(seed).spawn(count):
        yield np.random.default_rng(child)


@pytest.mark.parametrize("count", [1, 2, 67, 300])
@pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 7, 3**126])
def test_trial_generators_are_numpy_spawned_streams(seed, count):
    got = [rng.bit_generator.state for rng in vf._trial_generators(seed, count)]
    assert got == [rng.bit_generator.state for rng in numpy_streams(seed, count)]


def test_trial_generators_cross_seeding_blocks():
    count = 2 * vf._SEED_BLOCK + 3
    for rng, ref in zip(vf._trial_generators(7, count), numpy_streams(7, count)):
        assert rng.bit_generator.state == ref.bit_generator.state
        assert rng.random() == ref.random()


def test_trial_generator_memory_does_not_grow_with_the_count():
    def peak(count):
        tracemalloc.start()
        try:
            for _ in vf._trial_generators(5, count):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4 * vf._SEED_BLOCK) <= 1.5 * peak(vf._SEED_BLOCK)


def test_more_than_2_32_children_are_rejected_before_any_work():
    message = "trials plus boundary pairs must be at most 2**32, got 4294967297"
    with pytest.raises(ValueError, match=re.escape(message)):
        next(vf._trial_generators(0, 2**32 + 1))
    with pytest.raises(ValueError, match=re.escape(message)):
        certify_null(mp.iso_null_evaluator(1.0), trials=2**32, boundary_pairs=1)
    first = next(vf._trial_generators(9, 2**32))
    assert first.bit_generator.state == np.random.default_rng(np.random.SeedSequence(9).spawn(1)[0]).bit_generator.state


class RecordingSampler(FieldSampler):
    """Records the bit generator's state at every call, then samples as `base`."""

    def __init__(self, base):
        super().__init__(base.n)
        self.base, self.calls = base, []

    def field(self, rng, degree):
        self.calls.append(("field", rng.bit_generator.state))
        return self.base.field(rng, degree)

    def boundary_delta(self, rng, degree):
        self.calls.append(("delta", rng.bit_generator.state))
        return self.base.boundary_delta(rng, degree)


@pytest.mark.parametrize("base", [FieldSampler(6), mp.CurlFreeRotationSampler()], ids=["dense", "curl-free"])
@pytest.mark.parametrize("lag", [mp.iso_null_evaluator(1.3), mp.lagrangian(ISO_FAILING.moduli())],
                         ids=["null", "failing"])
def test_certificates_keep_the_bits_of_numpy_spawned_streams(monkeypatch, base, lag):
    """Every sampler call sees the state numpy's spawn gives, and the
    certificate has the bits of the per-child streams."""
    runs = []
    for streams in (vf._trial_generators, numpy_streams):
        monkeypatch.setattr(vf, "_trial_generators", streams)
        sampler = RecordingSampler(base)
        runs.append((certify_null(lag, trials=7, seed=2**40 + 3, sampler=sampler, boundary_pairs=4), sampler.calls))
    assert runs[0] == runs[1]
    assert [kind for kind, _ in runs[0][1]] == ["field"] * 7 + ["field", "delta"] * 4


class PassThroughSampler(FieldSampler):
    """The default sampler's fields, through methods that `certify_null`
    calls once per stream: the oracle of its stacked draws."""

    def field(self, rng, degree):
        return super().field(rng, degree)

    def boundary_delta(self, rng, degree):
        return super().boundary_delta(rng, degree)


def random_quadratic_density(rng, n, reads_values):
    """A quadratic density on n fields with random blocks; q and r are zero
    unless it reads values."""
    sym = lambda t: 0.5 * (t + np.transpose(t, (2, 3, 0, 1)))
    p = sym(rng.uniform(-1, 1, (n, 3, n, 3)))
    if not reads_values:
        return QuadraticLagrangian(p)
    return QuadraticLagrangian(p, rng.uniform(-1, 1, (n, 3, n)), rng.uniform(-1, 1, (n, n)))


#: (trials, points per trial, boundary pairs): every trial count, 1025
#: across the 1024-child seeding block, and every pairing of the others.
STACKED_RUNS = [(1, 1, 0), (2, 3, 3), (64, 1, 3), (1025, 3, 0)]


@pytest.mark.parametrize("n", [1, 3, 5, 6])
@pytest.mark.parametrize("degree", [2, 3, 4])
def test_stacked_draws_give_the_per_stream_certificate(degree, n):
    """The default sampler's streams, drawn whole into stacked arrays, give
    the certificate of its methods called once per stream, bit for bit."""
    rng = np.random.default_rng(100 * degree + n)
    lag = random_quadratic_density(rng, n, reads_values=(degree + n) % 2 == 0)
    if (degree, n) == (3, 6):
        lag = mp.iso_null_evaluator(1.3)  # a null density: its residuals are pure rounding
    seed = 2**128 + 7 if degree == 4 else int(rng.integers(2**32))
    for trials, points, pairs in STACKED_RUNS:
        kwargs = dict(trials=trials, degree=degree, seed=seed, points_per_trial=points, boundary_pairs=pairs)
        stacked = certify_null(lag, **kwargs).as_dict()
        assert stacked == certify_null(lag, sampler=PassThroughSampler(n), **kwargs).as_dict()
        assert len(stacked["boundary_action_deltas"]) == pairs


def test_stacked_draws_keep_the_bits_of_numpy_spawned_streams(monkeypatch):
    """Also for a generator density, whose residual reads the trial points."""
    monkeypatch.setattr(vf, "_trial_generators", numpy_streams)
    generated = rund.RundLagrangian(rund.random_generator_set(np.random.default_rng(47), 2, degree=2))
    for lag in (mp.iso_null_evaluator(1.3), mp.lagrangian(ISO_FAILING.moduli()), generated):
        kwargs = dict(trials=9, seed=2**40 + 3, boundary_pairs=4)
        stacked = certify_null(lag, **kwargs).as_dict()
        assert stacked == certify_null(lag, sampler=PassThroughSampler(lag.n), **kwargs).as_dict()


class GivenDoubles:
    """A stand-in for a stream that hands out the given doubles in order,
    to `random(out=)` and, as low + (high - low) * u, to `uniform`."""

    def __init__(self, doubles):
        self.doubles = iter(doubles)

    def random(self, out):
        out[:] = [next(self.doubles) for _ in range(out.size)]

    def uniform(self, low, high, size):
        return low + (high - low) * np.array([next(self.doubles) for _ in range(np.prod(size))]).reshape(size)


def cancelled_column_runs(monkeypatch, pairs, cancelled):
    """Certificates of 3 trials and `pairs` boundary pairs, from the stacked
    draws and from `PolyField` arithmetic, whose pair `cancelled` has w with
    equal constant and x1 coefficients in every component: the x1^2 x2 x3
    column of its bubble() * w, the x1 term times b's x1 x2 x3 plus the
    constant times b's -x1^2 x2 x3, is exactly 0.0.  That pair's y has a
    zero constant term, a column of y alone.  Per run: the certificate, the
    fields that `_actions` was given, and their stack."""
    n, degree, trials = 2, 3, 3
    k = len(polyfield.monomials_upto(3, degree))
    rows = np.random.default_rng(48).random((trials + pairs, n * k + 12))  # more than a stream takes
    w = rows[trials + cancelled, n * k:n * k + 4 * n].reshape(n, 4)  # graded order: 1, x3, x2, x1
    w[:, 3] = w[:, 0]
    rows[trials + cancelled, :n * k:k] = 0.5  # -1 + 2 * 0.5 is 0.0
    monkeypatch.setattr(vf, "_trial_generators", lambda seed, count: map(GivenDoubles, rows[:count].tolist()))
    lag = random_quadratic_density(np.random.default_rng(49), n, True)
    runs, actions = [], vf._actions
    for sampler in (None, PassThroughSampler(n)):
        calls = []
        monkeypatch.setattr(vf, "_actions",
                            lambda lag, fields, order: calls.append(fields) or actions(lag, fields, order))
        cert = certify_null(lag, trials=trials, degree=degree, sampler=sampler, boundary_pairs=pairs)
        [fields] = calls
        table, coeffs = stack_fields(fields)
        runs.append((cert.as_dict(), fields, (table.expos.tolist(), coeffs.tobytes())))
    monkeypatch.setattr(vf, "_actions", actions)
    return runs


def test_a_cancelled_product_column_takes_polyfield_arithmetic(monkeypatch):
    """Among other pairs, the stacked draws keep the cancelled column, as an
    exact 0.0 on the one table of every perturbed field, where `*` drops it
    from that pair alone.  In a lone pair the column is dropped, as `*`
    drops it, and y's zero column is kept, as `+` keeps it, so both paths
    give the same tables.  Either way the stack that `_actions` integrates,
    and so the certificate, has the bits of `PolyField` arithmetic."""
    (stacked, fields, stack), (cert, reference, reference_stack) = cancelled_column_runs(monkeypatch, 3, 1)
    assert stacked == cert and stack == reference_stack
    perturbed = fields[1::2]
    assert len({f._table for f in perturbed}) == 1
    expos = perturbed[0]._table.expos.tolist()
    assert [2, 1, 1] in expos and perturbed[1]._coeffs[:, expos.index([2, 1, 1])].tolist() == [0.0, 0.0]
    assert [[2, 1, 1] in f._table.expos.tolist() for f in reference[1::2]] == [True, False, True]

    (stacked, fields, stack), (cert, reference, reference_stack) = cancelled_column_runs(monkeypatch, 1, 0)
    assert stacked == cert and stack == reference_stack
    expos = [f._table.expos.tolist() for f in fields]
    assert expos == [f._table.expos.tolist() for f in reference]
    assert [2, 1, 1] not in expos[1] and [0, 0, 0] in expos[1]
    assert fields[1]._coeffs[:, expos[1].index([0, 0, 0])].tolist() == [0.0, 0.0]


class MixedDegreeSampler(FieldSampler):
    """Perturbations whose w alternates degrees 2 and 1, so the pairs'
    integrands need different quadrature orders."""

    def __init__(self, n):
        super().__init__(n)
        self.calls = 0

    def boundary_delta(self, rng, degree):
        self.calls += 1
        return bubble() * random_polyfield(rng, self.n, 1 + self.calls % 2)


def test_pairs_of_different_orders_share_one_action_call(monkeypatch):
    """Every pair is integrated in one `_actions` call, at the highest order
    any of them needs: 13 here, where the degree-1 pairs alone need 10."""
    lag = rund.RundLagrangian(rund.random_generator_set(np.random.default_rng(3), 3, 3))
    calls, actions = [], vf._actions
    monkeypatch.setattr(vf, "_actions",
                        lambda lag, fields, order: calls.append((len(fields), order)) or actions(lag, fields, order))
    cert = certify_null(lag, degree=2, seed=5, boundary_pairs=4, sampler=MixedDegreeSampler(lag.n))
    assert calls == [(8, 13)]
    assert cert.passed and all(d <= vf.ACTION_TOL_REL for d in cert.boundary_action_deltas)


class EvaluateOnly(Lagrangian):
    """A density that gives only its values: no closed residual, no degree bound."""

    n = 1

    def evaluate(self, x, y, dy):
        return np.ones(len(x))


@pytest.mark.parametrize("call, missing", [
    (lambda lag, y: certify_null(lag, trials=1), "closed_residual"),
    (lambda lag, y: euler_residual(lag, y, [0.2, 0.3, 0.4]), "closed_residual"),
    (lambda lag, y: action_integral(lag, y, 2), "integrand_degree"),
], ids=["certify_null", "euler_residual", "action_integral"])
def test_density_without_closed_residual_is_rejected(call, missing):
    with pytest.raises(TypeError, match=f"^EvaluateOnly defines no {missing}, "):
        call(EvaluateOnly(), random_polyfield(np.random.default_rng(47), 1, 2))


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
        closed, s1 = vf._residual_and_scale(lag, y, x)
        fd, _ = fd_point_residual(lag, y, x)
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
        vf._actions(lag, [random_polyfield(rng, lag.n, 2), bubble() * random_polyfield(rng, lag.n, 1)], 8)
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
                rund.RundLagrangian(rund.random_generator_set(rng, 2, degree=2)),
                ThreeBlockDensity(quasicrystal.p, quasicrystal.q, quasicrystal.r)):
        assert lag.reads_values
        assert evaluated_levels(lag) == ({0, 1}, {0, 1, 2})


@pytest.mark.parametrize("blocks, name, shape, expected", [
    ((np.zeros((2, 3, 3, 3)),), "p", (2, 3, 3, 3), (2, 3, 2, 3)),
    ((np.zeros((2, 3, 2)),), "p", (2, 3, 2), (2, 3, 2, 3)),
    ((np.zeros(()),), "p", (), (0, 3, 0, 3)),
    ((np.zeros((2, 3, 2, 3)), np.zeros((3, 3, 3))), "q", (3, 3, 3), (2, 3, 2)),
    ((np.zeros((2, 3, 2, 3)), np.zeros((2, 2, 3))), "q", (2, 2, 3), (2, 3, 2)),
    ((np.zeros((2, 3, 2, 3)), None, np.zeros((3, 3))), "r", (3, 3), (2, 2)),
    ((np.zeros((2, 3, 2, 3)), None, np.zeros(2)), "r", (2,), (2, 2)),
], ids=["p-trailing", "p-rank3", "p-scalar", "q-n3", "q-swapped", "r-n3", "r-vector"])
def test_density_blocks_of_the_wrong_shape_are_rejected(blocks, name, shape, expected):
    with pytest.raises(ValueError, match=re.escape(f"density block {name} has shape {shape}, expected {expected}")):
        QuadraticLagrangian(*blocks)


def test_density_blocks_are_read_only():
    rng = np.random.default_rng(43)
    q = rng.uniform(-1, 1, (2, 3, 2))
    lag = QuadraticLagrangian(rng.uniform(-1, 1, (2, 3, 2, 3)), q, rng.uniform(-1, 1, (2, 2)))
    for block in (lag.p, lag.q, lag.r):
        with pytest.raises(ValueError, match="read-only"):
            block[(0,) * block.ndim] = 1.0
    q[0, 0, 0] = 2.0  # the caller's array stays its own and writable
    assert lag.q[0, 0, 0] != 2.0


# ------------------------------------- exact null criterion on admissible moduli

def null_criterion(lag):
    """The exact null criterion of a quadratic density with constant blocks
    (Ball, Currie & Olver, J. Funct. Anal. 41, 1981): its Euler residual
    (q_kcj - q_jck) D_c y_j + p_kcjb D_b D_c y_j - r_kj y_j vanishes for
    every field exactly when p + p^(c<->b), q - q^(k<->j) and r are zero.
    Returns the three, flattened and stacked."""
    p, q, r = lag.p, lag.q, lag.r
    return np.concatenate([(p + p.transpose(0, 3, 2, 1)).ravel(), (q - q.transpose(2, 1, 0)).ravel(), r.ravel()])


def class_basis(cls, size):
    """Orthonormal basis (size, k) of the flat tensors of a symmetry class,
    or of every flat tensor for cls None."""
    if cls is None:
        return np.eye(size)
    values, vectors = np.linalg.eigh(class_projector_matrix(cls))
    return vectors[:, values > 0.5]


T4, T3, T2 = (3, 3, 3, 3), (3, 3, 3), (3, 3)

#: family -> (density of its moduli blocks, each block's shape and the
#: symmetry class its constructor demands)
ADMISSIBLE = {
    "micropolar": (lambda *t: mp.lagrangian(mp.MicropolarModuli(*t)),
                   [(T4, MAJOR), (T4, MAJOR), (T4, None)]),
    "quasicrystal": (lambda *t: qc.lagrangian(qc.QcModuli(*t)),
                     [(T4, qc.PHONON_CLASS), (T4, MINOR_LEFT), (T4, MAJOR)]),
    "em_elast": (lambda *t: em.lagrangian(em.EmModuli(*t)),
                 [(T4, em.EM_ELASTIC_CLASS), (T3, em.TRAILING_SYM3), (T3, em.TRAILING_SYM3),
                  (T2, em.SYM2), (T2, em.SYM2), (T2, em.SYM2)]),
}


def criterion_kernel(family, blocks):
    """Kernel of the null criterion on the admissible moduli of the given
    blocks, the others zero: an orthonormal basis (rows) in the coordinates
    of the admissible bases, the singular values of the map, and the bases."""
    density, shapes = ADMISSIBLE[family]
    columns, bases = [], []
    for b in blocks:
        shape, cls = shapes[b]
        bases.append(class_basis(cls, int(np.prod(shape))))
        for vector in bases[-1].T:
            moduli = [np.zeros(zero_shape) for zero_shape, _ in shapes]
            moduli[b] = vector.reshape(shape)
            columns.append(null_criterion(density(*moduli)))
    _, s, vt = np.linalg.svd(np.array(columns).T)
    return vt[int(np.sum(s > 1e-10)):], s, bases


@pytest.mark.parametrize("family, admissible, dim, block_dims", [
    ("micropolar", 171, 27, (0, 9, 18)),
    ("quasicrystal", 120, 9, (0, 0, 9)),
    ("em_elast", 75, 0, (0, 0, 0, 0, 0, 0)),
], ids=["micropolar", "quasicrystal", "em_elast"])
def test_null_criterion_kernel_dimensions(family, admissible, dim, block_dims):
    """The moduli that pass the exact criterion: as many dimensions as the
    family's sufficient conditions admit (27, 9 and 0), so those conditions
    are also necessary."""
    blocks = range(len(block_dims))
    kernel, s, _ = criterion_kernel(family, blocks)
    assert s.size == admissible
    assert len(kernel) == dim
    for b, want in zip(blocks, block_dims):
        block_kernel, block_s, _ = criterion_kernel(family, [b])
        assert len(block_kernel) == want
        s = np.concatenate([s, block_s])
    # a clear gap between the kept and the dropped singular values
    assert np.all((s >= 0.5) | (s <= 1e-10))


@pytest.mark.parametrize("family, block, projector", [
    ("micropolar", 1, lambda: class_projector_matrix(TILDE)),
    ("micropolar", 2, mp.coupling_direct_projector),
    ("quasicrystal", 2, lambda: class_projector_matrix(TILDE)),
], ids=["micropolar-B-tilde", "micropolar-D-coupling", "quasicrystal-E-tilde"])
def test_null_criterion_kernel_is_the_sufficient_condition_class(family, block, projector):
    kernel, _, (basis,) = criterion_kernel(family, [block])
    flat = basis @ kernel.T
    assert np.max(np.abs(flat @ flat.T - projector())) <= 1e-12


def recorded_conditions(module, check, *args):
    """The tensors and the condition list that `check` passes to
    `check_conditions`, recorded by replacing that name in `module`."""
    calls = []

    def record(tensors, conditions, tol_abs):
        calls.append((tensors, conditions))

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(module, "check_conditions", record)
        check(*args)
    (call,) = calls
    return call


def condition_kernel(tensors, conditions, bases):
    """Kernel of a coded condition system, its maps evaluated on the given
    orthonormal bases (tensor key -> (size, k)) of the tensors, all zero but
    one at a time: as `criterion_kernel`, rows in the bases' coordinates,
    and the singular values."""
    columns = []
    for key, basis in bases.items():
        for vector in basis.T:
            moduli = {**tensors, key: vector.reshape(tensors[key].shape)}
            columns.append(np.concatenate([np.ravel(linear(moduli[k])) for _, k, linear in conditions]))
    _, s, vt = np.linalg.svd(np.array(columns).T)
    return vt[int(np.sum(s > 1e-10)):], s


@pytest.mark.parametrize("family, check, moduli, dim", [
    ("micropolar", mp.check_null_sufficient, mp.MicropolarModuli, 27),
    ("quasicrystal", qc.check_qc_null, qc.QcModuli, 9),
    ("em_elast", em.check_em_null, em.EmModuli, 0),
], ids=["micropolar", "quasicrystal", "em_elast"])
def test_coded_null_conditions_pass_exactly_the_null_criterion(family, check, moduli, dim):
    """The condition list each family check runs, on the admissible moduli,
    has the kernel of the exact criterion: the coded sufficient conditions
    are also necessary."""
    tensors, conditions = recorded_conditions(inspect.getmodule(check), check, moduli.zero())
    assert all(not t.any() for t in tensors.values())
    shapes = ADMISSIBLE[family][1]
    assert [t.shape for t in tensors.values()] == [shape for shape, _ in shapes]
    bases = {key: class_basis(cls, int(np.prod(shape))) for key, (shape, cls) in zip(tensors, shapes)}
    kernel, s = condition_kernel(tensors, conditions, bases)
    assert len(kernel) == dim
    assert np.all((s >= 0.5) | (s <= 1e-10))
    criterion, _, _ = criterion_kernel(family, range(len(shapes)))
    assert np.max(np.abs(kernel.T @ kernel - criterion.T @ criterion)) <= 1e-12


def hemitropic_cells():
    """Hemitropic constants (lam, mu, kappa, beta1, beta2, beta3, zeta, nu,
    rho): the null, lambda-broken and zeta-broken cells of
    `test_hemitropic_null_family_verdicts`, then 400 seeded null cells
    (beta1 = -beta3, the rest 0) with up to three of the nine set to +-1,
    2 or a uniform draw."""
    cells = [(0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0), (1.0, -1.0, 1.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0),
             (0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 1.0, -1.0, 1.0)]
    rng = np.random.default_rng(34)
    for _ in range(400):
        cell = np.zeros(9)
        cell[3] = rng.uniform(-2, 2)
        cell[5] = -cell[3]
        for k in rng.choice(9, size=rng.integers(4), replace=False):
            cell[k] = rng.choice([-1.0, 1.0, 2.0]) if rng.uniform() < 0.5 else rng.uniform(-2, 2)
        cells.append(tuple(cell.tolist()))
    return cells


def test_hemitropic_models_are_null_exactly_for_the_hemitropic_relations():
    """lam = mu = kappa = beta2 = zeta = nu = rho = 0 and beta1 + beta3 = 0:
    the sufficient conditions and the exact criterion both hold exactly there."""
    verdicts = []
    for cell in hemitropic_cells():
        p = mp.HemitropicParams(*cell)
        null = not any(cell[k] for k in (0, 1, 2, 4, 6, 7, 8)) and p.beta1 + p.beta3 == 0.0
        assert mp.check_null_sufficient(p.moduli()).passed == null, cell
        assert (not np.any(null_criterion(mp.lagrangian(p.moduli())))) == null, cell
        verdicts.append(null)
    assert verdicts[:3] == [True, False, False]
    assert 100 <= sum(verdicts) <= len(verdicts) - 100


def rund_sets(n):
    """Rund's construction at field dimension n, the third generator 0: the
    "minor" sets S^a = y_i, S^b = y_j (a < b, i < j), whose density is the
    minor (i, j | a, b) of Dy, then the "divergence" sets S^a = x_a,
    S^b = y_k y_j (a = b + 1 mod 3, k <= j), whose density is D_b(y_k y_j)."""
    def monomial(*variables):
        expo = [0] * (3 + n)
        for v in variables:
            expo[v] += 1
        return rund.GenPoly(3 + n, {tuple(expo): 1})

    def generator_set(polys):
        return rund.GeneratorSet([polys.get(a, rund.GenPoly(3 + n)) for a in range(3)], n)

    minors = [generator_set({a: monomial(3 + i), b: monomial(3 + j)})
              for a, b in itertools.combinations(range(3), 2) for i, j in itertools.combinations(range(n), 2)]
    divergences = [generator_set({(b + 1) % 3: monomial((b + 1) % 3), b: monomial(3 + k, 3 + j)})
                   for b in range(3) for k, j in itertools.combinations_with_replacement(range(n), 2)]
    return minors + divergences


def rund_blocks(g):
    """The P and Q blocks, flattened and stacked, of the density of a set
    whose d2 is constant and d1 linear in y, laid out as those of
    `QuadraticLagrangian`: p[i,a,j,b] = d2[a,b,i,j] and q[i,a,j] = d1[a,i]
    at y = e_j.  Asserts that d0 vanishes at each of those points."""
    x = np.array([0.3, 0.1, 0.9])
    states = [rund.rund_coefficients(g, x, y) for y in np.eye(g.n + 1, g.n, -1)]  # y = 0, e_1 .. e_N
    assert all(c.d0 == 0.0 for c in states)
    q = np.stack([c.d1.T for c in states[1:]], axis=-1)
    return np.concatenate([np.transpose(states[0].d2, (2, 0, 3, 1)).ravel(), q.ravel()])


def test_rund_construction_spans_every_null_density_at_n6():
    """The 108 sets are independent, and each null density of micropolar
    (27 dimensions) and quasicrystal (9) moduli is a sum of their densities:
    Rund's sufficient conditions give every null quadratic density of
    these media."""
    rows = np.array([rund_blocks(g) for g in rund_sets(6)])
    assert len(rows) == 108
    assert np.linalg.matrix_rank(rows) == 108
    s = np.linalg.svd(rows, compute_uv=False)
    assert np.all((s >= np.sqrt(2.0) - 1e-12) & (s <= 2.0 + 1e-12))
    for family, dim in (("micropolar", 27), ("quasicrystal", 9)):
        density, shapes = ADMISSIBLE[family]
        kernel, _, bases = criterion_kernel(family, range(len(shapes)))
        assert len(kernel) == dim
        splits = np.cumsum([basis.shape[1] for basis in bases])[:-1]
        for vector in kernel:
            lag = density(*[(basis @ part).reshape(shape) for basis, part, (shape, _)
                            in zip(bases, np.split(vector, splits), shapes)])
            assert np.max(np.abs(lag.r)) <= 1e-15
            target = np.concatenate([lag.p.ravel(), lag.q.ravel()])
            coefficients = np.linalg.lstsq(rows.T, target, rcond=None)[0]
            assert np.max(np.abs(rows.T @ coefficients - target)) <= 1e-14
