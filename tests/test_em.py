import numpy as np
import pytest

from energy_oracle import at_rest, em_enthalpy
from nullag import em
from nullag import verifier as vf
from nullag.polyfield import random_polyfield
from nullag.tensors import IndexRelation, SymmetryClass, nullspace_projector, project

Z4 = np.zeros((3, 3, 3, 3))
Z3 = np.zeros((3, 3, 3))
Z2 = np.zeros((3, 3))


def random_moduli(rng):
    c = project(rng.uniform(-1, 1, (3, 3, 3, 3)), em.EM_ELASTIC_CLASS)
    p = rng.uniform(-1, 1, (3, 3, 3))
    p = 0.5 * (p + np.transpose(p, (0, 2, 1)))
    q = rng.uniform(-1, 1, (3, 3, 3))
    q = 0.5 * (q + np.transpose(q, (0, 2, 1)))
    sym = lambda m: 0.5 * (m + m.T)
    return em.EmModuli(
        c, p, q,
        sym(rng.uniform(-1, 1, (3, 3))),
        sym(rng.uniform(-1, 1, (3, 3))),
        sym(rng.uniform(-1, 1, (3, 3))),
    )


def test_constructor_rejects_asymmetry():
    bad4 = np.zeros((3, 3, 3, 3))
    bad4[0, 1, 0, 0] = 1.0
    with pytest.raises(ValueError, match="elastic"):
        em.EmModuli(bad4, Z3, Z3, Z2, Z2, Z2)
    bad3 = np.zeros((3, 3, 3))
    bad3[0, 0, 1] = 1.0
    with pytest.raises(ValueError, match="piezoelectric"):
        em.EmModuli(Z4, bad3, Z3, Z2, Z2, Z2)
    bad2 = np.zeros((3, 3))
    bad2[0, 1] = 1.0
    with pytest.raises(ValueError, match="dielectric"):
        em.EmModuli(Z4, Z3, Z3, bad2, Z2, Z2)


def at_fields(m, grad_u, e, h):
    """The density and its gradient in Dy (rows: the stress, the electric
    displacement, the magnetic induction) at e = -grad varphi, h = -grad psi."""
    return at_rest(em.lagrangian(m), np.concatenate([np.reshape(grad_u, (3, 3)), -np.reshape(e, (1, 3)),
                                                     -np.reshape(h, (1, 3))]))


def enthalpy(m, grad_u, e, h):
    return at_fields(m, grad_u, e, h)[0]


def test_enthalpy_spot_values():
    z = em.EmModuli.zero()
    rng = np.random.default_rng(0)
    assert enthalpy(z, rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)) == 0.0

    m = em.EmModuli(Z4, Z3, Z3, np.eye(3), Z2, Z2)
    assert enthalpy(m, Z2, [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]) == pytest.approx(-0.5)

    m = em.EmModuli(Z4, Z3, Z3, Z2, Z2, np.eye(3))
    assert enthalpy(m, Z2, [1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) == pytest.approx(-1.0)


def test_constitutive_spot_values():
    z = em.EmModuli.zero()
    assert np.array_equal(at_fields(z, Z2, np.zeros(3), np.zeros(3))[1], np.zeros((5, 3)))

    p = np.zeros((3, 3, 3))
    p[0, 0, 0] = 1.0
    m = em.EmModuli(Z4, p, Z3, Z2, Z2, Z2)
    eps = np.outer([1.0, 0, 0], [1.0, 0, 0])
    assert np.array_equal(at_fields(m, eps, np.zeros(3), np.zeros(3))[1][3], [1.0, 0.0, 0.0])

    m = em.EmModuli(Z4, Z3, Z3, np.eye(3), Z2, Z2)
    e = np.array([0.3, -0.7, 0.2])
    assert np.array_equal(at_fields(m, Z2, e, np.zeros(3))[1][3], e)


def test_rank3_adjoint_identity():
    rng = np.random.default_rng(1)
    m = random_moduli(rng)
    for _ in range(20):
        eps = rng.uniform(-1, 1, (3, 3))
        e = rng.uniform(-1, 1, 3)
        lhs = float(np.einsum("ij,kij,k->", eps, m.p, e))  # eps . (P^T e)
        rhs = float(np.einsum("kij,ij,k->", m.p, eps, e))  # (P eps) . e
        assert abs(lhs - rhs) <= 1e-14 * max(1.0, abs(lhs))


def test_check_em_null_cases():
    assert em.check_em_null(em.EmModuli.zero()).passed

    p = np.zeros((3, 3, 3))
    p[0, 0, 0] = 1.0
    report = em.check_em_null(em.EmModuli(Z4, p, Z3, Z2, Z2, Z2))
    assert not report.passed
    assert not report["P alternating antisym"].passed

    report = em.check_em_null(em.EmModuli(Z4, Z3, Z3, Z2, Z2, np.eye(3)))
    assert not report.passed
    assert not report["A antisym"].passed


def test_null_conditions_admit_only_zero():
    piezo_null = SymmetryClass(
        "PIEZO_NULL", 3,
        (IndexRelation((0, 2, 1), 1.0), IndexRelation((2, 1, 0), -1.0)),
    )
    rng = np.random.default_rng(2)
    for _ in range(10):
        m = random_moduli(rng)
        # rank-3 couplings: trailing-pair symmetry + alternating antisymmetry
        for t3 in (m.p, m.q):
            assert np.max(np.abs(project(t3, piezo_null))) == 0.0
        # coupling matrix: constructor symmetry intersected with the
        # antisymmetry condition leaves only zero
        rows = []
        for i in range(3):
            for j in range(3):
                r = np.zeros(9)
                r[i * 3 + j] += 1.0
                r[j * 3 + i] += 1.0
                rows.append(r)
        antisym_projector = nullspace_projector(np.array(rows), 9)
        assert np.max(np.abs(antisym_projector @ m.acpl.reshape(9))) <= 1e-14


def test_triviality_probe_ten_thousand_samples():
    # batch form of the forced-zero property: projecting constructor-
    # symmetric moduli onto their null-condition classes leaves nothing
    from nullag.tensors import class_projector_matrix, combine, SWAP13_ANTI

    rng = np.random.default_rng(7)
    n = 10_000
    sym4 = class_projector_matrix(em.EM_ELASTIC_CLASS)
    null4 = class_projector_matrix(combine("cn", em.EM_ELASTIC_CLASS, SWAP13_ANTI))
    c_samples = rng.uniform(-1, 1, (n, 81)) @ sym4.T
    assert np.max(np.abs(c_samples @ null4.T)) <= 1e-14

    piezo_sym = class_projector_matrix(SymmetryClass("PS", 3, (IndexRelation((0, 2, 1), 1.0),)))
    piezo_null = class_projector_matrix(
        SymmetryClass("PN", 3, (IndexRelation((0, 2, 1), 1.0), IndexRelation((2, 1, 0), -1.0)))
    )
    p_samples = rng.uniform(-1, 1, (n, 27)) @ piezo_sym.T
    assert np.max(np.abs(p_samples @ piezo_null.T)) <= 1e-14

    sym2 = class_projector_matrix(SymmetryClass("MS", 2, (IndexRelation((1, 0), 1.0),)))
    anti2 = class_projector_matrix(
        SymmetryClass("MA", 2, (IndexRelation((1, 0), 1.0), IndexRelation((1, 0), -1.0)))
    )
    m_samples = rng.uniform(-1, 1, (n, 9)) @ sym2.T
    assert np.max(np.abs(m_samples @ anti2.T)) <= 1e-14
    # the field-energy matrices are forced to zero outright
    assert np.array_equal(anti2 @ anti2, anti2)


def test_enthalpy_is_quadratic():
    rng = np.random.default_rng(3)
    m = random_moduli(rng)

    def pack(vec):
        eps = vec[:9].reshape(3, 3)
        return eps, vec[9:12], vec[12:15]

    def f(vec):
        return enthalpy(m, *pack(vec))

    def hessian_at(vec):
        hmat = np.zeros((15, 15))
        step = 1e-3
        for i in range(15):
            for j in range(i, 15):
                vpp = vec.copy(); vpp[i] += step; vpp[j] += step
                vpm = vec.copy(); vpm[i] += step; vpm[j] -= step
                vmp = vec.copy(); vmp[i] -= step; vmp[j] += step
                vmm = vec.copy(); vmm[i] -= step; vmm[j] -= step
                val = (f(vpp) - f(vpm) - f(vmp) + f(vmm)) / (4 * step * step)
                hmat[i, j] = hmat[j, i] = val
        return hmat

    h1 = hessian_at(rng.uniform(-1, 1, 15))
    h2 = hessian_at(rng.uniform(-1, 1, 15))
    assert np.max(np.abs(h1 - h2)) <= 1e-8


def test_zero_model_lagrangian_identically_null():
    lag = em.lagrangian(em.EmModuli.zero())
    rng = np.random.default_rng(5)
    y = random_polyfield(rng, 5, 3)
    for x in rng.uniform(0, 1, (5, 3)):
        assert np.array_equal(vf.euler_residual(lag, y, x), np.zeros(5))
    cert = vf.certify_null(lag, trials=4, seed=1)
    assert cert.passed


def test_lagrangian_matches_enthalpy_on_potential_states():
    rng = np.random.default_rng(6)
    m = random_moduli(rng)
    lag = em.lagrangian(m)
    y = random_polyfield(rng, 5, 3)
    pts = rng.uniform(0, 1, (6, 3))
    dy = y.eval_grad(pts)
    vals = lag.evaluate(pts, y.eval(pts), dy)
    for row in range(pts.shape[0]):
        grad_u = dy[row, :3, :]
        e = -dy[row, 3, :]
        h = -dy[row, 4, :]
        # enthalpy written in the displacement gradient: minor symmetry of
        # the elastic modulus makes eps and grad u interchangeable there
        expected = em_enthalpy(m, 0.5 * (grad_u + grad_u.T), e, h)
        assert vals[row] == pytest.approx(expected, abs=1e-12)
