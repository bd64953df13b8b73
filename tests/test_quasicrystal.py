import itertools

import numpy as np
import pytest

from nullag import quasicrystal as qc
from nullag import verifier as vf
from nullag.polyfield import PolyField, constant_field, random_polyfield
from nullag.tensors import MINOR_LEFT, SWAP13_ANTI, combine, project

Z4 = np.zeros((3, 3, 3, 3))


def sym_identity_pairing():
    eye = np.eye(3)
    t = 0.5 * (np.einsum("ik,jl->ijkl", eye, eye) + np.einsum("il,jk->ijkl", eye, eye))
    return t


def random_phonon(rng):
    return project(rng.uniform(-1, 1, (3, 3, 3, 3)), qc.PHONON_CLASS)


def seeded_phason():
    return qc.admissible_phason_modulus({(0, 1, 1, 2): 1.0})


def test_constructor_validates_symmetries():
    bad = np.zeros((3, 3, 3, 3))
    bad[0, 1, 0, 0] = 1.0
    with pytest.raises(ValueError, match="phonon"):
        qc.QcModuli(bad, Z4, Z4)
    with pytest.raises(ValueError, match="coupling"):
        qc.QcModuli(Z4, bad, Z4)
    with pytest.raises(ValueError, match="phason"):
        qc.QcModuli(Z4, Z4, bad)


def test_qc_energy_zero():
    m = qc.QcModuli.zero()
    rng = np.random.default_rng(0)
    assert qc.qc_energy(m, rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3))) == 0.0


def test_qc_energy_identity_pairing():
    m = qc.QcModuli(sym_identity_pairing(), Z4, Z4)
    assert qc.qc_energy(m, np.eye(3), np.zeros((3, 3))) == pytest.approx(1.5, abs=1e-15)


def test_qc_energy_seeded_phason_kills_identity():
    m = qc.QcModuli(Z4, Z4, seeded_phason())
    assert qc.qc_energy(m, np.zeros((3, 3)), np.eye(3)) == 0.0


def test_qc_energy_decoupled_additivity():
    rng = np.random.default_rng(5)
    c = random_phonon(rng)
    e = 0.5 * (lambda t: t + np.transpose(t, (2, 3, 0, 1)))(rng.uniform(-1, 1, (3, 3, 3, 3)))
    gamma = rng.uniform(-1, 1, (3, 3))
    kappa = rng.uniform(-1, 1, (3, 3))
    total = qc.qc_energy(qc.QcModuli(c, Z4, e), gamma, kappa)
    c_only = qc.qc_energy(qc.QcModuli(c, Z4, Z4), gamma, kappa)
    e_only = qc.qc_energy(qc.QcModuli(Z4, Z4, e), gamma, kappa)
    assert total == c_only + e_only


def test_qc_constitutive_cases():
    m = qc.QcModuli.zero()
    sp, ss = qc.qc_constitutive(m, np.zeros((3, 3)), np.zeros((3, 3)))
    assert np.array_equal(sp, np.zeros((3, 3)))
    assert np.array_equal(ss, np.zeros((3, 3)))

    rng = np.random.default_rng(1)
    c = random_phonon(rng)
    e = rng.uniform(-1, 1, (3, 3, 3, 3))
    e = 0.5 * (e + np.transpose(e, (2, 3, 0, 1)))
    gamma = rng.uniform(-1, 1, (3, 3))
    kappa = rng.uniform(-1, 1, (3, 3))
    sp, ss = qc.qc_constitutive(qc.QcModuli(c, Z4, e), gamma, kappa)
    assert np.allclose(sp, np.einsum("ijkl,kl->ij", c, gamma), rtol=0, atol=1e-14)
    assert np.allclose(ss, np.einsum("ijkl,kl->ij", e, kappa), rtol=0, atol=1e-14)


def test_phonon_stress_symmetric():
    rng = np.random.default_rng(2)
    c = random_phonon(rng)
    d = project(rng.uniform(-1, 1, (3, 3, 3, 3)), MINOR_LEFT)
    m = qc.QcModuli(c, d, Z4)
    for _ in range(10):
        sp, _ = qc.qc_constitutive(m, rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3)))
        assert np.max(np.abs(sp - sp.T)) <= 1e-13


def test_equilibrium_residual_linear_fields():
    rng = np.random.default_rng(3)
    c = random_phonon(rng)
    m = qc.QcModuli(c, Z4, Z4)
    u_p = random_polyfield(rng, 3, 1)
    u_s = random_polyfield(rng, 3, 1)
    rp, rs = qc.qc_equilibrium_residual(m, u_p, u_s, None, None, [0.5, 0.5, 0.5])
    assert np.array_equal(rp, np.zeros(3))
    assert np.array_equal(rs, np.zeros(3))


def test_equilibrium_residual_laplacian():
    m = qc.QcModuli(sym_identity_pairing(), Z4, Z4)
    u_p = PolyField([{(2, 0, 0): 1.0}, {}, {}])
    rp, rs = qc.qc_equilibrium_residual(m, u_p, PolyField.zero(3), None, None, [0.3, 0.3, 0.3])
    assert np.allclose(rp, [2.0, 0.0, 0.0], rtol=0, atol=1e-14)
    assert np.array_equal(rs, np.zeros(3))


def test_equilibrium_residual_admissible_phason():
    m = qc.QcModuli(Z4, Z4, seeded_phason())
    rng = np.random.default_rng(4)
    u_s = random_polyfield(rng, 3, 4)
    f = constant_field([0.5, -1.0, 2.0])
    rp, rs = qc.qc_equilibrium_residual(m, PolyField.zero(3), u_s, None, f, rng.uniform(0, 1, 3))
    assert np.array_equal(rp, np.zeros(3))
    assert np.allclose(rs, [0.5, -1.0, 2.0], rtol=0, atol=1e-12)


def test_seed_closure_entries():
    e = seeded_phason()
    assert e[0, 1, 1, 2] == 1.0
    assert e[1, 2, 0, 1] == 1.0  # major partner
    assert e[1, 1, 0, 2] == -1.0  # swap13 partner
    assert e[0, 2, 1, 1] == -1.0  # swap24 partner


def test_seed_closure_conflicts():
    with pytest.raises(ValueError, match="structurally zero"):
        qc.admissible_phason_modulus({(0, 0, 0, 0): 1.0})
    with pytest.raises(ValueError, match="structurally zero"):
        qc.admissible_phason_modulus({(0, 1, 0, 2): 1.0})
    # two seeds on the same orbit with inconsistent values
    with pytest.raises(ValueError, match="conflicting"):
        qc.admissible_phason_modulus({(0, 1, 1, 2): 1.0, (1, 2, 0, 1): 2.0})
    # consistent duplicate seeds merge
    e = qc.admissible_phason_modulus({(0, 1, 1, 2): 1.0, (1, 2, 0, 1): 1.0})
    assert e[0, 1, 1, 2] == 1.0


def test_check_qc_null_cases():
    assert qc.check_qc_null(qc.QcModuli.zero()).passed
    m = qc.QcModuli(Z4, Z4, seeded_phason())
    assert qc.check_qc_null(m).passed
    bad = qc.QcModuli(sym_identity_pairing(), Z4, Z4)
    report = qc.check_qc_null(bad)
    assert not report.passed
    assert not report["C zero"].passed


def test_zero_pattern_matches_predicate_exhaustively():
    rng = np.random.default_rng(8)
    e = qc.admissible_phason_modulus(
        {(0, 1, 1, 2): rng.uniform(-1, 1), (0, 1, 1, 0): rng.uniform(-1, 1)}
    )
    for idx in itertools.product(range(3), repeat=4):
        if idx[0] == idx[2] or idx[1] == idx[3]:
            assert e[idx] == 0.0


def test_phonon_and_coupling_forced_to_zero_by_null_conditions():
    rng = np.random.default_rng(9)
    for _ in range(10):
        c = random_phonon(rng)
        pc = project(c, combine("c_null", qc.PHONON_CLASS, SWAP13_ANTI))
        assert np.max(np.abs(pc)) == 0.0
        d = project(rng.uniform(-1, 1, (3, 3, 3, 3)), MINOR_LEFT)
        pd = project(d, combine("d_null", MINOR_LEFT, SWAP13_ANTI))
        assert np.max(np.abs(pd)) == 0.0


def test_qc_lagrangian_null_model_certifies():
    m = qc.QcModuli(Z4, Z4, seeded_phason())
    cert = vf.certify_null(qc.lagrangian(m), trials=6, seed=3)
    assert cert.passed
    assert cert.path == "closed-form"


def test_qc_state_from_fields():
    rng = np.random.default_rng(10)
    u_p = random_polyfield(rng, 3, 2)
    u_s = random_polyfield(rng, 3, 2)
    state = qc.QcState.from_fields(u_p, u_s)
    pts = rng.uniform(0, 1, (4, 3))
    assert np.allclose(state.gamma.eval(pts).reshape(-1, 3, 3), u_p.eval_grad(pts), rtol=0, atol=1e-15)
    assert np.allclose(state.kappa.eval(pts).reshape(-1, 3, 3), u_s.eval_grad(pts), rtol=0, atol=1e-15)
