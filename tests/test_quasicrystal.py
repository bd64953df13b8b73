import itertools
import re

import numpy as np
import pytest

from energy_oracle import at_rest
from nullag import quasicrystal as qc
from nullag import verifier as vf
from nullag.polyfield import PolyField, constant_field, random_polyfield
from nullag.tensors import MAJOR, MINOR_LEFT, SWAP13_ANTI, combine, project

Z4 = np.zeros((3, 3, 3, 3))
Z2 = np.zeros((3, 3))


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


def energy(m, gamma, kappa):
    """The family density at the phonon and phason distortions."""
    return at_rest(qc.lagrangian(m), np.concatenate([gamma, kappa]))[0]


def conjugates(m, gamma, kappa):
    """The phonon and phason stresses: the density's gradient in Dy."""
    g = at_rest(qc.lagrangian(m), np.concatenate([gamma, kappa]))[1]
    return g[:3], g[3:]


def test_qc_energy_zero():
    m = qc.QcModuli.zero()
    rng = np.random.default_rng(0)
    assert energy(m, rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3))) == 0.0


def test_qc_energy_identity_pairing():
    m = qc.QcModuli(sym_identity_pairing(), Z4, Z4)
    assert energy(m, np.eye(3), np.zeros((3, 3))) == pytest.approx(1.5, abs=1e-15)


def test_qc_energy_seeded_phason_kills_identity():
    m = qc.QcModuli(Z4, Z4, seeded_phason())
    assert energy(m, np.zeros((3, 3)), np.eye(3)) == 0.0


def test_qc_energy_decoupled_additivity():
    rng = np.random.default_rng(5)
    c = random_phonon(rng)
    e = 0.5 * (lambda t: t + np.transpose(t, (2, 3, 0, 1)))(rng.uniform(-1, 1, (3, 3, 3, 3)))
    gamma = rng.uniform(-1, 1, (3, 3))
    kappa = rng.uniform(-1, 1, (3, 3))
    m = qc.QcModuli(c, Z4, e)
    c_only = energy(qc.QcModuli(c, Z4, Z4), gamma, kappa)
    e_only = energy(qc.QcModuli(Z4, Z4, e), gamma, kappa)
    # without coupling each part reads only its own distortion, bit for bit;
    # the density sums all 18 products in one reduction, so the whole is the
    # sum of the parts up to rounding
    assert energy(m, gamma, Z2) == c_only and energy(m, Z2, kappa) == e_only
    assert energy(m, gamma, kappa) == pytest.approx(c_only + e_only, rel=0, abs=1e-14)


def test_qc_constitutive_cases():
    m = qc.QcModuli.zero()
    sp, ss = conjugates(m, np.zeros((3, 3)), np.zeros((3, 3)))
    assert np.array_equal(sp, np.zeros((3, 3)))
    assert np.array_equal(ss, np.zeros((3, 3)))

    rng = np.random.default_rng(1)
    c = random_phonon(rng)
    e = rng.uniform(-1, 1, (3, 3, 3, 3))
    e = 0.5 * (e + np.transpose(e, (2, 3, 0, 1)))
    gamma = rng.uniform(-1, 1, (3, 3))
    kappa = rng.uniform(-1, 1, (3, 3))
    sp, ss = conjugates(qc.QcModuli(c, Z4, e), gamma, kappa)
    assert np.allclose(sp, np.einsum("ijkl,kl->ij", c, gamma), rtol=0, atol=1e-14)
    assert np.allclose(ss, np.einsum("ijkl,kl->ij", e, kappa), rtol=0, atol=1e-14)


def test_phonon_stress_symmetric():
    rng = np.random.default_rng(2)
    c = random_phonon(rng)
    d = project(rng.uniform(-1, 1, (3, 3, 3, 3)), MINOR_LEFT)
    m = qc.QcModuli(c, d, Z4)
    for _ in range(10):
        sp, _ = conjugates(m, rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3)))
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
    # the message names the orbit's lowest entry: here the swap24 partner
    # (0, 2, 1, 1) of (0, 1, 1, 2) is seeded with the wrong sign
    with pytest.raises(ValueError, match=re.escape("conflicting closure values at entry (0, 1, 1, 2)")):
        qc.admissible_phason_modulus({(1, 2, 0, 1): 1.0, (0, 2, 1, 1): 1.0})
    # consistent duplicate seeds merge
    e = qc.admissible_phason_modulus({(0, 1, 1, 2): 1.0, (1, 2, 0, 1): 1.0})
    assert e[0, 1, 1, 2] == 1.0


@pytest.mark.parametrize("seed", [(3, 0, 0, 0), (-1, 0, 1, 2), (0, 1, 1), (0, 1, 1, 2, 0)])
def test_seed_closure_rejects_indices_outside_the_tensor(seed):
    with pytest.raises(ValueError, match=re.escape(f"seed {seed} is not")):
        qc.admissible_phason_modulus({seed: 1.0})


@pytest.mark.parametrize("seed", [(0, 0, 0, 0), (0, 1, 0, 2), (2, 1, 2, 1)])
def test_seed_closure_accepts_a_zero_seed_on_a_structural_zero(seed):
    e = qc.admissible_phason_modulus({seed: 0.0, (0, 1, 1, 2): 1.0})
    assert e[seed] == 0.0
    assert np.array_equal(e, seeded_phason())


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


def contraction_residual(m, u_p, u_s, f_p, f_s, x):
    """The C/D/E contraction that computed `qc_equilibrium_residual` before
    it became the density's Euler residual; kept as its oracle."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    hp = u_p.eval_hess(pts)[0]
    hs = u_s.eval_hess(pts)[0]
    r_p = np.einsum("ijkl,klj->i", m.c, hp) + np.einsum("ijkl,klj->i", m.d, hs)
    r_s = np.einsum("klij,klj->i", m.d, hp) + np.einsum("ijkl,klj->i", m.e, hs)
    if f_p is not None:
        r_p = r_p + f_p.eval(pts)[0]
    if f_s is not None:
        r_s = r_s + f_s.eval(pts)[0]
    return r_p, r_s


def test_equilibrium_residual_matches_the_moduli_contraction():
    rng = np.random.default_rng(22)
    for t in range(24):
        d, e = (project(rng.uniform(-1, 1, (3, 3, 3, 3)), cls) for cls in (MINOR_LEFT, MAJOR))
        m = qc.QcModuli(random_phonon(rng), d, e)
        u_p, u_s = random_polyfield(rng, 3, 3), random_polyfield(rng, 3, 3)
        f_p = random_polyfield(rng, 3, 2) if t % 2 else None
        f_s = random_polyfield(rng, 3, 2) if t % 3 else None
        x = rng.uniform(0, 1, 3)
        got = qc.qc_equilibrium_residual(m, u_p, u_s, f_p, f_s, x)
        want = contraction_residual(m, u_p, u_s, f_p, f_s, x)
        for g, w in zip(got, want):
            assert g.shape == (3,)
            assert np.max(np.abs(g - w)) <= 1e-12


def test_equilibrium_residual_builds_the_density_once_per_record(monkeypatch):
    """Repeated residuals of one record build its density once and keep the
    bits of a fresh record per call; the record's checks are unchanged."""
    rng = np.random.default_rng(23)
    d, e = (project(rng.uniform(-1, 1, (3, 3, 3, 3)), cls) for cls in (MINOR_LEFT, MAJOR))
    moduli = (random_phonon(rng), d, e)
    fields = [random_polyfield(rng, 3, 3) for _ in range(4)]
    xs = rng.uniform(0, 1, (3, 3))
    want = [qc.qc_equilibrium_residual(qc.QcModuli(*moduli), *fields, x) for x in xs]
    built, build = [], qc.lagrangian
    monkeypatch.setattr(qc, "lagrangian", lambda m: built.append(m) or build(m))
    m = qc.QcModuli(*moduli)
    report = m.check().as_dict()
    got = [qc.qc_equilibrium_residual(m, *fields, x) for x in xs]
    assert built == [m]
    assert m.lagrangian() is m.lagrangian()
    assert [[r.tobytes() for r in pair] for pair in got] == [[r.tobytes() for r in pair] for pair in want]
    assert m.check().as_dict() == report == qc.QcModuli(*moduli).check().as_dict()
