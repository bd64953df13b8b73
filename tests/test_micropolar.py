import itertools

import numpy as np
import pytest

from nullag import micropolar as mp
from nullag import verifier as vf
from nullag.polyfield import PolyField, constant_field, join, random_polyfield
from nullag.quadrature import cube_rule, face_rules
from nullag.tensors import check_symmetry, levi_civita, project

Z4 = np.zeros((3, 3, 3, 3))


def iso_b(b1, b2, b3):
    eye = np.eye(3)
    return (
        b1 * np.einsum("ij,kl->ijkl", eye, eye)
        + b2 * np.einsum("ik,jl->ijkl", eye, eye)
        + b3 * np.einsum("il,jk->ijkl", eye, eye)
    )


def random_major_symmetric(rng):
    b = rng.uniform(-1, 1, (3, 3, 3, 3))
    return 0.5 * (b + np.transpose(b, (2, 3, 0, 1)))


# ---------------------------------------------------------------- kinematics

def test_strain_wryness_constant_rotation():
    # u = 0, phi = e3: eps_ij = e_kij phi_k = e_3ij, kap = 0
    u = PolyField.zero(3)
    phi = constant_field([0.0, 0.0, 1.0])
    eps, kap = mp.strain_wryness(u, phi)
    e0 = eps.eval(np.array([[0.2, 0.5, 0.8]])).reshape(-1, 3, 3)[0]
    lc = levi_civita()
    assert np.array_equal(e0, lc[2])
    assert e0[0, 1] == 1.0 and e0[1, 0] == -1.0
    assert np.array_equal(kap.eval(np.array([[0.1, 0.1, 0.1]])).reshape(-1, 3, 3)[0], np.zeros((3, 3)))


def test_strain_wryness_shear():
    u = PolyField([{(0, 1, 0): 1.0}, {}, {}])
    eps, kap = mp.strain_wryness(u, PolyField.zero(3))
    e0 = eps.eval(np.array([[0.3, 0.7, 0.2]])).reshape(-1, 3, 3)[0]
    expected = np.zeros((3, 3))
    expected[0, 1] = 1.0
    assert np.array_equal(e0, expected)
    assert np.array_equal(kap.eval(np.array([[0.0, 0.0, 0.0]])).reshape(-1, 3, 3)[0], np.zeros((3, 3)))


def test_strain_wryness_linear_rotation():
    # u = 0, phi = (x1, 0, 0): kap_11 = 1; eps_ij = e_1ij x1
    u = PolyField.zero(3)
    phi = PolyField([{(1, 0, 0): 1.0}, {}, {}])
    eps, kap = mp.strain_wryness(u, phi)
    x = np.array([[0.4, 0.9, 0.1]])
    k0 = kap.eval(x).reshape(-1, 3, 3)[0]
    assert k0[0, 0] == 1.0 and np.count_nonzero(k0) == 1
    e0 = eps.eval(x).reshape(-1, 3, 3)[0]
    assert np.allclose(e0, 0.4 * levi_civita()[0], rtol=0, atol=1e-15)
    assert e0[1, 2] == pytest.approx(0.4)
    assert e0[2, 1] == pytest.approx(-0.4)


# ----------------------------------------------------------------- energetics

def test_energy_density_zero_moduli():
    m = mp.MicropolarModuli.zero()
    rng = np.random.default_rng(0)
    assert mp.energy_density(m, rng.uniform(-1, 1, (3, 3)), rng.uniform(-1, 1, (3, 3))) == 0.0


def test_energy_density_iso_spot():
    a = mp.IsotropicParams(0.0, 1.0, 0.0, 0.0, 0.0, 0.0).a_tensor()
    m = mp.MicropolarModuli(a, Z4, Z4)
    assert mp.energy_density(m, np.eye(3), np.zeros((3, 3))) == pytest.approx(3.0, abs=1e-14)


def test_energy_density_c0_model():
    c0 = 1.3
    b = 2.0 * c0 * iso_b(1.0, 0.0, -1.0)
    m = mp.MicropolarModuli(Z4, b, Z4)
    assert mp.energy_density(m, np.zeros((3, 3)), np.eye(3)) == pytest.approx(6.0 * c0, abs=1e-13)


def test_constitutive_iso_spot():
    a = mp.IsotropicParams(1.0, 1.0, 0.0, 0.0, 0.0, 0.0).a_tensor()
    m = mp.MicropolarModuli(a, Z4, Z4)
    sigma, mu = mp.constitutive(m, np.eye(3), np.zeros((3, 3)))
    assert np.allclose(sigma, 5.0 * np.eye(3), rtol=0, atol=1e-14)
    assert np.array_equal(mu, np.zeros((3, 3)))


def test_constitutive_zero():
    m = mp.MicropolarModuli.zero()
    sigma, mu = mp.constitutive(m, np.zeros((3, 3)), np.zeros((3, 3)))
    assert np.array_equal(sigma, np.zeros((3, 3)))
    assert np.array_equal(mu, np.zeros((3, 3)))


def test_constitutive_coupling_only_adjoint():
    rng = np.random.default_rng(1)
    d = rng.uniform(-1, 1, (3, 3, 3, 3))
    m = mp.MicropolarModuli(Z4, Z4, d)
    eps = rng.uniform(-1, 1, (3, 3))
    kap = rng.uniform(-1, 1, (3, 3))
    sigma, mu = mp.constitutive(m, eps, kap)
    # sigma = D[kap]; mu = majorTranspose(D)[eps], checked by hand contraction
    sig_expect = np.zeros((3, 3))
    mu_expect = np.zeros((3, 3))
    for i, j, k, l in itertools.product(range(3), repeat=4):
        sig_expect[i, j] += d[i, j, k, l] * kap[k, l]
        mu_expect[i, j] += d[k, l, i, j] * eps[k, l]
    assert np.allclose(sigma, sig_expect, rtol=0, atol=1e-13)
    assert np.allclose(mu, mu_expect, rtol=0, atol=1e-13)


def test_moduli_constructor_rejects_major_violation():
    bad = np.zeros((3, 3, 3, 3))
    bad[0, 1, 2, 2] = 1.0  # not major symmetric
    with pytest.raises(ValueError, match="major"):
        mp.MicropolarModuli(bad, Z4, Z4)
    with pytest.raises(ValueError, match="finite"):
        mp.MicropolarModuli(np.full((3, 3, 3, 3), np.nan), Z4, Z4)


# ----------------------------------------------------- null condition systems

def test_check_null_sufficient_zero_passes():
    assert mp.check_null_sufficient(mp.MicropolarModuli.zero()).passed


def test_check_null_sufficient_isotropic_fails_on_a():
    m = mp.IsotropicParams(1.0, 1.0, 1.0, 0.0, 0.0, 0.0).moduli()
    report = mp.check_null_sufficient(m)
    assert not report.passed
    assert not report["A zero"].passed


def test_check_null_sufficient_projected_model_passes():
    # admissible D built by projecting onto the direct condition subspace,
    # B as the tilde part of a random major-symmetric modulus
    rng = np.random.default_rng(4)
    d = (mp.coupling_direct_projector() @ rng.uniform(-1, 1, 81)).reshape(3, 3, 3, 3)
    b = mp.split_B(random_major_symmetric(rng)).b_tilde
    report = mp.check_null_sufficient(mp.MicropolarModuli(Z4, b, d))
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_coupling_entrywise_zero_passes():
    assert mp.check_coupling_entrywise(np.zeros((3, 3, 3, 3))).passed


def test_coupling_entrywise_isotropic_chiral_form_fails():
    # zeta*(d_ij d_kl - d_il d_jk) violates the alternating balance: at
    # (m,i,n)=(1,2,3) the balance evaluates to 2*zeta, and equivalently the
    # transposed-diagonal entrywise rule fails, so the report must fail.
    zeta = 2.0
    d = zeta * iso_b(1.0, 0.0, -1.0)
    lc = levi_civita()
    balance = np.einsum("mkl,klin->min", lc, d) - np.einsum("ijk,jkmn->min", lc, d)
    assert abs(balance[0, 1, 2]) == pytest.approx(2.0 * zeta)
    report = mp.check_coupling_entrywise(d)
    assert not report.passed
    assert not report["D opposite transposed diagonals"].passed


def test_coupling_entrywise_identity_pairing_fails_antisymmetry():
    d = np.einsum("ik,jl->ijkl", np.eye(3), np.eye(3))
    report = mp.check_coupling_entrywise(d)
    assert not report.passed
    # the j = l diagonal forces 2*D_1111 = 0
    assert report["D swap24 antisym"].max_violation == pytest.approx(2.0)


def test_isotropic_params_expand_exactly():
    p = mp.IsotropicParams(1.5, -0.5, 2.0, 0.7, 0.3, -0.1)
    a = p.a_tensor()
    b = p.b_tensor()
    for i, j, k, l in itertools.product(range(3), repeat=4):
        expect_a = (
            1.5 * (i == j) * (k == l)
            + (-0.5 + 2.0) * (i == k) * (j == l)
            + (-0.5) * (i == l) * (j == k)
        )
        expect_b = 0.7 * (i == j) * (k == l) + 0.3 * (i == k) * (j == l) - 0.1 * (i == l) * (j == k)
        assert a[i, j, k, l] == expect_a
        assert b[i, j, k, l] == expect_b


def test_hemitropic_params_expand_exactly():
    p = mp.HemitropicParams(0, 0, 0, 0, 0, 0, 1.25, -0.75, 0.5)
    d = p.d_tensor()
    for i, j, k, l in itertools.product(range(3), repeat=4):
        expect = (
            1.25 * (i == j) * (k == l)
            + (-0.75 + 0.5) * (i == k) * (j == l)
            + (-0.75) * (i == l) * (j == k)
        )
        assert d[i, j, k, l] == expect


def test_coupling_entrywise_projected_passes():
    rng = np.random.default_rng(9)
    d = (mp.coupling_entrywise_projector() @ rng.uniform(-1, 1, 81)).reshape(3, 3, 3, 3)
    assert mp.check_coupling_entrywise(d).passed


def test_coupling_equivalence_probe():
    rng = np.random.default_rng(12)
    p1 = mp.coupling_direct_projector()
    p2 = mp.coupling_entrywise_projector()
    for _ in range(50):
        t = rng.uniform(-1, 1, 81)
        assert mp.coupling_equivalence_probe(t.reshape(3, 3, 3, 3))
        via1 = (p1 @ t).reshape(3, 3, 3, 3)
        via2 = (p2 @ t).reshape(3, 3, 3, 3)
        assert mp.coupling_equivalence_probe(via1)
        assert mp.coupling_equivalence_probe(via2)
        assert mp.check_coupling_entrywise(via1).passed
        assert np.max(np.abs(mp.coupling_direct_rows() @ via2.reshape(81))) <= 1e-13


def test_check_centrosymmetric_null():
    rng = np.random.default_rng(21)
    parts = mp.split_B(random_major_symmetric(rng))
    assert mp.check_centrosymmetric_null(Z4, parts.b_tilde).passed
    report = mp.check_centrosymmetric_null(Z4, parts.b_hat)
    assert not report.passed
    assert not report["B swap24 antisym"].passed
    assert mp.check_centrosymmetric_null(Z4, Z4).passed


# ------------------------------------------------------------------ splitting

def test_split_iso_values():
    parts = mp.split_B(iso_b(1.0, 0.0, 2.0))
    # tilde = (b3-b1)/2 * (d_jk d_il - d_ij d_kl)
    assert parts.b_tilde[0, 0, 1, 1] == pytest.approx(-0.5)
    assert parts.b_tilde[0, 1, 1, 0] == pytest.approx(0.5)
    assert np.array_equal(parts.b_ring, Z4)
    expected = 0.5 * (iso_b(1.0, 0.0, 2.0) - np.transpose(iso_b(1.0, 0.0, 2.0), (0, 3, 2, 1)))
    assert np.allclose(parts.b_tilde, expected, rtol=0, atol=1e-15)


def test_split_zero():
    parts = mp.split_B(Z4)
    assert np.array_equal(parts.b_hat, Z4)
    assert np.array_equal(parts.b_tilde, Z4)
    assert np.array_equal(parts.b_ring, Z4)


def test_split_reassembly_and_structure():
    rng = np.random.default_rng(31)
    for _ in range(20):
        b = random_major_symmetric(rng)
        parts = mp.split_B(b)
        recon = parts.b_hat + parts.b_tilde + parts.b_ring
        scale = np.max(np.abs(b))
        assert np.max(np.abs(recon - b)) <= 1e-15 * scale
        assert np.max(np.abs(parts.b_ring)) == 0.0
        zeros = sum(
            1
            for idx in itertools.product(range(3), repeat=4)
            if (idx[0] == idx[2] or idx[1] == idx[3]) and parts.b_tilde[idx] == 0.0
        )
        assert zeros == 45
        assert check_symmetry(parts.b_tilde, mp.TILDE_CLASS) <= 1e-15 * scale
    # general (non major-symmetric) input still reassembles exactly
    b = rng.uniform(-1, 1, (3, 3, 3, 3))
    parts = mp.split_B(b)
    assert np.max(np.abs(parts.b_hat + parts.b_tilde + parts.b_ring - b)) <= 1e-15


def test_cauchy_analogue_cases():
    assert mp.cauchy_analogue(Z4).passed
    assert mp.cauchy_analogue(mp.split_B(iso_b(1.0, 0.5, 1.0)).b_tilde).passed
    report = mp.cauchy_analogue(mp.split_B(iso_b(1.0, 0.0, 2.0)).b_tilde)
    assert not report.passed
    assert report["B~_1122"].max_violation == pytest.approx(0.5)


def test_cauchy_analogue_iff_tilde_vanishes():
    rng = np.random.default_rng(41)
    for _ in range(25):
        tilde = mp.split_B(random_major_symmetric(rng)).b_tilde
        assert mp.cauchy_analogue(tilde).passed == (np.max(np.abs(tilde)) == 0.0)


def test_listed_entries_cover_every_free_orbit():
    # exhaustive: each of the 9 free orbits of the tilde class contains at
    # least one (in fact two) of the 18 listed entries
    reps = set()
    for entry in mp.CAUCHY_ANALOGUE_ENTRIES:
        idx = tuple(v - 1 for v in entry)
        orbit = {idx}
        stack = [idx]
        while stack:
            cur = stack.pop()
            for rel in mp.TILDE_CLASS.relations:
                nxt = rel.apply(cur)
                if nxt not in orbit:
                    orbit.add(nxt)
                    stack.append(nxt)
        assert not any(i in mp.TILDE_CLASS.zero_indices for i in orbit)
        reps.add(min(orbit))
    assert len(reps) == 9


# ----------------------------------------------------------- surface potential

def test_surface_potential_zero_cases():
    phi = random_polyfield(np.random.default_rng(2), 3, 3)
    tilde = mp.split_B(iso_b(1.0, 0.0, 2.0)).b_tilde
    for order in range(3, 9):
        assert mp.surface_potential(Z4, phi, order) == 0.0
    for order in range(1, 9):
        assert mp.surface_potential(tilde, constant_field([1.0, -2.0, 0.5]), order) == 0.0


def test_surface_potential_matches_volume_integral():
    rng = np.random.default_rng(3)
    for trial in range(10):
        tilde = mp.split_B(random_major_symmetric(rng)).b_tilde
        phi = random_polyfield(rng, 3, 3)
        order = 4  # integrand degree 5 on faces, 4 in volume
        surf = mp.surface_potential(tilde, phi, order)
        pts, wts = cube_rule(order)
        grad = phi.eval_grad(pts)
        vol = 0.5 * float(np.einsum("ijkl,mij,mkl->m", tilde, grad, grad) @ wts)
        assert abs(surf - vol) <= 1e-12 * max(1.0, abs(vol))


def per_face_surface_potential(tilde, phi, order):
    """The surface potential summed face by face, each face one four-operand
    einsum over its weights and outward normal."""
    total = 0.0
    for pts, wts, normal in face_rules(order):
        total += float(np.einsum("ijkl,mij,mk,l->m", tilde, phi.eval_grad(pts), phi.eval(pts), normal) @ wts)
    return 0.5 * total


@pytest.mark.parametrize("order", [2, 3, 4, 5, 6, 7, 8])
def test_surface_potential_matches_per_face_reference(order):
    """One boundary moment contraction equals the face-by-face sum."""
    rng = np.random.default_rng(60 + order)
    for _ in range(5):
        tilde = mp.split_B(random_major_symmetric(rng)).b_tilde
        phi = random_polyfield(rng, 3, min(order, 4))
        ref = per_face_surface_potential(tilde, phi, order)
        assert abs(mp.surface_potential(tilde, phi, order) - ref) <= 1e-14 * max(1.0, abs(ref))


def test_surface_potential_rejects_low_order():
    tilde = mp.split_B(iso_b(1.0, 0.0, 2.0)).b_tilde
    phi = random_polyfield(np.random.default_rng(4), 3, 5)
    with pytest.raises(ValueError, match="order"):
        mp.surface_potential(tilde, phi, 2)


# ------------------------------------------------------ isotropic / hemitropic

def test_positive_definite_cases():
    assert mp.positive_definite(mp.IsotropicParams(1.0, 1.0, 1.0, 1.0, 3.0, 1.0))
    assert not mp.positive_definite(mp.IsotropicParams(1.0, 1.0, 0.0, 1.0, 3.0, 1.0))
    assert not mp.positive_definite(mp.IsotropicParams(1.0, 1.0, 1.0, 1.0, 2.0, 2.0))
    assert mp.positive_definite(mp.HemitropicParams(1.0, 1.0, 1.0, 1.0, 3.0, 1.0, 5.0, 5.0, 5.0))


def test_null_lagrangian_iso_values():
    assert mp.null_lagrangian_iso(1.0, np.eye(3)) == pytest.approx(6.0)
    skew = np.zeros((3, 3))
    skew[0, 1] = -1.0
    skew[1, 0] = 1.0
    assert mp.null_lagrangian_iso(1.0, skew) == pytest.approx(2.0)
    assert mp.null_lagrangian_iso(2.5, np.zeros((3, 3))) == 0.0


def test_null_lagrangian_iso_second_invariant_link():
    from nullag.tensors import invariants2

    rng = np.random.default_rng(8)
    for _ in range(200):
        kap = rng.uniform(-1, 1, (3, 3))
        c0 = rng.uniform(-2, 2)
        val = mp.null_lagrangian_iso(c0, kap)
        _, i2, _ = invariants2(kap)
        assert abs(val - 2.0 * c0 * i2) <= 1e-13 * max(1.0, abs(val))


def test_hemitropic_null_family_verdicts():
    good = mp.HemitropicParams(0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    report = mp.hemitropic_null_family(good)
    assert report.passed
    assert report.extra["beta1_eff"] == 1.0

    lam_bad = mp.HemitropicParams(1.0, -1.0, 1.0, 1.0, 0.0, -1.0, 0.0, 0.0, 0.0)
    report = mp.hemitropic_null_family(lam_bad)
    assert not report.passed
    assert not report["lambda"].passed
    assert report["mu + lambda"].passed

    zeta_bad = mp.HemitropicParams(0.0, 0.0, 0.0, 1.0, 0.0, -1.0, 1.0, -1.0, 1.0)
    report = mp.hemitropic_null_family(zeta_bad)
    assert not report.passed
    assert not report["zeta"].passed


# -------------------------------------------------------- variational aspects

def test_residual_matches_equilibrium_equations():
    # components 1-3 = div sigma; components 4-6 = div mu - e : sigma,
    # with the divergences supplied by an independent finite-difference
    # oracle on the constitutive fields
    rng = np.random.default_rng(17)
    m = mp.HemitropicParams(0.3, 1.1, -0.4, 0.8, 0.2, -0.5, 0.6, -0.1, 0.9).moduli()
    lag = mp.lagrangian(m)
    u = random_polyfield(rng, 3, 3)
    phi = random_polyfield(rng, 3, 3)
    y = join(u, phi)
    eps_f, kap_f = mp.strain_wryness(u, phi)
    lc = levi_civita()
    for x0 in rng.uniform(0.2, 0.8, (3, 3)):
        res = vf.euler_residual(lag, y, x0)
        h = 1e-6
        div_sigma = np.zeros(3)
        div_mu = np.zeros(3)
        for j in range(3):
            xp = x0.copy()
            xp[j] += h
            xm = x0.copy()
            xm[j] -= h
            sp, mup = mp.constitutive(m, eps_f.eval(xp).reshape(3, 3), kap_f.eval(xp).reshape(3, 3))
            sm, mum = mp.constitutive(m, eps_f.eval(xm).reshape(3, 3), kap_f.eval(xm).reshape(3, 3))
            div_sigma += (sp[:, j] - sm[:, j]) / (2 * h)
            div_mu += (mup[:, j] - mum[:, j]) / (2 * h)
        sigma0, _ = mp.constitutive(m, eps_f.eval(x0).reshape(3, 3), kap_f.eval(x0).reshape(3, 3))
        expected = np.concatenate([div_sigma, div_mu - np.einsum("ijk,jk->i", lc, sigma0)])
        assert np.max(np.abs(res - expected)) <= 1e-7


def test_tilde_part_does_not_affect_equilibrium():
    rng = np.random.default_rng(23)
    params = mp.IsotropicParams(0.7, 1.2, 0.4, 0.9, 1.7, -0.3)
    full = params.moduli()
    hat = mp.MicropolarModuli(params.a_tensor(), mp.split_B(params.b_tensor()).b_hat, Z4)
    lag_full = mp.lagrangian(full)
    lag_hat = mp.lagrangian(hat)
    y = join(random_polyfield(rng, 3, 3), random_polyfield(rng, 3, 3))
    for x0 in rng.uniform(0, 1, (5, 3)):
        r_full = vf.euler_residual(lag_full, y, x0)
        r_hat = vf.euler_residual(lag_hat, y, x0)
        scale = 1.0 + np.max(np.abs(r_full))
        assert np.max(np.abs(r_full - r_hat)) / scale <= 1e-10


def test_curl_free_sampler_properties():
    sampler = mp.CurlFreeRotationSampler()
    rng = np.random.default_rng(29)
    field = sampler.field(rng, 3)
    assert field.n == 6
    grad = field.eval_grad(rng.uniform(0, 1, (4, 3)))[:, 3:]
    assert np.max(np.abs(grad - np.transpose(grad, (0, 2, 1)))) <= 1e-12
    delta = sampler.boundary_delta(rng, 3)
    # perturbation vanishes on the boundary and keeps the rotation curl-free
    for axis in range(3):
        for value in (0.0, 1.0):
            pt = rng.uniform(0, 1, 3)
            pt[axis] = value
            assert np.max(np.abs(delta.eval(pt[None, :])[0])) <= 1e-15
    dgrad = delta.eval_grad(rng.uniform(0, 1, (4, 3)))[:, 3:]
    assert np.max(np.abs(dgrad - np.transpose(dgrad, (0, 2, 1)))) <= 1e-12
