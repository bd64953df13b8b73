"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 5 is split: the certification grid (5a) and the curl-free variant
(5b).  5b is asserted exactly as specified and is expected to fail for the
models whose strain modulus keeps its nonzero constant; the blocking analysis
lives in the reviewer notes outside the package.
"""

import itertools
import json

import numpy as np
import pytest

from fd_oracle import fd_point_residual
from nullag import em
from nullag import micropolar as mp
from nullag import quasicrystal as qc
from nullag import rund
from nullag import verifier as vf
from nullag.cli import main as cli_main
from nullag.polyfield import PolyField, random_polyfield
from nullag.quadrature import cube_rule
from nullag.tensors import (
    MAJOR,
    MINOR_LEFT,
    SWAP13_ANTI,
    IndexRelation,
    SymmetryClass,
    combine,
    invariants2,
    nullspace_projector,
    project,
)

Z4 = np.zeros((3, 3, 3, 3))


def _verdict(ok: bool, label: str, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"{label}: {detail}"


def _random_major_symmetric(rng):
    b = rng.uniform(-1, 1, (3, 3, 3, 3))
    return 0.5 * (b + np.transpose(b, (2, 3, 0, 1)))


def test_acceptance_01_coupling_equivalence():
    rng = np.random.default_rng(101)
    n_trials = 10_000
    x = rng.uniform(-1, 1, (n_trials, 81))
    r1 = mp.coupling_direct_rows()
    r2 = mp.coupling_entrywise_rows()
    p1 = mp.coupling_direct_projector()
    p2 = mp.coupling_entrywise_projector()

    tol = 1e-10
    v1 = np.max(np.abs(x @ r1.T), axis=1)
    v2 = np.max(np.abs(x @ r2.T), axis=1)
    probe_raw = np.all((v1 <= tol) == (v2 <= tol))

    x1 = x @ p1
    x2 = x @ p2
    agree = float(np.max(np.abs(x1 - x2)))
    set2_after_1 = float(np.max(np.abs(x1 @ r2.T)))
    set1_after_2 = float(np.max(np.abs(x2 @ r1.T)))

    ok = bool(probe_raw) and agree <= 1e-13 and set2_after_1 <= 1e-13 and set1_after_2 <= 1e-13
    _verdict(
        ok,
        "criterion 1: coupling condition systems are equivalent",
        f"projection gap {agree:.2e}, cross residuals {set2_after_1:.2e}/{set1_after_2:.2e}",
    )


def test_acceptance_02_forced_zero_projections():
    rng = np.random.default_rng(102)
    worst = 0.0
    piezo_null = SymmetryClass(
        "PIEZO_NULL", 3,
        (IndexRelation((0, 2, 1), 1.0), IndexRelation((2, 1, 0), -1.0)),
    )
    matrix_null = nullspace_projector(np.eye(9), 9)  # field-energy matrices must vanish
    sym_anti_rows = []
    for i in range(3):
        for j in range(3):
            row = np.zeros(9)
            row[3 * i + j] += 1.0
            row[3 * j + i] += 1.0
            sym_anti_rows.append(row)
    antisym_projector = nullspace_projector(np.array(sym_anti_rows), 9)

    for _ in range(100):
        a = project(rng.uniform(-1, 1, (3, 3, 3, 3)), MAJOR)
        worst = max(worst, float(np.max(np.abs(project(a, mp.A_NULL_CLASS)))))

        c = project(rng.uniform(-1, 1, (3, 3, 3, 3)), qc.PHONON_CLASS)
        worst = max(worst, float(np.max(np.abs(project(c, combine("cn", qc.PHONON_CLASS, SWAP13_ANTI))))))
        d = project(rng.uniform(-1, 1, (3, 3, 3, 3)), MINOR_LEFT)
        worst = max(worst, float(np.max(np.abs(project(d, combine("dn", MINOR_LEFT, SWAP13_ANTI))))))

        c_em = project(rng.uniform(-1, 1, (3, 3, 3, 3)), em.EM_ELASTIC_CLASS)
        worst = max(
            worst,
            float(np.max(np.abs(project(c_em, combine("cen", em.EM_ELASTIC_CLASS, SWAP13_ANTI))))),
        )
        for _which in range(2):
            t3 = rng.uniform(-1, 1, (3, 3, 3))
            t3 = 0.5 * (t3 + np.transpose(t3, (0, 2, 1)))
            worst = max(worst, float(np.max(np.abs(project(t3, piezo_null)))))
        for _which in range(2):
            m2 = rng.uniform(-1, 1, (3, 3))
            m2 = 0.5 * (m2 + m2.T)
            worst = max(worst, float(np.max(np.abs(matrix_null @ m2.reshape(9)))))
        acpl = rng.uniform(-1, 1, (3, 3))
        acpl = 0.5 * (acpl + acpl.T)
        worst = max(worst, float(np.max(np.abs(antisym_projector @ acpl.reshape(9)))))

    _verdict(worst <= 1e-14, "criterion 2: null conditions force every modulus to zero",
             f"worst projected magnitude {worst:.2e}")


def test_acceptance_03_micropolar_null_certification():
    worst_resid = 0.0
    worst_delta = 0.0
    all_tilde_pass = True
    all_hat_fail = True
    for s in range(100):
        rng = np.random.default_rng(10_000 + s)
        parts = mp.split_B(_random_major_symmetric(rng))
        tilde_cert = vf.certify_null(
            mp.lagrangian(mp.MicropolarModuli(Z4, parts.b_tilde, Z4)),
            trials=2, seed=s, points_per_trial=2,
        )
        worst_resid = max(worst_resid, tilde_cert.max_normalized_residual)
        worst_delta = max(worst_delta, max(tilde_cert.boundary_action_deltas))
        all_tilde_pass &= tilde_cert.passed
        if np.max(np.abs(parts.b_hat)) > 1e-6:
            hat_cert = vf.certify_null(
                mp.lagrangian(mp.MicropolarModuli(Z4, parts.b_hat, Z4)),
                trials=2, seed=s, points_per_trial=2, boundary_pairs=1,
            )
            all_hat_fail &= not hat_cert.passed
    ok = all_tilde_pass and all_hat_fail and worst_resid <= 1e-10 and worst_delta <= 1e-12
    _verdict(ok, "criterion 3: tilde parts certify null, hat parts fail",
             f"worst residual {worst_resid:.2e}, worst action delta {worst_delta:.2e}")


def test_acceptance_04_isotropic_null_lagrangian():
    cert = vf.certify_null(mp.iso_null_evaluator(1.0), trials=32, seed=104)
    spot = mp.null_lagrangian_iso(1.0, np.eye(3))
    rng = np.random.default_rng(104)
    worst = 0.0
    for _ in range(1000):
        kap = rng.uniform(-1, 1, (3, 3))
        c0 = rng.uniform(-2, 2)
        val = mp.null_lagrangian_iso(c0, kap)
        _, i2, _ = invariants2(kap)
        worst = max(worst, abs(val - 2.0 * c0 * i2) / max(1.0, abs(val)))
    ok = cert.passed and spot == pytest.approx(6.0, abs=1e-14) and worst <= 1e-13
    _verdict(ok, "criterion 4: isotropic null energy certifies and matches 2*C0*I2",
             f"spot {spot}, worst identity gap {worst:.2e}")


def _constrained_hemitropic(lam, zeta):
    return mp.HemitropicParams(lam, -lam, lam, 1.0, 0.0, -1.0, zeta, -zeta, zeta)


def test_acceptance_05a_hemitropic_iff_grid():
    passes = 0
    fails = 0
    for lam in (0.0, 1.0, -1.0):
        for zeta in (0.0, 1.0, -1.0):
            lag = mp.lagrangian(_constrained_hemitropic(lam, zeta).moduli())
            cert = vf.certify_null(lag, trials=4, seed=105)
            if cert.passed:
                passes += 1
                assert lam == 0.0 and zeta == 0.0
            else:
                fails += 1
    _verdict(passes == 1 and fails == 8, "criterion 5a: grid certifies null iff both constants vanish",
             f"{passes} pass / {fails} fail")


def test_acceptance_05b_hemitropic_curl_free_remark():
    # As specified: with rotations restricted to gradient fields, every
    # model with (lam, zeta) != (0, 0) passes.  The lam != 0 models retain
    # an algebraic residual -2*lam*phi + lam*curl(u) that no curl-free
    # restriction removes (constant rotations are curl-free and change the
    # action), so this criterion cannot hold as stated; it is asserted
    # faithfully and fails for those cells.
    sampler = mp.CurlFreeRotationSampler()
    outcomes = {}
    for lam in (0.0, 1.0, -1.0):
        for zeta in (0.0, 1.0, -1.0):
            if lam == 0.0 and zeta == 0.0:
                continue
            lag = mp.lagrangian(_constrained_hemitropic(lam, zeta).moduli())
            cert = vf.certify_null(lag, trials=4, seed=105, sampler=sampler)
            outcomes[(lam, zeta)] = cert.passed
    failing = sorted(k for k, v in outcomes.items() if not v)
    _verdict(not failing, "criterion 5b: curl-free rotations admit the nonzero-constant models",
             f"non-passing cells {failing}" if failing else "all 8 cells pass")


def test_acceptance_06_divergence_theorem_identity():
    rng = np.random.default_rng(106)
    worst = 0.0
    for _ in range(50):
        tilde = mp.split_B(_random_major_symmetric(rng)).b_tilde
        phi = random_polyfield(rng, 3, 3)
        surf = mp.surface_potential(tilde, phi, 4)
        pts, wts = cube_rule(4)
        grad = phi.eval_grad(pts)
        vol = 0.5 * float(np.einsum("ijkl,mij,mkl->m", tilde, grad, grad) @ wts)
        worst = max(worst, abs(surf - vol) / max(1.0, abs(vol)))
    _verdict(worst <= 1e-12, "criterion 6: surface potential equals the volume integral",
             f"worst relative gap {worst:.2e}")


def test_acceptance_07_rund_construction():
    worst_resid = 0.0
    worst_identity = 0.0
    all_pass = True
    for s in range(100):
        g = rund.random_generator_set(np.random.default_rng(20_000 + s), 6, 2)
        lag = rund.RundLagrangian(g)
        cert = vf.certify_null(lag, trials=2, seed=s, points_per_trial=2)
        all_pass &= cert.passed
        worst_resid = max(worst_resid, cert.max_normalized_residual)
        rng = np.random.default_rng(30_000 + s)
        for _ in range(50):
            lin, quad = rund.coefficient_identity_residuals(
                g, rng.uniform(0, 1, 3), rng.uniform(-1, 1, 6)
            )
            worst_identity = max(worst_identity, float(np.max(np.abs(lin))), float(np.max(np.abs(quad))))
    ok = all_pass and worst_resid <= 1e-6 and worst_identity <= 1e-9
    _verdict(ok, "criterion 7: generator construction certifies null with exact identities",
             f"worst residual {worst_resid:.2e}, worst identity residual {worst_identity:.2e}")


def test_acceptance_08_quasicrystal_null_family():
    rng = np.random.default_rng(108)
    reps = [idx for idx in itertools.product(range(3), repeat=4)
            if idx[0] < idx[2] and idx[1] < idx[3]]
    assert len(reps) == 9
    worst_rs = 0.0
    all_pass = True
    pattern_ok = True
    for s in range(20):
        chosen = rng.choice(len(reps), 3, replace=False)
        seeds = {reps[int(i)]: float(rng.uniform(-1, 1)) for i in chosen}
        e = qc.admissible_phason_modulus(seeds)
        m = qc.QcModuli(Z4, Z4, e)
        if not qc.check_qc_null(m).passed:
            pattern_ok = False
        for idx in itertools.product(range(3), repeat=4):
            if (idx[0] == idx[2] or idx[1] == idx[3]) and e[idx] != 0.0:
                pattern_ok = False
        cert = vf.certify_null(qc.lagrangian(m), trials=2, seed=s, points_per_trial=2)
        all_pass &= cert.passed
        u_p = random_polyfield(rng, 3, 3)
        u_s = random_polyfield(rng, 3, 3)
        for x in rng.uniform(0, 1, (3, 3)):
            _, rs = qc.qc_equilibrium_residual(m, u_p, u_s, None, None, x)
            worst_rs = max(worst_rs, float(np.max(np.abs(rs))))
    ok = all_pass and pattern_ok and worst_rs <= 1e-10
    _verdict(ok, "criterion 8: admissible phason models certify with zero phason residual",
             f"worst phason residual {worst_rs:.2e}")


def test_acceptance_09_residual_cross_validation():
    rng = np.random.default_rng(109)
    worst = 0.0
    for s in range(50):
        family = s % 3
        if family == 0:
            a = _random_major_symmetric(rng)
            b = _random_major_symmetric(rng)
            d = rng.uniform(-1, 1, (3, 3, 3, 3))
            lag = mp.lagrangian(mp.MicropolarModuli(a, b, d))
            n = 6
        elif family == 1:
            c = project(rng.uniform(-1, 1, (3, 3, 3, 3)), qc.PHONON_CLASS)
            d = project(rng.uniform(-1, 1, (3, 3, 3, 3)), MINOR_LEFT)
            e = _random_major_symmetric(rng)
            lag = qc.lagrangian(qc.QcModuli(c, d, e))
            n = 6
        else:
            c = project(rng.uniform(-1, 1, (3, 3, 3, 3)), em.EM_ELASTIC_CLASS)
            sym3 = lambda t: 0.5 * (t + np.transpose(t, (0, 2, 1)))
            sym2 = lambda t: 0.5 * (t + t.T)
            lag = em.lagrangian(em.EmModuli(
                c, sym3(rng.uniform(-1, 1, (3, 3, 3))), sym3(rng.uniform(-1, 1, (3, 3, 3))),
                sym2(rng.uniform(-1, 1, (3, 3))), sym2(rng.uniform(-1, 1, (3, 3))),
                sym2(rng.uniform(-1, 1, (3, 3))),
            ))
            n = 5
        y = random_polyfield(rng, n, 3)
        for x in rng.uniform(0, 1, (2, 3)):
            closed, scale = vf._residual_and_scale(lag, y, x)
            fd, _ = fd_point_residual(lag, y, x)
            worst = max(worst, float(np.max(np.abs(closed - fd))) / scale)
    _verdict(worst <= 1e-5, "criterion 9: closed-form and finite-difference residuals agree",
             f"worst normalized gap {worst:.2e}")


def test_acceptance_10_cli_contract(tmp_path, capsys):
    from fractions import Fraction

    from nullag.rund import GenPoly, GeneratorSet, generator_set_to_json

    nvars = 9

    def unit(var, sign=1):
        expo = [0] * nvars
        expo[var] = 1
        return GenPoly(nvars, {tuple(expo): Fraction(sign)})

    gen_path = tmp_path / "gen.json"
    gen_path.write_text(json.dumps(generator_set_to_json(
        GeneratorSet([unit(3 + 4), unit(3 + 3, -1), GenPoly(nvars)], 6)
    )))

    em_path = tmp_path / "em.json"
    em_path.write_text(json.dumps({
        "model": "em_elast", "C": [0.0] * 81, "P": [0.0] * 27, "Q": [0.0] * 27,
        "Ediel": [0.0] * 9, "Bperm": [0.0] * 9,
        "Acpl": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0],
    }))

    eye = np.eye(3)
    b = 1.0 * np.einsum("ij,kl->ijkl", eye, eye) + 2.0 * np.einsum("il,jk->ijkl", eye, eye)
    tilde = mp.split_B(b).b_tilde
    tilde_path = tmp_path / "tilde.json"
    tilde_path.write_text(json.dumps({
        "model": "micropolar", "A": [0.0] * 81,
        "B": [float(v) for v in tilde.reshape(-1)], "D": [0.0] * 81,
    }))

    code_gen = cli_main(["certify", str(gen_path), "--trials", "4"])
    out_gen_1 = capsys.readouterr().out
    code_em = cli_main(["certify", str(em_path), "--trials", "4"])
    capsys.readouterr()
    code_tilde = cli_main(["certify", str(tilde_path), "--trials", "4"])
    capsys.readouterr()
    codes_ok = (code_gen, code_em, code_tilde) == (0, 1, 0)

    cli_main(["certify", str(gen_path), "--trials", "4"])
    out_gen_2 = capsys.readouterr().out
    deterministic = out_gen_1 == out_gen_2

    cli_main(["split", str(tilde_path)])
    payload = json.loads(capsys.readouterr().out)
    reloaded = np.array(payload["B_tilde"]["data"]).reshape(3, 3, 3, 3)
    round_trip = np.array_equal(reloaded, mp.split_B(tilde).b_tilde)

    _verdict(codes_ok and deterministic and round_trip,
             "criterion 10: CLI exit codes, determinism and bit-exact round trip",
             f"codes {(code_gen, code_em, code_tilde)}")
