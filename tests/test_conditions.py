"""The three family null-condition checks against the hand-written check
bodies they were before each became an ordered list of named linear maps
measured by `report.check_conditions`.  The bodies below are kept as the reference:
every report must equal theirs entry for entry, and an overflowing
condition must be named by the same message."""

import numpy as np
import pytest

from nullag import em
from nullag import micropolar as mp
from nullag import quasicrystal as qc
from nullag.report import DEFAULT_TOL_ABS, make_check, make_report, tensor_scale
from nullag.tensors import (
    MAJOR,
    MINOR_LEFT,
    SWAP13_ANTI,
    SWAP24_ANTI,
    TILDE,
    ZERO_IF_IK_OR_JL,
    check_symmetry,
    levi_civita,
    project,
)

T4, T3, T2 = (3, 3, 3, 3), (3, 3, 3), (3, 3)


# ------------------------------------------------------- reference check bodies

def reference_null_sufficient(m, tol_abs=DEFAULT_TOL_ABS):
    lc = levi_civita()
    balance = np.einsum("mkl,klin->min", lc, m.d) - np.einsum("ijk,jkmn->min", lc, m.d)
    sa, sb, sd = tensor_scale(m.a), tensor_scale(m.b), tensor_scale(m.d)
    with np.errstate(over="ignore", invalid="ignore"):
        checks = [
            make_check("A swap24 antisym", check_symmetry(m.a, SWAP24_ANTI), sa, tol_abs),
            make_check("B swap24 antisym", check_symmetry(m.b, SWAP24_ANTI), sb, tol_abs),
            make_check("D swap24 antisym", check_symmetry(m.d, SWAP24_ANTI), sd, tol_abs),
            make_check("D alternating balance", np.max(np.abs(balance)), sd, tol_abs),
            make_check("A alternating annihilation", np.max(np.abs(np.einsum("mkl,ijkl->mij", lc, m.a))), sa,
                       tol_abs),
            make_check("A zero", np.max(np.abs(m.a)), sa, tol_abs),
        ]
    return make_report(checks)


def reference_qc_null(m, tol_abs=DEFAULT_TOL_ABS):
    se = tensor_scale(m.e)
    checks = [
        make_check("C zero", np.max(np.abs(m.c)), tensor_scale(m.c), tol_abs),
        make_check("D zero", np.max(np.abs(m.d)), tensor_scale(m.d), tol_abs),
        make_check("E major symmetry", check_symmetry(m.e, MAJOR), se, tol_abs),
        make_check("E swap13 antisym", check_symmetry(m.e, SWAP13_ANTI), se, tol_abs),
        make_check("E swap24 antisym", check_symmetry(m.e, SWAP24_ANTI), se, tol_abs),
        make_check("E zero on repeated odd/even index", check_symmetry(m.e, ZERO_IF_IK_OR_JL), se, tol_abs),
    ]
    return make_report(checks)


def reference_em_null(m, tol_abs=DEFAULT_TOL_ABS):
    sp, sq = tensor_scale(m.p), tensor_scale(m.q)
    checks = [
        make_check("C zero", np.max(np.abs(m.c)), tensor_scale(m.c), tol_abs),
        make_check("Ediel zero", np.max(np.abs(m.ediel)), tensor_scale(m.ediel), tol_abs),
        make_check("Bperm zero", np.max(np.abs(m.bperm)), tensor_scale(m.bperm), tol_abs),
        make_check("P alternating antisym", check_symmetry(m.p, em.OUTER_SWAP_ANTI), sp, tol_abs),
        make_check("P zero on matching outer index", check_symmetry(m.p, em.ZERO_IF_OUTER_EQUAL), sp, tol_abs),
        make_check("Q alternating antisym", check_symmetry(m.q, em.OUTER_SWAP_ANTI), sq, tol_abs),
        make_check("Q zero on matching outer index", check_symmetry(m.q, em.ZERO_IF_OUTER_EQUAL), sq, tol_abs),
        make_check("A antisym", check_symmetry(m.acpl, em.ANTISYM2), tensor_scale(m.acpl), tol_abs),
    ]
    return make_report(checks)


# ------------------------------------------------------------- seeded inputs

def onto(cls):
    return lambda t: project(t, cls)


def coupling_null(t):
    return (mp.coupling_direct_projector() @ t.reshape(81)).reshape(T4)


def draw(rng, shape, *forms):
    """A seeded tensor of `shape`, its entries spread over twelve decades,
    passed through one of `forms` picked by the rng (None leaves it raw)."""
    t = rng.uniform(-1, 1, shape) * 10.0 ** rng.uniform(-6, 6, shape)
    form = forms[rng.integers(len(forms))]
    return t if form is None else form(t)


def tolerance(rng):
    return 10.0 ** rng.uniform(-14, 0)


#: check -> (its reference body, seeded arguments): random admissible
#: moduli, their projections onto the null classes and zero blocks.
CASES = {
    "micropolar": (mp.check_null_sufficient, reference_null_sufficient, lambda rng: (mp.MicropolarModuli(
        draw(rng, T4, onto(MAJOR), np.zeros_like), draw(rng, T4, onto(MAJOR), onto(TILDE)),
        draw(rng, T4, None, coupling_null)), tolerance(rng))),
    "quasicrystal": (qc.check_qc_null, reference_qc_null, lambda rng: (qc.QcModuli(
        draw(rng, T4, onto(qc.PHONON_CLASS), np.zeros_like), draw(rng, T4, onto(MINOR_LEFT), np.zeros_like),
        draw(rng, T4, onto(MAJOR), onto(TILDE))), tolerance(rng))),
    "em_elast": (em.check_em_null, reference_em_null, lambda rng: (em.EmModuli(
        draw(rng, T4, onto(em.EM_ELASTIC_CLASS), np.zeros_like),
        *(draw(rng, T3, onto(em.TRAILING_SYM3), np.zeros_like) for _ in "pq"),
        *(draw(rng, T2, onto(em.SYM2), np.zeros_like) for _ in range(3))), tolerance(rng))),
}


@pytest.mark.parametrize("case", CASES)
def test_condition_reports_equal_the_reference_bodies(case):
    check, reference, arguments = CASES[case]
    verdicts = set()
    for seed in range(50):
        args = arguments(np.random.default_rng(seed))
        report = check(*args)
        assert report.as_dict() == reference(*args).as_dict()
        verdicts.add(report.passed)
    assert verdicts == {True, False}


Z4, Z3, Z2 = np.zeros(T4), np.zeros(T3), np.zeros(T2)


@pytest.mark.parametrize("check, reference, moduli, name", [
    (mp.check_null_sufficient, reference_null_sufficient,
     lambda: mp.MicropolarModuli(np.full(T4, 1.7e308), Z4, Z4), "A swap24 antisym"),
    (qc.check_qc_null, reference_qc_null, lambda: qc.QcModuli(Z4, Z4, np.full(T4, 1.7e308)), "E swap13 antisym"),
    (em.check_em_null, reference_em_null,
     lambda: em.EmModuli(Z4, np.full(T3, 1.7e308), Z3, Z2, Z2, Z2), "P alternating antisym"),
], ids=["micropolar-A", "quasicrystal-E", "em_elast-P"])
def test_the_first_overflowing_condition_is_named(check, reference, moduli, name):
    for run in (check, reference):
        with pytest.raises(ValueError) as raised:
            run(moduli())
        assert str(raised.value) == f"condition {name!r}: violation overflows the double range"
