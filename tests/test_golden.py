"""Golden certificates: three seeded `certify_null` runs pinned bit for bit.

The values were captured on x86-64 with numpy 2.4 and its bundled OpenBLAS.
They guard the summation order of field sampling, state evaluation and the
boundary actions: a refactor that reorders a sum changes a digit here.
"""

import numpy as np

from nullag import micropolar as mp
from nullag import quasicrystal as qc
from nullag import rund
from nullag.tensors import MINOR_LEFT, project
from nullag.verifier import certify_null


def isotropic_null():
    return mp.lagrangian(mp.IsotropicParams(0.0, 0.0, 0.0, 1.5, 0.0, -1.5).moduli())


def quasicrystal_failing():
    rng = np.random.default_rng(7)
    c = project(rng.uniform(-1, 1, (3, 3, 3, 3)), qc.PHONON_CLASS)
    d = project(rng.uniform(-1, 1, (3, 3, 3, 3)), MINOR_LEFT)
    e = rng.uniform(-1, 1, (3, 3, 3, 3))
    return qc.lagrangian(qc.QcModuli(c, d, 0.5 * (e + np.transpose(e, (2, 3, 0, 1)))))


def generator_file():
    """An N = 6 degree-2 set, read back through the generator file format."""
    g = rund.random_generator_set(np.random.default_rng(11), 6, 2)
    return rund.build_null_lagrangian(rund.generator_set_from_json(rund.generator_set_to_json(g)))


def certificate(passed, residual, deltas, trials, seed):
    return {
        "passed": passed,
        "max_normalized_residual": residual,
        "boundary_action_deltas": deltas,
        "residual_tolerance": 1e-10,
        "action_tolerance": 1e-12,
        "trials": trials,
        "degree": 3,
        "seed": seed,
        "path": "closed-form",
    }


def test_isotropic_null_certificate_is_pinned():
    got = certify_null(isotropic_null(), trials=16, seed=3).as_dict()
    assert got == certificate(
        True, 5.43794324249998e-17,
        [8.506501293248521e-16, 2.1678857249979616e-16, 0.0], 16, 3,
    )


def test_failing_quasicrystal_certificate_is_pinned():
    got = certify_null(quasicrystal_failing(), trials=16, seed=5).as_dict()
    assert got == certificate(
        False, 3.2647079857339785,
        [0.002346794226699682, 0.00038771168479726664, 0.07073301681618101], 16, 5,
    )


def test_generator_file_certificate_is_pinned():
    got = certify_null(generator_file(), trials=8, seed=9).as_dict()
    assert got == certificate(
        True, 7.68540956647454e-16,
        [1.544453366918214e-16, 2.2208557614002883e-16, 4.284067211271351e-16], 8, 9,
    )
