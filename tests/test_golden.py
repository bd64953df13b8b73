"""Golden certificates: three seeded `certify_null` runs pinned bit for bit,
and the digests of `check` and `split` output on model files of every tag.

The values were captured on x86-64 with numpy 2.4 and its bundled OpenBLAS.
They guard the summation order of field sampling, state evaluation and the
boundary actions: a refactor that reorders a sum changes a digit here.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nullag
from nullag import micropolar as mp
from nullag import quasicrystal as qc
from nullag import rund
from nullag.cli import main
from nullag.polyfield import bubble, field_states, random_polyfield
from nullag.tensors import MINOR_LEFT, project
from nullag.verifier import action_integral, boundary_dependence_test, certify_null


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
    return rund.RundLagrangian(rund.generator_set_from_json(rund.generator_set_to_json(g)))


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


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def test_evaluation_digests_are_pinned():
    """Bits of the evaluations behind the certificates, beyond the three
    above: generator partials at 6,000 rows (three 2048-row blocks), stacked
    field states over two tables, and order-12 actions of dense degree-4
    fields, captured with the per-variable power-table kernel."""
    rng = np.random.default_rng(2024)
    g = rund.random_generator_set(rng, 6, 3)
    x, y = rng.uniform(0, 1, (6000, 3)), rng.uniform(-1, 1, (6000, 6))
    assert digest(*g.first_partials(x, y)) == "49620896acccae7b2a49a0463202fd009a5a86e0541f49c6b6333a47c8f89b3e"
    assert digest(*g.second_partials(x, y)) == "c022b8c5c52311dd557d77fade835d689dda181f87acd0b73c28c34d7fc80156"

    rng = np.random.default_rng(2025)
    fields = ([random_polyfield(rng, 6, 3) for _ in range(6)]
              + [bubble() * random_polyfield(rng, 6, 2) for _ in range(2)])
    states = field_states(fields, rng.uniform(0, 1, (len(fields), 40, 3)))
    assert digest(*states) == "29b5ffa7442f5a7dd5b5d560c21873206b44deec7976dc5db53cd1d56b4715a1"

    rng = np.random.default_rng(2026)
    y, w = random_polyfield(rng, 6, 4), random_polyfield(rng, 6, 4)
    assert repr(action_integral(isotropic_null(), y, 12)) == "-5.8132339109173135"
    assert repr(boundary_dependence_test(isotropic_null(), y, w, 12)) == "3.552713678800501e-15"


#: Captured before the coupling rows were derived from the condition maps.
CLI_DIGESTS = {
    "check/mp-null/json": "bc14cc44018609932f266d73b47af480d637e9b05de701a3f33309dfcf1f5c30",
    "check/mp-null/text": "f9d215d57aca0c8a789d3129a45b5012121ff8f4b67850ca881102ee7b833dfc",
    "split/mp-null/json": "409c734e008006ef061350b4e87f9bb390bb2f9fdf3b85b5da3090a3688609cb",
    "split/mp-null/text": "47c71ebca75dfaf6ad028bbb1a885f800198f643bdf28d1010f034321469d06e",
    "check/mp-hat/json": "4a7b72f21a85f579fddd0179149d85269975f7dcee6aa69ab74070d582d648b9",
    "check/mp-hat/text": "64836a75075046af856a1d10010eb4a3b40860cf3fa28b6ff9bdcd080421a2fb",
    "split/mp-hat/json": "45d0e4782996d568e121e541f3ae9948be407ea76c4a1aafff49ccf18b5c359b",
    "split/mp-hat/text": "7e519508b0cd39d172680745edc3f7841ee4095a3abf2f541096a5219023147c",
    "check/mp-random/json": "4f3051e25cf4bf7ae0b9c2fe769b822fdef75c425576d5bb399f7bce178fe0a7",
    "check/mp-random/text": "ff6be24e0faa693120e31b0bd958c2686bba33cb22059c19cb4b6447cfaf90c9",
    "split/mp-random/json": "8cc6a82f547d411c5102469bd87b5c2d8e12486c2b3cf4d8231780a0c4fbaa31",
    "split/mp-random/text": "5d4fce01ac57eba5a4f9683621079ad85c6505463b2f753384eb49f1f168fb4a",
    "check/iso-null/json": "65562d79a596e405569ec3d39d124b9dad6c55451c59d5835e890ee2bbc11030",
    "check/iso-null/text": "99c06aa31c3cd4eade4d0caf6ddfbf55eaca83d44cdf200f2d7eef1540ec357e",
    "split/iso-null/json": "b1a6a1b093c0888e0f9f30f977232fa267348c318d728d44b6760b3424d893f1",
    "split/iso-null/text": "5543934954ab3a7985abbe155215a7227e5c97077028d481f5077bcda270912f",
    "check/iso-random/json": "ebf7538de57c5a3e67bbefdc8acadf897cf756a58e4d6a699ff4c38d7e0befb6",
    "check/iso-random/text": "b2036bd305e7c74e5456bcba578d67be7b4784169f9563fa0de23cbd70a86fc3",
    "split/iso-random/json": "d404fe9e9b525aaf7bbfa13ce5eda9f093f92105046d86b122952cb24471ba43",
    "split/iso-random/text": "84cb4fb22b013f417be02855242839b1188c9c482873be6a6b2aba5cebf4d538",
    "check/hemi-random/json": "03862aebec21a9e0f37b16b92f85c3209a86ebed419daf3e147c56d37efa6361",
    "check/hemi-random/text": "0719c8ebcf3f6baa1f8a84d368f34d891cf20d5bd759f9b87108ccc22feca5a9",
    "split/hemi-random/json": "02929844a89b2364aef9d4d8b23d0b660c133a4436ed1e63d509d3d4bbc13cb0",
    "split/hemi-random/text": "ca75ee4d88f33d7ee8f9558e8a22862fcf36a6a10ad5c5bc6d874deb483f6822",
    "check/qc-phason/json": "0c20147c1b717d9408546fa289f0f1d45008846b9d9973f68ad20e0bf20df55a",
    "check/qc-phason/text": "1ea7f776d2983aa2e09fe8d9048b44b59c46643772c7c7cec5b3062afd64caa0",
    "check/qc-random/json": "06ce3bd7d71207c09d684aff9c3d85c476972eb6fa22f2a1a03aba9444a4efde",
    "check/qc-random/text": "9452c28ab64b3d59f7ea071708a8746e1ac94ef04c145eefc0588f4ee9084f65",
    "check/em-random/json": "9c2400ce543d8c252c584a48228dc558c330fcb8eb371a5c272ccda039eb79d1",
    "check/em-random/text": "991c22f97a63fc12ca84e06076655e776c53630a8e6525f0d2c1f22cbf921c00",
}


#: The golden model files as fixed decimal text (the `repr` of each float), so
#: that the digests test the program on any BLAS kernel, not the input builder.
GOLDEN_MODELS = Path(__file__).with_name("golden_models.json")


def cli_models():
    """Model files of all five tags, among them a micropolar model with a
    projected null D and a B-tilde, and a quasicrystal model whose phason E
    is closed from seeds.  They were drawn from `default_rng(77)` and built
    with BLAS products: major-symmetric or uniform moduli, a null D from
    `coupling_direct_projector()`, B parts from `split_B`, C projected onto
    its symmetry class, and the constants of the isotropic and hemitropic
    files uniform in [-2, 2]."""
    return json.loads(GOLDEN_MODELS.read_text())


def test_check_and_split_output_digests_are_pinned(tmp_path, capsys):
    """SHA-256 of `check` and `split` stdout, with the exit code, in both
    formats; `split` runs on the micropolar files only."""
    got = {}
    for name, model in cli_models().items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(model))
        for command in ("check", "split") if model["model"].startswith("micropolar") else ("check",):
            for fmt in ("json", "text"):
                code = main([command, str(path), "--format", fmt])
                text = f"{code}\n{capsys.readouterr().out}"
                got[f"{command}/{name}/{fmt}"] = hashlib.sha256(text.encode()).hexdigest()
    assert got == CLI_DIGESTS


#: Captured before the default sampler drew its streams into stacked arrays.
CERTIFY_DIGESTS = {
    "certify/mp-null/json": "e3014f0d1dc516ab4013474af09732bb754afcfbe511b6a5f64d8bec4d866ded",
    "certify/mp-null/text": "46619069ae40002d40137c246fffc8dbc2421469b128e7565a905f248106144d",
    "certify/qc-random/json": "5551940d4bf58ee6ee87940a9c639080a3acde1c697b21d0e555182181fb77bc",
    "certify/qc-random/text": "d15cdd959c5ce6196ff595c706b4aa822ff1986917cdbb189b4d83911a19f06f",
}


def test_default_certify_output_digests_are_pinned(tmp_path, capsys):
    """SHA-256 of `certify` stdout, with the exit code, at the CLI's
    defaults (64 trials, degree 3, seed 42), on a null micropolar file whose
    density reads field values and a failing quasicrystal file whose
    density reads gradients only."""
    got = {}
    for name in ("mp-null", "qc-random"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cli_models()[name]))
        for fmt in ("json", "text"):
            code = main(["certify", str(path), "--format", fmt])
            got[f"certify/{name}/{fmt}"] = hashlib.sha256(f"{code}\n{capsys.readouterr().out}".encode()).hexdigest()
    assert got == CERTIFY_DIGESTS


KERNEL_CHILD = """
import contextlib, io, json, sys
from nullag.cli import main
outputs = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        outputs.append([main(argv), out.getvalue()])
print(json.dumps(outputs))
"""


def test_verdicts_agree_across_blas_kernels(tmp_path):
    """One corpus through `main` under the default OpenBLAS kernel and two
    older ones, each in its own child: the same exit codes, the same `check`
    and `split` bytes, and `certify` numbers within 1e-12 (residual) and
    1e-14 (boundary deltas) of the default kernel's; the largest gaps seen
    are 8.1e-16 and 1.2e-15.  Only the child's environment names the kernel."""
    models = cli_models()
    paths = []
    for name in ("mp-null", "hemi-random", "qc-random"):
        paths.append(tmp_path / f"{name}.json")
        paths[-1].write_text(json.dumps(models[name]))
    gen = tmp_path / "gen.json"
    gen.write_text(json.dumps(rund.generator_set_to_json(rund.random_generator_set(np.random.default_rng(11), 3, 2))))
    corpus = [[command, str(path)] for path in paths for command in ("check", "split")]
    corpus += [["certify", str(path), "--trials", "4"] for path in (*paths, gen)]
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(nullag.__file__).resolve().parents[1])
    children = {
        core: subprocess.Popen([sys.executable, "-c", KERNEL_CHILD, json.dumps(corpus)], stdout=subprocess.PIPE,
                               text=True, env={**env, **({"OPENBLAS_CORETYPE": core} if core else {})})
        for core in (None, "Sandybridge", "Prescott")
    }
    outputs = {core: json.loads(child.communicate(timeout=120)[0]) for core, child in children.items()}
    assert all(child.returncode == 0 for child in children.values())
    default = outputs.pop(None)
    assert {code for code, _ in default} == {0, 1, 2}
    for got in outputs.values():
        for argv, (code, out), (code0, out0) in zip(corpus, got, default, strict=True):
            assert code == code0, argv
            if argv[0] != "certify":
                assert out == out0, argv
                continue
            payload, payload0 = json.loads(out), json.loads(out0)
            cert, cert0 = payload.pop("certificate"), payload0.pop("certificate")
            assert payload == payload0
            residual, residual0 = cert.pop("max_normalized_residual"), cert0.pop("max_normalized_residual")
            assert abs(residual - residual0) <= 1e-12, argv
            deltas, deltas0 = cert.pop("boundary_action_deltas"), cert0.pop("boundary_action_deltas")
            assert np.max(np.abs(np.subtract(deltas, deltas0))) <= 1e-14, argv
            assert cert == cert0, argv
