import contextlib
import io
import json
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nullag import micropolar as mp
from nullag.cli import _build_parser, main
from nullag.rund import GenPoly, GeneratorSet, generator_set_to_json

Z81 = [0.0] * 81


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def iso_b_flat(b1, b2, b3):
    eye = np.eye(3)
    b = (
        b1 * np.einsum("ij,kl->ijkl", eye, eye)
        + b2 * np.einsum("ik,jl->ijkl", eye, eye)
        + b3 * np.einsum("il,jk->ijkl", eye, eye)
    )
    return [float(v) for v in b.reshape(-1)]


def minor_generator_json():
    nvars = 9
    def unit(var, sign=1):
        expo = [0] * nvars
        expo[var] = 1
        return GenPoly(nvars, {tuple(expo): Fraction(sign)})
    g = GeneratorSet([unit(3 + 4), unit(3 + 3, -1), GenPoly(nvars)], 6)
    return generator_set_to_json(g)


def test_check_zero_micropolar_passes(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"model": "micropolar", "A": Z81, "B": Z81, "D": Z81})
    assert main(["check", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["report"]["passed"] is True


def test_check_isotropic_fails_naming_a_zero(tmp_path, capsys):
    path = write(
        tmp_path,
        "iso.json",
        {"model": "micropolar_isotropic", "lambda": 1.0, "mu": 1.0, "kappa": 1.0,
         "beta1": 0.0, "beta2": 0.0, "beta3": 0.0},
    )
    assert main(["check", path]) == 1
    payload = json.loads(capsys.readouterr().out)
    failing = {c["name"] for c in payload["report"]["checks"] if not c["passed"]}
    assert "A zero" in failing


def test_check_wrong_length_is_usage_error(tmp_path, capsys):
    path = write(tmp_path, "bad.json", {"model": "micropolar", "A": [0.0] * 80, "B": Z81, "D": Z81})
    assert main(["check", path]) == 2
    assert "81" in capsys.readouterr().err


def test_check_unknown_keys_rejected(tmp_path, capsys):
    path = write(
        tmp_path, "bad2.json",
        {"model": "micropolar", "A": Z81, "B": Z81, "D": Z81, "extra": 1},
    )
    assert main(["check", path]) == 2
    assert "unknown keys" in capsys.readouterr().err


def test_split_reports_table_and_counts(tmp_path, capsys):
    path = write(
        tmp_path, "isoB.json",
        {"model": "micropolar", "A": Z81, "B": iso_b_flat(1.0, 0.0, 2.0), "D": Z81},
    )
    code = main(["split", path])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1  # tilde part is nonzero, Cauchy-analogue relations fail
    assert payload["structural_zero_entries"] == 45
    assert payload["independent_entries"] == 18
    entry = {c["name"]: c for c in payload["cauchy_analogue"]["checks"]}["B~_1122"]
    assert entry["max_violation"] == pytest.approx(0.5)
    assert payload["B_ring"]["data"] == [0.0] * 81


def test_split_equal_betas_passes(tmp_path, capsys):
    path = write(
        tmp_path, "isoB2.json",
        {"model": "micropolar", "A": Z81, "B": iso_b_flat(1.0, 0.5, 1.0), "D": Z81},
    )
    assert main(["split", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cauchy_analogue"]["passed"] is True
    assert payload["B_tilde"]["data"] == [0.0] * 81


def test_split_round_trip_bit_exact(tmp_path, capsys):
    rng = np.random.default_rng(0)
    b = rng.uniform(-1, 1, (3, 3, 3, 3))
    b = 0.5 * (b + np.transpose(b, (2, 3, 0, 1)))
    path = write(
        tmp_path, "rand.json",
        {"model": "micropolar", "A": Z81, "B": [float(v) for v in b.reshape(-1)], "D": Z81},
    )
    main(["split", path])
    payload = json.loads(capsys.readouterr().out)
    tilde = np.array(payload["B_tilde"]["data"]).reshape(3, 3, 3, 3)
    assert np.array_equal(tilde, mp.split_B(b).b_tilde)


def test_split_rejects_non_micropolar(tmp_path, capsys):
    path = write(
        tmp_path, "qc.json", {"model": "quasicrystal", "C": Z81, "D": Z81, "E": Z81}
    )
    assert main(["split", path]) == 2


def test_certify_generator_file_passes(tmp_path, capsys):
    path = write(tmp_path, "gen.json", minor_generator_json())
    assert main(["certify", path, "--trials", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["certificate"]["passed"] is True
    assert payload["certificate"]["path"] == "closed-form"
    assert payload["certificate"]["residual_tolerance"] == 1e-10


def test_certify_em_coupling_fails(tmp_path, capsys):
    path = write(
        tmp_path, "em.json",
        {"model": "em_elast", "C": Z81, "P": [0.0] * 27, "Q": [0.0] * 27,
         "Ediel": [0.0] * 9, "Bperm": [0.0] * 9,
         "Acpl": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0]},
    )
    assert main(["certify", path, "--trials", "4"]) == 1


def test_certify_tilde_model_passes(tmp_path, capsys):
    tilde = mp.split_B(np.array(iso_b_flat(1.0, 0.0, 2.0)).reshape(3, 3, 3, 3)).b_tilde
    path = write(
        tmp_path, "tilde.json",
        {"model": "micropolar", "A": Z81, "B": [float(v) for v in tilde.reshape(-1)], "D": Z81},
    )
    assert main(["certify", path, "--trials", "4"]) == 0


def test_certify_deterministic_output(tmp_path, capsys):
    path = write(tmp_path, "gen.json", minor_generator_json())
    main(["certify", path, "--trials", "3", "--seed", "7"])
    first = capsys.readouterr().out
    main(["certify", path, "--trials", "3", "--seed", "7"])
    second = capsys.readouterr().out
    assert first == second


def test_text_format_same_verdict(tmp_path, capsys):
    path = write(tmp_path, "m.json", {"model": "micropolar", "A": Z81, "B": Z81, "D": Z81})
    assert main(["check", path, "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "passed: True" in out


def test_malformed_json_is_usage_error(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["check", str(path)]) == 2


def test_missing_file_is_usage_error(capsys):
    assert main(["check", "/nonexistent/file.json"]) == 2


def generator_with(first_term):
    others = [[{"exponents": [0, 1, 0, 1], "coeff": "1/2"}], [{"exponents": [0, 0, 1, 0], "coeff": "-1"}]]
    return [[first_term]] + others


@pytest.mark.parametrize(
    "term",
    [
        {"exponents": [1.7, 0, 0, 0], "coeff": "1"},
        {"exponents": [1, 0, 0, -1], "coeff": "1"},
        {"exponents": [True, 0, 0, 1], "coeff": "1"},
        {"exponents": [1, 0, 0, 1], "coeff": "1/0"},
        {"exponents": [1, 0, 0, 1], "coeff": 0.1},
        {"exponents": [1, 0, 0, 1], "coeff": 1},
        {"exponents": [1, 0, 0, 1], "coeff": True},
        {"exponents": [1, 0, 0, 1], "coeff": "nan"},
        {"exponents": [1, 0, 0, 1], "coeff": "abc"},
    ],
    ids=["fractional-exponent", "negative-exponent", "bool-exponent", "zero-denominator",
         "number-coeff", "integer-coeff", "bool-coeff", "nan-coeff", "word-coeff"],
)
def test_generator_file_contract_violation_is_usage_error(tmp_path, capsys, term):
    path = write(tmp_path, "gen.json", generator_with(term))
    for argv in (["check", path], ["split", path], ["certify", path, "--trials", "1", "--degree", "2"]):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "coeff, message",
    [(0.1, 'must be a string such as "1/2", got 0.1'), (True, 'must be a string such as "1/2", got True'),
     ("nan", "'nan' is not a rational number"), ("abc", "'abc' is not a rational number")],
)
def test_generator_coefficient_error_names_the_value(tmp_path, capsys, coeff, message):
    path = write(tmp_path, "gen.json", generator_with({"exponents": [1, 0, 0, 1], "coeff": coeff}))
    assert main(["check", path]) == 2
    assert capsys.readouterr().err == f"error: generator coefficient {message}\n"


@pytest.mark.parametrize(
    "coeff",
    ["1e400", "9" * 400, "1e-400"],
    ids=["overflow-exponent", "overflow-400-digits", "underflow-to-zero"],
)
def test_certify_rejects_coefficient_outside_double_range(tmp_path, capsys, coeff):
    path = write(tmp_path, "gen.json", generator_with({"exponents": [1, 0, 0, 1], "coeff": coeff}))
    assert main(["certify", path, "--trials", "1", "--degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "double range" in captured.err


@pytest.mark.parametrize("coeff", ["1e200", "1e308"])
def test_certify_non_finite_density_is_usage_error(tmp_path, capsys, coeff):
    path = write(tmp_path, "gen.json", generator_with({"exponents": [1, 0, 0, 1], "coeff": coeff}))
    assert main(["certify", path, "--trials", "1", "--degree", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "non-finite" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["certify", "GEN", "--trials", "1", "--tol-norm", "nan"],
        ["certify", "GEN", "--trials", "1", "--tol-norm", "-1"],
        ["certify", "GEN", "--trials", "1", "--tol-norm", "inf"],
        ["certify", "GEN", "--trials", "1", "--tol-norm", "-1e+16"],
        ["certify", "GEN", "--trials", "1", "--tol-norm", "-inf"],
        ["certify", "GEN", "--trials", "1", "--order", "0"],
        ["certify", "GEN", "--trials", "1", "--order", "-3"],
        ["certify", "GEN", "--trials", "1", "--seed", "-2"],
        ["check", "ZERO", "--tol-abs", "nan"],
        ["check", "ZERO", "--tol-abs", "-1"],
        ["check", "ZERO", "--tol-abs", "inf"],
        ["check", "ZERO", "--tol-abs", "-1e-3"],
        ["split", "ZERO", "--tol-abs", "nan"],
    ],
    ids=" ".join,
)
def test_invalid_numeric_option_is_usage_error(tmp_path, capsys, argv):
    files = {
        "GEN": write(tmp_path, "gen.json", minor_generator_json()),
        "ZERO": write(tmp_path, "m.json", {"model": "micropolar", "A": Z81, "B": Z81, "D": Z81}),
    }
    assert main([files.get(a, a) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_negative_seed_error_names_option_and_value(tmp_path, capsys):
    err = assert_one_error_line(["certify", write(tmp_path, "gen.json", minor_generator_json()),
                                 "--trials", "1", "--seed", "-2"], capsys)
    assert "seed" in err and "-2" in err


def test_split_tol_abs_is_applied(tmp_path, capsys):
    path = write(
        tmp_path, "isoB.json",
        {"model": "micropolar", "A": Z81, "B": iso_b_flat(1.0, 0.0, 2.0), "D": Z81},
    )
    assert main(["split", path, "--tol-abs", "10"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cauchy_analogue"]["passed"] is True


def iso_params(tag, values):
    names = ["lambda", "mu", "kappa", "beta1", "beta2", "beta3", "zeta", "nu", "rho"]
    return dict(zip(names, values), model=tag)


@pytest.mark.parametrize(
    "model, check_exit, certify_exit",
    [
        ({"model": "micropolar", "A": Z81, "B": Z81, "D": Z81}, 0, 0),
        (iso_params("micropolar_isotropic", [0.0, 0.0, 0.0, 1.0, 0.0, -1.0]), 0, 0),
        (iso_params("micropolar_hemitropic", [1.0, 0.5, 0.25, 1.0, 0.5, 0.25, 1.0, 0.5, 0.25]), 1, 1),
        ({"model": "quasicrystal", "C": Z81, "D": Z81, "E": Z81}, 0, 0),
        (
            {"model": "em_elast", "C": Z81, "P": [0.0] * 27, "Q": [0.0] * 27,
             "Ediel": [0.0] * 9, "Bperm": [0.0] * 9, "Acpl": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0]},
            1, 1,
        ),
    ],
    ids=lambda v: v["model"] if isinstance(v, dict) else str(v),
)
def test_every_model_tag_checks_and_certifies(tmp_path, capsys, model, check_exit, certify_exit):
    path = write(tmp_path, "model.json", model)
    for argv, code in ((["check", path], check_exit), (["certify", path, "--trials", "2"], certify_exit)):
        assert main(argv) == code
        assert json.loads(capsys.readouterr().out)["model"] == model["model"]


def assert_one_error_line(main_argv, capsys):
    assert main(main_argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    return captured.err


@pytest.mark.parametrize("tag", [["x"], {"name": "micropolar"}], ids=["list-tag", "object-tag"])
def test_non_string_model_tag_is_usage_error(tmp_path, capsys, tag):
    path = write(tmp_path, "tag.json", {"model": tag, "A": Z81, "B": Z81, "D": Z81})
    for argv in (["check", path], ["split", path], ["certify", path, "--trials", "1"]):
        assert "unknown model tag" in assert_one_error_line(argv, capsys)


@pytest.mark.parametrize(
    "text",
    ["[" * 100000 + "]" * 100000, '{"model": "micropolar", "A": ' + "[" * 5000 + "]" * 5000 + "}"],
    ids=["nested-list", "nested-model-entry"],
)
def test_deeply_nested_json_is_usage_error(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    for argv in (["check", str(path)], ["split", str(path)], ["certify", str(path), "--trials", "1"]):
        assert "too deeply" in assert_one_error_line(argv, capsys)


def near_double_limit(entries):
    """Flat 81-entry tensor, zero except the given {flat index: value}."""
    t = list(Z81)
    for idx, value in entries.items():
        t[idx] = value
    return t


@pytest.mark.parametrize(
    "command, model, needle",
    [
        # A_1111 - (-A_1111) overflows under swap24 antisymmetry
        ("check", {"model": "micropolar", "A": near_double_limit({0: 1e308, 80: -1.5e308}), "B": Z81, "D": Z81},
         "'A swap24 antisym'"),
        ("check", {"model": "quasicrystal", "C": Z81, "D": Z81, "E": near_double_limit({0: 1e308, 80: -1.5e308})},
         "'E swap13 antisym'"),
        ("check", iso_params("micropolar_isotropic", [1e308] * 6), "must be finite"),
        # B_1122 = B_2211 = -B_1221 = -B_2112: major symmetric, but the split sums overflow
        ("split", {"model": "micropolar", "A": Z81, "D": Z81,
                   "B": near_double_limit({4: 1.5e308, 36: 1.5e308, 12: -1.5e308, 28: -1.5e308})},
         "must be finite"),
        # A_1112 = A_1211: major symmetric, but symmetrizing the density block overflows
        ("certify", {"model": "micropolar", "A": near_double_limit({0: 1e308, 1: -1.5e308, 9: -1.5e308}),
                     "B": Z81, "D": Z81},
         "density block p must be finite"),
        # 5e307 * x1^3 loads, but its second partial 6 * 5e307 * x1 does not fit a double
        ("certify", generator_with({"exponents": [3, 0, 0, 0], "coeff": "5e307"}), "double range"),
    ],
    ids=["micropolar-A", "quasicrystal-E", "isotropic", "split-B", "certify-A", "certify-generator-partial"],
)
def test_moduli_beyond_double_range_are_usage_errors(tmp_path, capsys, command, model, needle):
    path = write(tmp_path, "big.json", model)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        err = assert_one_error_line([command, path], capsys)
    assert needle in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize(
    "model, needle",
    [
        ({"model": "micropolar", "A": [10**400] + Z81[1:], "B": Z81, "D": Z81}, "outside the double range"),
        (iso_params("micropolar_isotropic", [-(10**400), 0, 0, 0, 0, 0]), "outside the double range"),
        ({"model": "micropolar", "A": [True] + Z81[1:], "B": Z81, "D": Z81}, "flat list of 81 numbers"),
        ({"model": "micropolar", "A": Z81, "B": [{}] + Z81[1:], "D": Z81}, "flat list of 81 numbers"),
        ({"model": "micropolar", "A": Z81, "B": Z81, "D": ["1.5"] + Z81[1:]}, "flat list of 81 numbers"),
        (generator_with({"exponents": [2**63, 0, 0, 1], "coeff": "1"}), "too large"),
    ],
    ids=["huge-int-entry", "huge-int-scalar", "bool-entry", "object-entry", "string-entry", "huge-exponent"],
)
def test_numbers_json_cannot_give_as_doubles_are_usage_errors(tmp_path, capsys, model, needle):
    path = write(tmp_path, "model.json", model)
    assert needle in assert_one_error_line(["certify", path, "--trials", "1", "--degree", "2"], capsys)


@pytest.mark.parametrize("command", ["check", "split", "certify"])
def test_generator_exponent_beyond_int64_is_named_at_load(tmp_path, capsys, command):
    path = write(tmp_path, "gen.json", generator_with({"exponents": [0, 2**63, 0, 1], "coeff": "1"}))
    err = assert_one_error_line([command, path], capsys)
    assert err == f"error: generator exponent {2**63} is too large for a 64-bit integer\n"


def cli_bases():
    """One small valid file per model tag, and a generator file."""
    return [
        {"model": "micropolar", "A": Z81, "B": Z81, "D": Z81},
        iso_params("micropolar_isotropic", [0.0, 0.0, 0.0, 1.0, 0.0, -1.0]),
        iso_params("micropolar_hemitropic", [1.0, 0.5, 0.25, 1.0, 0.5, 0.25, 1.0, 0.5, 0.25]),
        {"model": "quasicrystal", "C": Z81, "D": Z81, "E": Z81},
        {"model": "em_elast", "C": Z81, "P": [0.0] * 27, "Q": [0.0] * 27,
         "Ediel": [0.0] * 9, "Bperm": [0.0] * 9, "Acpl": [1.0, 0, 0, 0, 1.0, 0, 0, 0, 1.0]},
        generator_with({"exponents": [1, 0, 0, 1], "coeff": "3/2"}),
    ]


def json_slots(node):
    """Every (container, key) pair in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    out = []
    for key, value in items:
        out.append((node, key))
        out.extend(json_slots(value))
    return out


# Leaves cover every JSON kind and the magnitudes that no double or int64
# holds.  Sizes that only make the work long (large trial counts, degrees,
# orders or exponents) are left out, as they would be from any test.
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.sampled_from([2**63, 10**400, -(10**400)]),
    st.floats(), st.text(max_size=4), st.sampled_from(["1/0", "-3/4", "1e400", "1e-400", "nan", "model"]),
)
JSON_VALUES = st.recursive(JSON_LEAVES, lambda inner: st.lists(inner, max_size=3)
                           | st.dictionaries(st.text(max_size=3), inner, max_size=2), max_leaves=5)

# Every drawn value is a number, so argparse itself never rejects one; the
# sampled negatives are those that argparse's own pattern takes for options.
TOLERANCES = st.floats() | st.sampled_from([-1e16, -1e-3, float("-inf")])
OPTIONS = {
    "check": {"--tol-abs": TOLERANCES},
    "split": {"--tol-abs": TOLERANCES},
    "certify": {"--trials": st.integers(-1, 3), "--degree": st.integers(-1, 4), "--seed": st.integers(-2, 2**70),
                "--order": st.integers(-1, 6), "--tol-norm": TOLERANCES},
}


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data())
def test_cli_exit_contract_under_mutated_inputs(tmp_path_factory, data):
    """Any file and any option value: exit 0, 1 or 2, exactly one `error:`
    line and no other output on 2, and never an uncaught exception."""
    doc = data.draw(st.sampled_from(cli_bases()))
    doc = json.loads(json.dumps(doc))
    for _ in range(data.draw(st.integers(0, 2))):
        slots = json_slots(doc)
        if not slots:
            break
        node, key = data.draw(st.sampled_from(slots))
        action = data.draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            node[key] = data.draw(JSON_VALUES)
        elif action == "delete":
            del node[key]
        elif isinstance(node, dict):
            node[data.draw(st.sampled_from(["model", "A", "extra", "lambda"]))] = data.draw(JSON_VALUES)
        else:
            node.insert(key, data.draw(JSON_VALUES))
    text = json.dumps(doc)
    if data.draw(st.integers(0, 3)) == 0:
        text = text[:data.draw(st.integers(0, len(text)))]
    path = tmp_path_factory.mktemp("cli") / "input.json"
    path.write_text(text)

    command = data.draw(st.sampled_from(sorted(OPTIONS)))
    argv = [command, str(path)]
    for option, values in OPTIONS[command].items():
        if data.draw(st.booleans()):
            argv += [option, str(data.draw(values))]
    argv += data.draw(st.sampled_from([[], ["--format", "text"]]))

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, usage = main(argv), False
        except SystemExit as exc:
            code, usage = exc.code, True
    event(f"exit {code}" + (" (usage)" if usage else ""))
    assert code in (0, 1, 2) and not usage
    if code == 2:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == ""
        assert lines[0].startswith("error: ") and len(lines) == 1
    else:
        assert out.getvalue() and err.getvalue() == ""


def run_main(argv):
    """Exit code, stdout and stderr of one `main` call; a usage error's
    SystemExit gives its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_parser_is_built_once():
    assert _build_parser() is _build_parser()


def test_defaults_do_not_carry_over_between_calls(tmp_path):
    path = write(tmp_path, "gen.json", minor_generator_json())
    code, out, _ = run_main(["certify", path, "--trials", "2", "--seed", "3", "--tol-norm", "1e-3",
                             "--format", "text"])
    assert code == 0 and not out.startswith("{")
    code, out, _ = run_main(["certify", path])
    cert = json.loads(out)["certificate"]
    assert code == 0 and cert["trials"] == 64 and cert["residual_tolerance"] == 1e-10

    model = write(tmp_path, "m.json", {"model": "micropolar", "A": Z81, "B": Z81, "D": Z81})
    assert run_main(["check", model, "--tol-abs", "1e-2", "--format", "text"])[0] == 0
    fresh = run_main(["check", model])
    assert json.loads(fresh[1])["command"] == "check"
    _build_parser.cache_clear()
    assert run_main(["check", model]) == fresh


@pytest.mark.parametrize("bad", [["--bogus"], ["--trials", "x"]], ids=" ".join)
def test_usage_error_leaves_no_state(tmp_path, bad):
    path = write(tmp_path, "m.json", {"model": "micropolar", "A": Z81, "B": Z81, "D": Z81})
    expected = run_main(["certify", path, "--trials", "2"])
    code, out, err = run_main(["certify", path, *bad])
    assert code == 2 and out == "" and "error:" in err
    assert run_main(["certify", path, "--trials", "2"]) == expected


def test_shared_parser_matches_a_fresh_parser_per_call(tmp_path):
    model = write(tmp_path, "m.json", iso_params("micropolar_isotropic", [0.0, 0.0, 0.0, 1.0, 0.0, -1.0]))
    gen = write(tmp_path, "gen.json", minor_generator_json())
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    corpus = [
        ["check", model], ["split", model, "--tol-abs", "1e-3"], ["certify", model, "--trials", "2"],
        ["certify", gen, "--trials", "2", "--seed", "5"], ["check", model, "--format", "text"],
        ["split", model, "--format", "text"], ["check", str(broken)], ["certify", gen, "--trials", "0"],
        ["check"], ["certify", gen, "--seed", "-2"],
    ]
    shared = [run_main(argv) for argv in corpus]
    fresh = []
    for argv in corpus:
        _build_parser.cache_clear()
        fresh.append(run_main(argv))
    assert shared == fresh
    assert {code for code, _, _ in shared} == {0, 1, 2}
