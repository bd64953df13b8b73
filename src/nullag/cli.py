"""Command-line surface: check / split / certify on model or generator files.

Exit codes: 0 verdict passed, 1 verdict failed, 2 input or usage error.
`main(argv)` may be called repeatedly in one process: the parser is built
once, on first use, and holds no state between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import micropolar
from .modelio import load_input_file
from .report import DEFAULT_TOL_ABS, ConditionReport
from .rund import GeneratorSet, build_null_lagrangian
from .tensors import orbit_summary, tensor_to_json
from .verifier import certify_null


class _Parser(argparse.ArgumentParser):
    """Reads every negative number as an option value, -1e+16 and -inf too;
    argparse's own pattern knows only plain decimals and takes the rest for
    an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\.?\d|inf|nan)", re.IGNORECASE)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nullag",
        description="Check, split and certify null Lagrangians of generalized elastic media.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "text"), default="json")

    p_check = sub.add_parser("check", help="run the null-condition system for a model file")
    p_check.add_argument("model_file")
    p_check.add_argument("--tol-abs", type=float, default=DEFAULT_TOL_ABS)
    common(p_check)

    p_split = sub.add_parser("split", help="hat/tilde/ring split of a micropolar rotation modulus")
    p_split.add_argument("model_file")
    p_split.add_argument("--tol-abs", type=float, default=DEFAULT_TOL_ABS)
    common(p_split)

    p_cert = sub.add_parser("certify", help="randomized null certificate for a model or generator file")
    p_cert.add_argument("input_file")
    p_cert.add_argument("--trials", type=int, default=64)
    p_cert.add_argument("--degree", type=int, default=3)
    p_cert.add_argument("--seed", type=int, default=42)
    p_cert.add_argument("--order", type=int, default=8)
    p_cert.add_argument("--tol-norm", type=float, default=None)
    common(p_cert)
    return parser


def _emit(payload: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(payload, indent=2))
        return
    for line in _text_lines(payload):
        print(line)


def _text_lines(payload: dict, indent: str = ""):
    for key, value in payload.items():
        if isinstance(value, dict):
            yield f"{indent}{key}:"
            yield from _text_lines(value, indent + "  ")
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            yield f"{indent}{key}:"
            for item in value:
                summary = " ".join(f"{k}={v}" for k, v in item.items())
                yield f"{indent}  - {summary}"
        else:
            yield f"{indent}{key}: {value}"


def _report_exit(report: ConditionReport) -> int:
    return 0 if report.passed else 1


def _cmd_check(args) -> int:
    model = load_input_file(args.model_file)
    if isinstance(model, GeneratorSet):
        raise ValueError("check needs a model file, not a generator file")
    report = model.check(args.tol_abs)
    _emit({"command": "check", "model": model.kind, "report": report.as_dict()}, args.format)
    return _report_exit(report)


def _cmd_split(args) -> int:
    model = load_input_file(args.model_file)
    if isinstance(model, GeneratorSet) or not isinstance(model.moduli, micropolar.MicropolarModuli):
        raise ValueError("split needs a micropolar model file")
    parts = micropolar.split_B(model.moduli.b)
    cauchy = micropolar.cauchy_analogue(parts.b_tilde, tol_abs=args.tol_abs)
    counts = orbit_summary(micropolar.TILDE_CLASS)
    zero_entries = counts["forced_zero_entries"]
    payload = {
        "command": "split",
        "model": model.kind,
        "B_hat": tensor_to_json(parts.b_hat),
        "B_tilde": tensor_to_json(parts.b_tilde),
        "B_ring": tensor_to_json(parts.b_ring),
        "structural_zero_entries": zero_entries,
        "independent_entries": (81 - zero_entries) // 2,
        "cauchy_analogue": cauchy.as_dict(),
    }
    _emit(payload, args.format)
    return _report_exit(cauchy)


def _cmd_certify(args) -> int:
    loaded = load_input_file(args.input_file)
    if isinstance(loaded, GeneratorSet):
        lag, kind = build_null_lagrangian(loaded), "generator"
    else:
        lag, kind = loaded.lagrangian(), loaded.kind
    cert = certify_null(
        lag,
        trials=args.trials,
        degree=args.degree,
        seed=args.seed,
        order=args.order,
        residual_tol=args.tol_norm,
    )
    _emit({"command": "certify", "model": kind, "certificate": cert.as_dict()}, args.format)
    return 0 if cert.passed else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {"check": _cmd_check, "split": _cmd_split, "certify": _cmd_certify}
    try:
        return handlers[args.command](args)
    # ArithmeticError: FloatingPointError from a density that overflows, and
    # OverflowError from a file number that no double or int64 holds.
    except (ValueError, OSError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
