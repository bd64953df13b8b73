"""numpy is the only runtime dependency: importing every module of the
package loads no test or symbolic library, builds no CLI parser and keeps
no monomial matrix at a quadrature rule."""

import os
import re
import subprocess
import sys
from pathlib import Path

import nullag

TEST_ONLY = ("hypothesis", "pytest", "scipy", "sympy")


def test_runtime_imports_load_only_numpy():
    code = (
        "import importlib, pkgutil, sys, nullag\n"
        "for module in pkgutil.iter_modules(nullag.__path__):\n"
        "    importlib.import_module(f'nullag.{module.name}')\n"
        "from nullag.cli import _build_parser\n"
        "print(_build_parser.cache_info().currsize)\n"
        "from nullag.polyfield import _rule_blocks\n"
        "print(len(_rule_blocks))\n"
        "print(' '.join(sorted({name.split('.')[0] for name in sys.modules})))\n"
    )
    src = str(Path(nullag.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout.split()
    parsers_built, rules_kept, out = out[0], out[1], out[2:]
    assert parsers_built == "0"
    assert rules_kept == "0"
    assert "numpy" in out
    assert sorted(set(out) & set(TEST_ONLY)) == []


PRIVATE_NAME = re.compile(
    r"\b(cli|em|micropolar|modelio|polyfield|quadrature|quasicrystal|rund|tensors|verifier|report)\._"
)


def test_no_module_reads_another_modules_private_names():
    package = Path(nullag.__file__).resolve().parent
    reads = [f"{path.name}:{number}: {line.strip()}"
             for path in sorted(package.glob("*.py"))
             for number, line in enumerate(path.read_text().splitlines(), 1)
             if PRIVATE_NAME.search(line)]
    assert reads == []
