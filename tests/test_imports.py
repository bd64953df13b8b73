"""numpy is the only runtime dependency: importing every module of the
package loads no test or symbolic library, builds no CLI parser, keeps no
monomial matrix at a quadrature rule and allocates no monomial scratch.
Across the modules, no module reads another's private names or imports a
name it never uses, every public definition is exported under one name and
the package root re-exports nothing, no cached array can be written, and
every record that holds arrays compares and hashes."""

import ast
import importlib
import inspect
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nullag
from nullag import em, modelio, polyfield, rund, tensors
from nullag import micropolar as mp
from nullag import quasicrystal as qc

TEST_ONLY = ("hypothesis", "pytest", "scipy", "sympy")


def test_runtime_imports_load_only_numpy():
    code = (
        "import importlib, pkgutil, sys, nullag\n"
        "for module in pkgutil.iter_modules(nullag.__path__):\n"
        "    importlib.import_module(f'nullag.{module.name}')\n"
        "from nullag.cli import _build_parser\n"
        "print(_build_parser.cache_info().currsize)\n"
        "from nullag.polyfield import _rule_blocks, _scratch\n"
        "print(len(_rule_blocks))\n"
        "print(len(vars(_scratch)))\n"
        "print(' '.join(sorted({name.split('.')[0] for name in sys.modules})))\n"
    )
    src = str(Path(nullag.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], cwd=src, env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout.split()
    parsers_built, rules_kept, scratch_kept, out = out[0], out[1], out[2], out[3:]
    assert parsers_built == "0"
    assert rules_kept == "0"
    assert scratch_kept == "0"
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


def package_modules():
    """Each module of the package: its name, the module, its syntax tree."""
    for path in sorted(Path(nullag.__file__).resolve().parent.glob("*.py")):
        name = "nullag" if path.stem == "__init__" else f"nullag.{path.stem}"
        yield name, importlib.import_module(name), ast.parse(path.read_text())


def test_no_module_imports_a_name_it_never_uses():
    """A deletion leaves no import behind: each imported name is read in
    its module or listed in the module's `__all__`."""
    unused = []
    for name, module, tree in package_modules():
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", None) != "__future__" for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unused += [f"{name}.{n}" for n in sorted(imported - read - set(getattr(module, "__all__", ())))]
    assert unused == []


def test_every_public_definition_is_exported_and_every_export_resolves():
    """Where a module declares `__all__`, each entry is an attribute of the
    module and each public function or class it defines is an entry; a
    second name bound by assignment, such as `Poly3 = PolyField`, is exempt."""
    unresolved, unlisted = [], []
    for name, module, tree in package_modules():
        exported = getattr(module, "__all__", None)
        if exported is not None:
            unresolved += [f"{name}.{n}" for n in exported if not hasattr(module, n)]
            unlisted += [f"{name}.{node.name}" for node in tree.body
                         if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
                         and node.name not in exported]
    assert (unresolved, unlisted) == ([], [])


#: Second exported names that stay, each with its reason.
ALIASES = {
    "micropolar.IsotropicParams": "the constants of the isotropic model tag: the hemitropic record with b = 0",
    "micropolar.TILDE_CLASS": "the class of B~, read by the benchmark's workloads",
    "quasicrystal.PHASON_NULL_CLASS": "the class of a null phason modulus, read by the benchmark's workloads",
}


def test_every_exported_object_has_one_name_and_the_package_root_binds_none():
    """Each function, class or symmetry class listed in an `__all__` is
    listed under one module-qualified name, apart from `ALIASES`; the
    package root binds `__version__` and nothing else, so the library is
    its modules."""
    names = {}
    for name, module, _ in package_modules():
        for export in getattr(module, "__all__", ()):
            obj = getattr(module, export)
            qualified = f"{name.removeprefix('nullag.')}.{export}"
            if (inspect.isfunction(obj) or inspect.isclass(obj) or isinstance(obj, tensors.SymmetryClass)) \
                    and qualified not in ALIASES:
                names.setdefault(id(obj), []).append(qualified)
    assert [sorted(found) for found in names.values() if len(found) > 1] == []
    docstring, *statements = ast.parse(Path(nullag.__file__).read_text()).body
    assert isinstance(docstring, ast.Expr)
    assert [ast.unparse(node).partition(" = ")[0] for node in statements] == ["__version__"]


def arrays_in(value):
    """The ndarrays of a value, looking inside tuples, lists and exponent
    tables (their rows and monomial plan)."""
    if isinstance(value, np.ndarray):
        return [value]
    if isinstance(value, polyfield.ExponentTable):
        return arrays_in((value.expos, value.plan))
    if isinstance(value, (tuple, list)):
        return [a for item in value for a in arrays_in(item)]
    return []


def test_cached_zero_argument_functions_return_read_only_arrays():
    """A cached function hands every caller the same object, so one
    caller's write would change every later result."""
    returned = {}
    for info in pkgutil.iter_modules(nullag.__path__):
        module = importlib.import_module(f"nullag.{info.name}")
        for name, obj in vars(module).items():
            if (hasattr(obj, "cache_info") and obj.__module__ == module.__name__
                    and not inspect.signature(obj).parameters):
                returned[f"{info.name}.{name}"] = arrays_in(obj())
    assert {f"micropolar.coupling_{kind}" for kind in
            ("direct_rows", "entrywise_rows", "direct_projector", "entrywise_projector")} <= set(returned)
    writable = [name for name, arrays in returned.items() if any(a.flags.writeable for a in arrays)]
    assert writable == []


def lists_in(value) -> bool:
    """Whether a value holds a list, which a caller could change in place."""
    return isinstance(value, list) or isinstance(value, tuple) and any(map(lists_in, value))


def table_arrays(table):
    """What a cached exponent table shares with every field over it: itself
    and its derivative table and maps."""
    return table, table.derivative()


def table(*expos):
    """The shared table of the exponent tuples."""
    return polyfield.table_of(np.array(expos, dtype=np.int64).reshape(-1, 3))[0]


#: Every cached function of the package that takes parameters, with a call
#: on small arguments that returns what it shares with later callers.
CACHED_CALLS = {
    "polyfield._table": lambda f: table_arrays(f(3, np.array([[0, 0, 0], [0, 1, 2], [2, 0, 1]], ">i8").tobytes())),
    "polyfield._dense": lambda f: (table_arrays(f(2)[0]), f(2)),
    "polyfield._union": lambda f: f((table((0, 0, 1)), table((1, 0, 0), (0, 0, 1)))),
    "polyfield._product": lambda f: f(table((0, 0, 1)), table((1, 0, 0), (0, 2, 0))),
    "quadrature.gauss_points_01": lambda f: f(2),
    "quadrature.cube_rule": lambda f: f(2),
    "quadrature.boundary_rule": lambda f: f(2),
    "rund._partial_tuples": lambda f: (f(2, 1), f(2, 2)),
    "tensors._index_tuples": lambda f: f(2),
    "tensors.combine": lambda f: (f("MAJOR_MINOR", tensors.MAJOR, tensors.MINOR_LEFT).orbits,
                                  f("MAJOR_MINOR", tensors.MAJOR, tensors.MINOR_LEFT)._check_plan),
}


def test_cached_functions_with_parameters_return_read_only_arrays():
    """As for the zero-argument ones, every array a cached function returns
    is shared, and so is every container: tuples, not lists.  A cached
    function missing from `CACHED_CALLS` fails here."""
    cached = {f"{info.name}.{name}": obj
              for info in pkgutil.iter_modules(nullag.__path__)
              for name, obj in vars(importlib.import_module(f"nullag.{info.name}")).items()
              if hasattr(obj, "cache_info") and obj.__module__ == f"nullag.{info.name}"
              and inspect.signature(obj).parameters}
    assert sorted(cached) == sorted(CACHED_CALLS)
    shared = {name: call(cached[name]) for name, call in CACHED_CALLS.items()}
    writable = [name for name, value in shared.items() if any(a.flags.writeable for a in arrays_in(value))]
    assert writable == []
    assert [name for name, value in shared.items() if lists_in(value)] == []


def generators():
    return rund.random_generator_set(np.random.default_rng(7), 6)


def test_a_generator_sets_kept_partial_tables_are_read_only():
    """A set keeps its first- and second-partial tables for every later
    `first_partials` and `second_partials` call, so one write to them would
    change every later result."""
    g = generators()
    kept = (g._gradient(), g._hessian())
    assert all(isinstance(part[2], polyfield.ExponentTable) and part[0] is part[2].expos for part in kept)
    arrays = arrays_in(kept)
    assert len(arrays) > 6 and not any(a.flags.writeable for a in arrays)


#: Every frozen dataclass of the package that holds arrays, with a call that
#: builds one; two calls build equal-valued records.
ARRAY_RECORDS = {
    "MicropolarModuli": mp.MicropolarModuli.zero,
    "BSplit": lambda: mp.split_B(np.eye(9).reshape(3, 3, 3, 3)),
    "QcModuli": qc.QcModuli.zero,
    "EmModuli": em.EmModuli.zero,
    "LoadedModel": lambda: modelio.load_model(
        {"model": "quasicrystal", "C": [0.0] * 81, "D": [0.0] * 81, "E": [0.0] * 81}),
    "RundCoefficients": lambda: rund.rund_coefficients(generators(), [0.1, 0.2, 0.3], np.full(6, 0.5)),
}


@pytest.mark.parametrize("name", ARRAY_RECORDS)
def test_records_holding_arrays_compare_and_hash_by_identity(name):
    """Comparing value by value would ask numpy for the truth of an array."""
    x, copy = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert type(x).__name__ == name
    assert x == x
    assert x != copy
    assert hash(x) == hash(x) and x in {x}
