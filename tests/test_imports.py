"""Imports and names in src/orbifoldry/, and in tools/ for the static checks.

Every module-level import is read somewhere in its module: a parameter
deleted from a signature must not leave the import it needed behind, and
listing a name in __all__ is not a use, so no module re-exports another's
names.  Every name in a module's __all__ is one the module defines, so a
deleted name cannot linger there.  Every exception class a module defines
is caught by name somewhere: an error no handler tells apart is raised
as the built-in it would extend, and its message says what went wrong.
Importing the package loads nothing else, and each module
imports on its own; those checks run in fresh interpreters, since this
process has already imported every module.  The same probe runs each
command through the front end: only `verify` loads the suite in `cli`,
and only the commands that count lattice vectors compile the search in
`enumeration`.
"""

import ast
import builtins
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "orbifoldry"
SOURCES = sorted([*PACKAGE.glob("*.py"), *(SRC.parent / "tools").glob("*.py")])
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py")
                 if not path.stem.startswith("__"))


def module_imports(tree):
    """(bound name, line) of each import in the module body."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def unused_imports(source):
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(name, line) for name, line in module_imports(tree)
            if name not in used]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_unused_and_exported_names():
    source = ("from __future__ import annotations\n"
              "import os.path\n"
              "from math import gcd, lcm as least\n"
              "from typing import Any\n"
              "__all__ = ['Any']\n"
              "def f(x: int) -> int:\n"
              "    return gcd(x, 2)\n")
    assert unused_imports(source) == [("os", 2), ("least", 3), ("Any", 4)]


def undefined_exports(source):
    """Names listed in __all__ that no def, class or assignment of the
    module body binds."""
    tree = ast.parse(source)
    defined, listed = set(), []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign)
                   else [])
        for target in targets:
            if isinstance(target, ast.Name):
                defined.add(target.id)
                if target.id == "__all__":
                    listed = ast.literal_eval(node.value)
    return [name for name in listed if name not in defined]


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_all_lists_only_defined_names(path):
    assert undefined_exports(path.read_text()) == []


def test_the_check_sees_stale_and_imported_exports():
    source = ("from math import gcd\n"
              "__all__ = ['LIMIT', 'Label', 'Gone', 'gcd', 'f', 'Box']\n"
              "LIMIT = 3\n"
              "Label: type = tuple\n"
              "def f(): pass\n"
              "class Box: pass\n")
    assert undefined_exports(source) == ["Gone", "gcd"]


def exception_classes(tree, known=frozenset()):
    """Names of the classes in the module body that extend a built-in
    exception or a name in known."""
    def is_exception(base):
        name = (base.id if isinstance(base, ast.Name)
                else base.attr if isinstance(base, ast.Attribute) else None)
        builtin = getattr(builtins, name or "", None)
        return name in known or (isinstance(builtin, type)
                                 and issubclass(builtin, BaseException))

    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)
            and any(map(is_exception, node.bases))}


def caught_names(tree):
    """Names in the except clauses of a module: `X`, `m.X`, or tuples."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = (node.type.elts if isinstance(node.type, ast.Tuple)
                     else [node.type])
            names.update(kind.id if isinstance(kind, ast.Name) else kind.attr
                         for kind in kinds
                         if isinstance(kind, (ast.Name, ast.Attribute)))
    return names


def uncaught_exception_classes(sources):
    trees = [ast.parse(source) for source in sources]
    # to a fixed point, for a class that extends one defined elsewhere
    defined, grown = None, set()
    while grown != defined:
        defined, grown = grown, set().union(*(exception_classes(tree, grown)
                                              for tree in trees))
    caught = set().union(*map(caught_names, trees))
    return sorted(defined - caught)


def test_every_exception_class_is_caught_by_name():
    assert uncaught_exception_classes(path.read_text() for path in SOURCES) == []


def test_the_check_sees_uncaught_exception_classes():
    sources = ("class Refused(ValueError): pass\n"
               "class Deeper(Refused): pass\n"
               "class Plain: pass\n"
               "class Missing(LookupError): pass\n",
               "class Further(m.Refused): pass\n"
               "class Farther(Deeper): pass\n"
               "try:\n"
               "    pass\n"
               "except (Refused, m.Missing):\n"
               "    pass\n")
    assert uncaught_exception_classes(sources) == ["Deeper", "Farther",
                                                   "Further"]


# the data layer, which loads and certifies the Gram and sigma, and the
# modules of the series layer above it
DATA_LAYER = ("datafiles", "isometry", "lattice")
SERIES_LAYER = {"fractions", "qseries"}


def imported_modules(source):
    """The modules each import statement names, at any depth (in a
    function body or an `if TYPE_CHECKING:` block too), split at the
    dots; `from . import x` and `from orbifoldry import x` name x."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(part for alias in node.names
                         for part in alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            names.update((node.module or "").split("."))
            if node.module in (None, "orbifoldry"):
                names.update(alias.name for alias in node.names)
    return names - {""}


@pytest.mark.parametrize("module", DATA_LAYER)
def test_the_data_layer_imports_no_series_module(module):
    source = (PACKAGE / f"{module}.py").read_text()
    assert imported_modules(source) & SERIES_LAYER == set()


def test_the_check_sees_nested_imports():
    source = ("from typing import TYPE_CHECKING\n"
              "if TYPE_CHECKING:\n"
              "    from .qseries import FracSeries\n"
              "def f():\n"
              "    import os.path\n"
              "    from . import sectors\n"
              "    from orbifoldry import modular\n")
    assert imported_modules(source) == {"typing", "qseries", "os", "path",
                                        "sectors", "orbifoldry", "modular"}


# standard modules that loading the data has no use for: argparse serves
# only the command line, json only its output, fractions (which brings in
# decimal) the series layer, and dataclasses brings in inspect (with ast,
# dis and tokenize)
HEAVY = ("argparse", "dataclasses", "fractions", "inspect", "json")


def loaded_after(statement):
    """The orbifoldry modules, and those of HEAVY, loaded in a fresh
    interpreter after running statement."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    probe = (f"{statement}\n"
             "import sys\n"
             "loaded = sorted(m for m in sys.modules"
             f" if m.split('.')[0] == 'orbifoldry' or m in {HEAVY!r})\n"
             "print(' '.join(loaded))\n")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    loaded = set(result.stdout.split())
    return loaded - set(HEAVY), loaded & set(HEAVY)


def test_package_import_loads_no_submodule():
    assert loaded_after("import orbifoldry") == ({"orbifoldry"}, set())


def test_data_layer_loads_only_what_it_reads():
    # the set-up path of every check: load and certify the Gram and sigma
    assert loaded_after("import orbifoldry.datafiles") == (
        {"orbifoldry", "orbifoldry.datafiles", "orbifoldry.isometry",
         "orbifoldry.lattice"}, set())


def test_the_probe_sees_heavy_modules():
    assert loaded_after("import orbifoldry.cli")[1] == set(HEAVY)


@pytest.mark.parametrize("module", MODULES)
def test_each_module_imports_alone(module):
    modules, _ = loaded_after(f"import orbifoldry.{module}")
    assert f"orbifoldry.{module}" in modules


# ----- what each command loads ------------------------------------------------

GRAM = str(PACKAGE / "data" / "leech_gram.txt")

PASSTHROUGHS = {
    "sectors-character": ["sectors", "character", "--p", "3", "--i", "1",
                          "--cutoff", "2"],
    "lattice-check": ["lattice", "check", GRAM],
    "lattice-theta": ["lattice", "theta", GRAM, "--max-norm", "4"],
    "isometry-profile": ["isometry", "profile", GRAM,
                         str(PACKAGE / "data" / "sigma_p3.txt")],
    "fusion-isotropic": ["fusion", "isotropic", "--n", "6"],
    "ising-chars": ["ising", "chars", "--cutoff", "2"],
}


def loaded_by_command(argv):
    """loaded_after one command run through the front end, its output
    discarded."""
    return loaded_after(
        "import contextlib, io\n"
        "from orbifoldry.commands import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({argv!r}) == 0\n")


@pytest.mark.parametrize("argv", PASSTHROUGHS.values(), ids=PASSTHROUGHS)
def test_passthroughs_load_no_suite(argv):
    modules, heavy = loaded_by_command(argv)
    assert "orbifoldry.cli" not in modules
    assert heavy.isdisjoint({"dataclasses", "inspect"})


@pytest.mark.parametrize("construction", ["zp", "z2"])
def test_fusion_orbifold_loads_only_its_layers(construction):
    argv = ["fusion", "orbifold", "--p", "3", "--cutoff", "2",
            "--construction", construction]
    assert loaded_by_command(argv) == (
        {"orbifoldry", "orbifoldry.commands", "orbifoldry.datafiles",
         "orbifoldry.fusion", "orbifoldry.isometry", "orbifoldry.lattice",
         "orbifoldry.modular", "orbifoldry.qseries", "orbifoldry.report",
         "orbifoldry.sectors"},
        {"argparse", "fractions", "json"})


def test_verify_loads_the_suite():
    modules, heavy = loaded_by_command(["verify", "--p", "3", "--cutoff", "2"])
    assert "orbifoldry.cli" in modules
    assert "dataclasses" in heavy


# ----- what compiles the vector search ---------------------------------------

ENUMERATION = "orbifoldry.enumeration"


def test_loading_the_data_compiles_no_enumeration():
    modules, _ = loaded_after(
        "from orbifoldry.datafiles import load_leech, load_sigma\n"
        "load_sigma(13, lattice=load_leech())")
    assert "orbifoldry.lattice" in modules
    assert ENUMERATION not in modules


COUNT_NO_VECTORS = {
    **{f"fusion-orbifold-{construction}":
       ["fusion", "orbifold", "--p", "13", "--cutoff", "14",
        "--construction", construction] for construction in ("zp", "z2")},
    "sectors-character": PASSTHROUGHS["sectors-character"],
}

COUNT_VECTORS = {
    "verify": ["verify", "--p", "3", "--cutoff", "2"],
    "lattice-theta": PASSTHROUGHS["lattice-theta"],
}


@pytest.mark.parametrize("argv", COUNT_NO_VECTORS.values(),
                         ids=COUNT_NO_VECTORS)
def test_commands_that_count_no_vectors_compile_no_enumeration(argv):
    assert ENUMERATION not in loaded_by_command(argv)[0]


@pytest.mark.parametrize("argv", COUNT_VECTORS.values(), ids=COUNT_VECTORS)
def test_commands_that_count_vectors_load_the_enumeration(argv):
    assert ENUMERATION in loaded_by_command(argv)[0]
