"""Every name a module imports is used in that module, every parameter of a
function in ``src/klab`` is read by its body, and ``src/klab`` reaches into
no argparse internals, imports no ``csv`` and builds no per-class or per-row
report."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = sorted((ROOT / "src" / "klab").glob("*.py"))
FILES = sorted([*SRC, *(ROOT / "tests").glob("*.py"), *(ROOT / "benchmark").glob("*.py")])


def unused_imports(source: str) -> list:
    """Names bound by the imports of ``source`` that it never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in bound.items()
                  if name not in read)


def test_guard_sees_an_unused_import():
    assert unused_imports("import os\nfrom math import pi, tau\nprint(pi)\n") == [
        "os (line 1)", "tau (line 2)"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unread_parameters(source: str) -> list:
    """``name(param)`` for each parameter of a function in ``source`` that its
    body never reads; ``self``, ``cls`` and names starting with ``_`` are exempt."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs,
                  *(p for p in (a.vararg, a.kwarg) if p is not None)]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name)}
        out += [f"{fn.name}({p.arg})" for p in params
                if p.arg not in read and p.arg not in ("self", "cls")
                and not p.arg.startswith("_")]
    return out


def test_guard_sees_an_unread_parameter():
    src = ("def f(a, b=0, *rest, c, _d, **kw):\n"
           "    def g(self, e):\n"
           "        return a + c\n"
           "    return kw\n")
    assert unread_parameters(src) == ["f(b)", "f(rest)", "g(e)"]
    assert unread_parameters("def f(x, cls):\n    return lambda: x\n") == []


@pytest.mark.parametrize("path", SRC, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_parameters(path):
    assert unread_parameters(path.read_text()) == []


@pytest.mark.parametrize("path", SRC, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_argparse_internals(path):
    source = path.read_text()
    assert "argparse._" not in source and "._actions" not in source


FIELD_CLASSES = {"PrimeField", "ExtField", "make_prime_field", "build_extension"}


def field_class_names(source: str) -> list:
    """The names of ``FIELD_CLASSES`` that ``source`` imports, reads or looks up
    as an attribute; every module but ``fields`` builds its fields through
    ``finite_field``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.alias):
            found.add(node.name)
        elif isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
    return sorted(found & FIELD_CLASSES)


def test_guard_sees_a_field_class():
    src = ("from .fields import PrimeField as P\n"
           "import klab.fields as fl\n"
           "f = fl.build_extension(P(5), 2)\n"
           "# ExtField in a comment is no use\n")
    assert field_class_names(src) == ["PrimeField", "build_extension"]


@pytest.mark.parametrize("path", [p for p in SRC if p.name != "fields.py"],
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_only_fields_names_the_field_classes(path):
    assert field_class_names(path.read_text()) == []


def imported_modules(source: str) -> set:
    """The top-level names of the modules that ``source`` imports."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
            out.add(node.module.split(".")[0])
    return out


def test_guard_sees_an_imported_module():
    src = "import csv as c\nfrom io import StringIO\nfrom .errors import IoError\n"
    assert imported_modules(src) == {"csv", "io"}


@pytest.mark.parametrize("path", SRC, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_csv_module_and_no_progression_reports(path):
    # CSV lines come from reporting's streaming emitter; class sums and the
    # bilinear sweep are columns, and bilinear forms take plain arrays
    source = path.read_text()
    assert "csv" not in imported_modules(source)
    for name in ("ProgressionReport", "BilinearInstance", "ParameterPlan", "BoundReport",
                 "SweepSpec"):
        assert name not in source
