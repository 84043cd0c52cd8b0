"""Every name a module imports is used in that module, every parameter of a
function in ``src/klab`` is read by its body, and ``src/klab`` reaches into
no argparse internals, imports no ``csv`` and builds no per-class or per-row
report.  Every top-level function and class in ``src/klab`` is reached from
``cli.main``, or is named in one of two lists: the library surface, and the
oracles that ``benchmark/`` still calls."""

import ast
import pathlib
import re

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


# Names no command reaches that stay in src/klab, each with the reason.
LIBRARY_SURFACE = {
    "product_grid": "the Q x Q grid G[r, s] of the four-fold sums, scattered from the kernel",
    "sigma_incomplete": "the incomplete (r, s)-range sum of the shift-by-ab reduction",
    "sigma_neq": "the eight-fold sum over s1 != s2 mod q of the same reduction",
    "ktilde_all": "the q-periodic transform of a function mod q through Kl_3",
    "combined_bounds": "the four bracket values of the progression estimate",
    "bound_exponents": "the five tau-exponent bounds at one (mu', nu')",
    "saving_exponent": "the q-exponent a bracket saves over the trivial bound",
    "nontrivial_threshold": "the exponent where a bracket's saving crosses zero",
    "plan_parameters_typeII": "the (A, B) of the type II shift-by-ab plan",
}
# Oracles and aliases that benchmark/ calls or traces by name; each goes once
# benchmark/ stops naming it.
BENCHMARK_PINNED = {
    "make_prime_field": "PrimeField(q), called by the scan and ext workloads",
    "build_extension": "ExtField(f, d), called by the ext workload",
    "hecke_violations": "the Hecke-relation loop that spans.py traces",
    "centering_residual_exact": "the former name of hyperbola_residual, traced by spans.py",
    "kloosterman_naive": "the single-a brute-force sum that spans.py traces",
    "second_moment_r_lambda_naive": "the literal (r, lam) double sum that spans.py traces",
}
ROOT_NAME = "main"  # cli.main


def top_level_defs(sources: dict) -> dict:
    """name -> the top-level statements of ``sources`` (module name -> source)
    that bind it: functions, classes and assignments."""
    defs = {}
    for source in sources.values():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(node)
    return defs


def reachable(defs: dict, roots) -> set:
    """The names of ``defs`` reached from ``roots``: every identifier, a Name
    or an Attribute, in a reached statement leads to every top-level
    statement that binds that name."""
    seen, todo = set(), [r for r in roots if r in defs]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in defs[name]:
            for n in ast.walk(node):
                ident = n.id if isinstance(n, ast.Name) else getattr(n, "attr", None)
                if ident in defs and ident not in seen:
                    todo.append(ident)
    return seen


def surface_faults(sources: dict, library: dict, pinned: dict, benchmark: str) -> list:
    """What the reachability guard refuses in ``sources``: a top-level function
    or class that neither ``cli.main`` nor a listed name reaches; a listed
    name that no statement binds, or that ``cli.main`` reaches alone (a stale
    entry); and a pinned name that the ``benchmark`` text no longer mentions."""
    defs = top_level_defs(sources)
    from_cli = reachable(defs, [ROOT_NAME])
    reached = reachable(defs, [ROOT_NAME, *library, *pinned])
    faults = [f"{name}: reached from no root" for name, nodes in defs.items()
              if name not in reached and any(
                  isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  for n in nodes)]
    for name in (*library, *pinned):
        if name not in defs:
            faults.append(f"{name}: listed, but src defines no such name")
        elif name in from_cli:
            faults.append(f"{name}: listed, but cli.main reaches it")
    faults += [f"{name}: pinned, but benchmark/ no longer mentions it" for name in pinned
               if not re.search(rf"\b{re.escape(name)}\b", benchmark)]
    return sorted(faults)


_SYNTHETIC = {
    "cli": "def main():\n    return COMMANDS['x'][0]()\n\n"
           "COMMANDS = {'x': (lib.run, 'help')}\n",
    "lib": "import math\n\ndef run():\n    return Box(2).size\n\n"
           "class Box:\n    def __init__(self, n):\n        self.size = _half(n)\n\n"
           "def _half(n):\n    return n // 2\n\n"
           "def formula(x):\n    return math.sqrt(x)\n\n"
           "def oracle():\n    return _half(3)\n",
}
_SURFACE = {"formula": "a formula"}
_PINNED = {"oracle": "traced"}


def test_guard_passes_a_synthetic_tree_with_every_name_reached():
    # cli.main reaches run through an assignment and an attribute, and run
    # reaches Box and _half; formula and oracle are listed
    assert surface_faults(_SYNTHETIC, _SURFACE, _PINNED, "lib.oracle()") == []


def test_guard_sees_an_unreachable_def():
    src = {**_SYNTHETIC, "lib": _SYNTHETIC["lib"] + "\ndef orphan():\n    return formula(4)\n"}
    assert surface_faults(src, _SURFACE, _PINNED, "oracle") == ["orphan: reached from no root"]
    assert surface_faults(_SYNTHETIC, {}, _PINNED, "oracle") == ["formula: reached from no root"]


def test_guard_sees_a_stale_library_entry():
    stale = {**_SURFACE, "_half": "reached by cli.main", "gone": "deleted"}
    assert surface_faults(_SYNTHETIC, stale, _PINNED, "oracle") == [
        "_half: listed, but cli.main reaches it",
        "gone: listed, but src defines no such name"]


def test_guard_sees_a_pinned_name_the_benchmark_no_longer_mentions():
    assert surface_faults(_SYNTHETIC, _SURFACE, _PINNED, "# oracles.py") == [
        "oracle: pinned, but benchmark/ no longer mentions it"]


def test_src_holds_what_runs():
    sources = {p.stem: p.read_text() for p in SRC}
    benchmark = "\n".join(p.read_text() for p in sorted((ROOT / "benchmark").glob("*.py")))
    assert surface_faults(sources, LIBRARY_SURFACE, BENCHMARK_PINNED, benchmark) == []
