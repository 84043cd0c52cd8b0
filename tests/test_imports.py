"""Every name a module imports is used in that module, every parameter of a
function in ``src/klab`` is read by its body, and ``src/klab`` reaches into
no argparse internals, imports no ``csv`` and builds no per-class or per-row
report.  Every top-level function and class in ``src/klab``, and every method
of a reached class, is reached from ``cli.main``, or is named in one of two
lists: the library surface, and the oracles that ``benchmark/`` still calls.
Every attribute a class stores is read as ``.name`` somewhere in ``src/klab``
or ``benchmark/``, or is named in the library surface."""

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


# Names no command reaches that stay in src/klab, each with the reason; a
# method or a stored attribute as Class.name.
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
    "ExtField.mul": "the product by polynomial arithmetic, which reads no log table: the "
                    "tests' oracle for mul_table, mul_vec and the exp table",
    "ExponentVerdict.worst_at": "the exact vertex of the worst exponent, which "
                                "test_divisor pins",
}
# Oracles and aliases that benchmark/ calls or traces by name, and methods it
# reads as attributes (Class.attr, mentioned as .attr); each goes once
# benchmark/ stops naming it.
BENCHMARK_PINNED = {
    "make_prime_field": "PrimeField(q), called by the scan and ext workloads",
    "build_extension": "ExtField(f, d), called by the ext workload",
    "hecke_violations": "the Hecke-relation loop that spans.py traces",
    "centering_residual_exact": "the former name of hyperbola_residual, traced by spans.py",
    "kloosterman_naive": "the single-a brute-force sum that spans.py traces",
    "second_moment_r_lambda_naive": "the literal (r, lam) double sum that spans.py traces",
    "ScanResult.rows": "the scan as ScanRow records, read by w_scan.py and spans.py",
}
CLI_MAIN = ("cli", "main")
_DEF = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FN = (ast.FunctionDef, ast.AsyncFunctionDef)


def module_scopes(sources: dict) -> dict:
    """module -> (defs, imports) for ``sources`` (module name -> source): defs
    maps each top-level name to the statements that bind it (functions,
    classes and assignments), imports each name a relative import binds to
    (module, name), with name None when the import binds a module."""
    scopes = {}
    for mod, source in sources.items():
        defs, imports = {}, {}
        for node in ast.parse(source).body:
            if isinstance(node, ast.ImportFrom) and node.level:
                for alias in node.names:
                    imports[alias.asname or alias.name] = (
                        (node.module, alias.name) if node.module
                        else (alias.name, None) if alias.name in sources
                        else ("__init__", alias.name))
                continue
            if isinstance(node, _DEF):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append(node)
        scopes[mod] = (defs, imports)
    return scopes


def _methods(scopes: dict) -> dict:
    """(module, "Class.name") -> the method's def, for every top-level class."""
    return {(mod, f"{node.name}.{m.name}"): m
            for mod, (defs, _) in scopes.items() for nodes in defs.values()
            for node in nodes if isinstance(node, ast.ClassDef)
            for m in node.body if isinstance(m, _FN)}


def stored_attributes(scopes: dict) -> set:
    """(module, "Class.attr") for each attribute a top-level class stores: its
    annotated class-level names (dataclass fields), and the ``x`` of
    ``self.x = ...`` and of ``object.__setattr__(self, "x", ...)`` in its
    methods."""
    out = set()
    for mod, (defs, _) in scopes.items():
        for cls in (n for nodes in defs.values() for n in nodes if isinstance(n, ast.ClassDef)):
            names = {n.target.id for n in cls.body
                     if isinstance(n, ast.AnnAssign) and isinstance(n.target, ast.Name)}
            for n in ast.walk(cls):
                if (isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                        and getattr(n.value, "id", None) == "self"):
                    names.add(n.attr)
                elif (isinstance(n, ast.Call) and getattr(n.func, "attr", None) == "__setattr__"
                      and len(n.args) > 1 and isinstance(n.args[1], ast.Constant)):
                    names.add(n.args[1].value)
            out |= {(mod, f"{cls.name}.{name}") for name in names}
    return out


def attribute_reads(source: str) -> set:
    """The attribute names that ``source`` reads as ``.name``."""
    return {n.attr for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}


def reachable(scopes: dict, roots) -> set:
    """The keys of ``scopes``, (module, name) or (module, "Class.method"),
    reached from ``roots``.  A Name in a reached statement leads to the
    top-level statements binding it in its module, or through a relative
    import to another module's; ``module.name`` leads to that module's name.
    A reached class's bases, decorators and class-level statements are
    reached, where a Name may be one of its methods (an alias such as
    ``add_vec = add``); each of its methods is reached when it is a dunder,
    or when a reached statement reads an attribute of that name."""
    methods = _methods(scopes)
    by_attr = {}
    for mod, qual in methods:
        by_attr.setdefault(qual.split(".")[1], []).append((mod, qual))

    def resolve(mod, name):
        defs, imports = scopes[mod]
        if name in defs:
            return mod, name
        target, sub = imports.get(name, (None, None))
        return resolve(target, sub) if sub and target in scopes else None

    def reads(mod, node, cls=None):
        """The keys and attribute names the statement ``node`` reads."""
        imports = scopes[mod][1]
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                own = (mod, f"{cls}.{n.id}")
                yield (own if cls and own in methods else resolve(mod, n.id)), None
            elif isinstance(n, ast.Attribute):
                # module.name, or an attribute of some object
                target, sub = imports.get(getattr(n.value, "id", None), (None, ""))
                yield (resolve(target, n.attr), None) if sub is None else (None, n.attr)

    seen, attrs, todo = set(), set(), list(roots)
    while todo:
        key = todo.pop()
        if key is None or key in seen:
            continue
        mod, name = key
        if key in methods:
            parts = [(methods[key], None)]
        elif name in scopes[mod][0]:
            parts = []
            for node in scopes[mod][0][name]:
                if not isinstance(node, ast.ClassDef):
                    parts.append((node, None))
                    continue
                parts += [(n, None) for n in (*node.decorator_list, *node.bases, *node.keywords)]
                parts += [(n, name) for n in node.body if not isinstance(n, _FN)]
                todo += [(mod, f"{name}.{m.name}") for m in node.body if isinstance(m, _FN)
                         and (m.name in attrs or m.name.startswith("__"))]
        else:
            continue
        seen.add(key)
        for node, cls in parts:
            for hit, attr in reads(mod, node, cls):
                todo.append(hit)
                if attr is not None and attr not in attrs:
                    attrs.add(attr)
                    todo += [m for m in by_attr.get(attr, ())
                             if (m[0], m[1].split(".")[0]) in seen]
    return seen


def surface_faults(sources: dict, library: dict, pinned: dict, benchmark: str) -> list:
    """What the reachability guard refuses in ``sources``: a top-level function
    or class, or a method of a reached class, that neither ``cli.main`` nor a
    listed name reaches; an attribute a class stores that no statement of
    ``sources`` or of the ``benchmark`` text reads as ``.name``, unless it is
    listed; a listed name that nothing defines, or that ``cli.main`` reaches
    or a statement reads without the list (a stale entry); and a pinned name
    that the ``benchmark`` text no longer mentions (a pinned Class.method as
    ``.method``)."""
    scopes = module_scopes(sources)
    methods = _methods(scopes)
    stored = stored_attributes(scopes)
    listed = {name: [(mod, name) for mod, (defs, _) in scopes.items()
                     if name in defs or (mod, name) in methods or (mod, name) in stored]
              for name in (*library, *pinned)}
    from_cli = reachable(scopes, [CLI_MAIN])
    reached = reachable(scopes, [CLI_MAIN, *(k for keys in listed.values() for k in keys)])
    read = attribute_reads(benchmark).union(*map(attribute_reads, sources.values()))
    faults = [f"{name}: reached from no root" for mod, (defs, _) in scopes.items()
              for name, nodes in defs.items()
              if (mod, name) not in reached and any(isinstance(n, _DEF) for n in nodes)]
    faults += [f"{qual}: reached from no root" for mod, qual in methods
               if (mod, qual.split(".")[0]) in reached and (mod, qual) not in reached]
    faults += [f"{qual}: stored, but never read" for mod, qual in stored
               if qual.split(".")[1] not in read and qual not in listed]
    for name, keys in listed.items():
        if not keys:
            faults.append(f"{name}: listed, but src defines no such name")
        elif all(k in from_cli for k in keys):
            faults.append(f"{name}: listed, but cli.main reaches it")
        elif all(k in stored for k in keys) and name.split(".")[1] in read:
            faults.append(f"{name}: listed, but a statement reads it")
    tokens = {name: rf"\.{name.split('.')[1]}\b" if "." in name else rf"\b{name}\b"
              for name in pinned}
    faults += [f"{name}: pinned, but benchmark/ no longer mentions it" for name in pinned
               if not re.search(tokens[name], benchmark)]
    return sorted(faults)


_SYNTHETIC = {
    "cli": "from . import lib\n\ndef main():\n    return COMMANDS['x'][0]()\n\n"
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
    # cli.main reaches run through an assignment and a module attribute, and
    # run reaches Box, whose __init__ reaches _half; formula and oracle are
    # listed
    assert surface_faults(_SYNTHETIC, _SURFACE, _PINNED, "lib.oracle()") == []


def test_guard_sees_an_unreachable_def():
    src = {**_SYNTHETIC, "lib": _SYNTHETIC["lib"] + "\ndef orphan():\n    return formula(4)\n"}
    assert surface_faults(src, _SURFACE, _PINNED, "oracle") == ["orphan: reached from no root"]
    assert surface_faults(_SYNTHETIC, {}, _PINNED, "oracle") == ["formula: reached from no root"]


def test_guard_sees_a_def_behind_an_unread_method():
    # Box is reached, but nothing reads .area, so neither it nor _square is
    lib = _SYNTHETIC["lib"].replace(
        "class Box:\n", "class Box:\n    def area(self):\n        return _square(self.size)\n\n")
    src = {**_SYNTHETIC, "lib": lib + "\ndef _square(n):\n    return n * n\n"}
    assert surface_faults(src, _SURFACE, _PINNED, "oracle") == [
        "Box.area: reached from no root", "_square: reached from no root"]
    read = {**src, "cli": src["cli"].replace("()\n", "() + lib.Box(1).area()\n", 1)}
    assert surface_faults(read, _SURFACE, _PINNED, "oracle") == []
    pinned = {**_PINNED, "Box.area": "read by the benchmark"}
    assert surface_faults(src, _SURFACE, pinned, "oracle; b.area") == []
    assert surface_faults(src, _SURFACE, pinned, "oracle; area") == [
        "Box.area: pinned, but benchmark/ no longer mentions it"]


def test_guard_sees_a_def_named_like_an_attribute():
    # run reads Box(2).size, an attribute: a top-level size is never named
    src = {**_SYNTHETIC, "lib": _SYNTHETIC["lib"] + "\ndef size():\n    return 0\n"}
    assert surface_faults(src, _SURFACE, _PINNED, "oracle") == ["size: reached from no root"]


def test_guard_sees_an_unread_method():
    # Box is reached and area calls nothing unreached, but nothing reads .area
    lib = _SYNTHETIC["lib"].replace(
        "class Box:\n", "class Box:\n    def area(self):\n        return self.size ** 2\n\n")
    src = {**_SYNTHETIC, "lib": lib}
    assert surface_faults(src, _SURFACE, _PINNED, "oracle") == ["Box.area: reached from no root"]
    assert surface_faults(src, {**_SURFACE, "Box.area": "a test oracle"}, _PINNED, "oracle") == []


def test_guard_sees_an_attribute_stored_and_never_read():
    # a dataclass field, self.x = ... and object.__setattr__(self, "x", ...),
    # none of them read as .name by the sources or the benchmark text
    lib = _SYNTHETIC["lib"].replace("Box(2).size\n", "Box(2).size, Tag('a')\n").replace(
        "self.size = _half(n)\n", "self.size = _half(n)\n        self.label = 'box'\n")
    lib = ("from dataclasses import dataclass\n" + lib
           + "\n@dataclass(frozen=True)\nclass Tag:\n    name: str\n    weight: int = 0\n\n"
             "    def __post_init__(self):\n        object.__setattr__(self, 'key', self.name)\n")
    src = {**_SYNTHETIC, "lib": lib}
    assert surface_faults(src, _SURFACE, _PINNED, "oracle") == [
        "Box.label: stored, but never read", "Tag.key: stored, but never read",
        "Tag.weight: stored, but never read"]
    listed = {**_SURFACE, "Tag.key": "read by the tests", "Tag.weight": "read by the tests"}
    assert surface_faults(src, listed, _PINNED, "oracle; box.label") == []
    assert surface_faults(src, {**listed, "Box.label": "read"}, _PINNED, "oracle; b.label") == [
        "Box.label: listed, but a statement reads it"]


def test_guard_follows_imports_and_class_level_aliases():
    # a name read in cli through ``from .lib import`` and a class-level
    # alias; Box.grow is reached through the alias it is read by
    lib = _SYNTHETIC["lib"].replace(
        "class Box:\n", "class Box:\n    def grow(self):\n        return _double(self)\n\n"
                        "    enlarge = grow\n\n") + "\ndef _double(b):\n    return 2\n"
    cli = ("from .lib import Box as B, run\n\ndef main():\n    return B(1).enlarge() + run()\n")
    assert surface_faults({"cli": cli, "lib": lib}, _SURFACE, _PINNED, "oracle") == []
    # without the import, a name of another module is not a read of it
    bare = cli.replace("from .lib import Box as B, run\n", "")
    assert surface_faults({"cli": bare, "lib": lib}, _SURFACE, _PINNED, "oracle") == [
        "Box: reached from no root", "_double: reached from no root",
        "run: reached from no root"]


def test_guard_sees_a_stale_library_entry():
    stale = {**_SURFACE, "_half": "reached by cli.main", "gone": "deleted",
             "Box.gone": "no such method"}
    assert surface_faults(_SYNTHETIC, stale, _PINNED, "oracle") == [
        "Box.gone: listed, but src defines no such name",
        "_half: listed, but cli.main reaches it",
        "gone: listed, but src defines no such name"]


def test_guard_sees_a_pinned_name_the_benchmark_no_longer_mentions():
    assert surface_faults(_SYNTHETIC, _SURFACE, _PINNED, "# oracles.py") == [
        "oracle: pinned, but benchmark/ no longer mentions it"]


def test_src_holds_what_runs():
    sources = {p.stem: p.read_text() for p in SRC}
    benchmark = "\n".join(p.read_text() for p in sorted((ROOT / "benchmark").glob("*.py")))
    assert surface_faults(sources, LIBRARY_SURFACE, BENCHMARK_PINNED, benchmark) == []
