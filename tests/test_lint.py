"""Source checks on the package: every imported name is used, every
module-level function and class and every non-dunder method of a class is
referenced by some module of it, no module takes another module's private
name, and every package name that README.md cites exists and takes the
arguments it is cited with.  The package imports nothing outside the
standard library, and the tests nothing outside it, the package and the
`test` extra of pyproject.toml."""

import ast
import inspect
import re
import sys
import types
from pathlib import Path

import pytest

import redchern
from redchern import chern, cli, oracle, poly, symfun, universal, verify

MODULES = sorted(Path(redchern.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"
PYPROJECT = README.parent / "pyproject.toml"
TESTS = sorted(Path(__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The names a module imports and never reads, with their lines.

    A name listed in __all__ is used by being exported, and the
    `annotations` feature of `from __future__` is used by being imported.
    """
    tree = ast.parse(source)
    imported = {}
    exempt = {"annotations"}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exempt.update(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [
        f"{name} (line {line})"
        for name, line in imported.items()
        if name not in read and name not in exempt
    ]


def test_an_unused_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "from fractions import Fraction as Q\n"
        "from math import comb\n"
        "__all__ = ['comb']\n"
        "x: Q = Q(1)\n"
    )
    assert unused_imports(source) == ["os (line 2)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def outside_imports(source: str, allowed: set[str]) -> list[str]:
    """The top-level modules a module imports from outside the standard
    library and allowed, with their lines; a relative import is its own
    package's."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for top in (name.split(".")[0] for name in names):
            if top not in sys.stdlib_module_names and top not in allowed:
                found.append(f"{top} (line {node.lineno})")
    return found


def test_an_outside_import_is_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from redchern import poly\n"
        "from . import naive\n"
        "from .naive import x_vars\n"
        "def f():\n"
        "    from scipy.linalg import solve\n"
    )
    assert outside_imports(source, {"redchern"}) == ["numpy (line 2)", "scipy (line 7)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_the_package_imports_only_the_standard_library(path):
    assert outside_imports(path.read_text(encoding="utf-8"), {"redchern"}) == []


def extra_modules() -> set[str]:
    """The distributions of pyproject.toml's `test` extra, as the module names
    they install (each is its distribution's name)."""
    text = PYPROJECT.read_text(encoding="utf-8")
    extra = re.search(r"^test = \[(.*?)\]", text, flags=re.M | re.S)[1]
    return {name.lower().replace("-", "_") for name in re.findall(r'"([\w.-]+)', extra)}


@pytest.mark.parametrize("path", TESTS, ids=lambda path: path.name)
def test_the_tests_import_only_what_the_test_extra_installs(path):
    allowed = {"redchern", *extra_modules()}
    assert outside_imports(path.read_text(encoding="utf-8"), allowed) == []


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """The module-level functions and classes, and the non-dunder methods of
    those classes, that no module references.

    sources maps module file names to their text.  A reference is a name
    read or an attribute looked up anywhere in the package; an import alone
    is none.  Names in a module's __all__ are exempt: the package exports
    them.  Dunder methods are exempt: Python calls them.
    """
    trees = {name: ast.parse(source) for name, source in sources.items()}
    referenced = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
            ):
                referenced.update(ast.literal_eval(node.value))
    found = []
    for name, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name not in referenced:
                found.append(f"{name}: {node.name} (line {node.lineno})")
            methods = node.body if isinstance(node, ast.ClassDef) else ()
            for item in methods:
                if (
                    isinstance(item, ast.FunctionDef)
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                    and item.name not in referenced
                ):
                    found.append(f"{name}: {node.name}.{item.name} (line {item.lineno})")
    return found


def test_an_unreferenced_definition_is_found():
    sources = {
        "a.py": (
            "import click\n"
            "__all__ = ['exported']\n"
            "def exported(): pass\n"
            "def helper(): pass\n"
            "def orphan(): return helper()\n"
            "class Used: pass\n"
            "class Orphan: pass\n"
        ),
        "b.py": "from a import Orphan, Used\nimport a\nx = Used()\ny = a.orphan\n",
        "cli.py": (
            "def run_cmd(): pass\n"
            "def stray(): pass\n"
            "COMMANDS = {'run': run_cmd}\n"
        ),
    }
    assert unreferenced_definitions(sources) == [
        "a.py: Orphan (line 7)",
        "cli.py: stray (line 2)",
    ]


def test_an_unreferenced_method_is_found():
    sources = {
        "a.py": (
            "class Ring:\n"
            "    def __init__(self): self.x = self._helper()\n"
            "    def _helper(self): return 1\n"
            "    @property\n"
            "    def rank(self): return 2\n"
            "    def called(self): return self.rank\n"
            "    def orphan(self): pass\n"
            "    def __eq__(self, other): return True\n"
        ),
        "b.py": "from a import Ring\nRing().called()\n",
    }
    assert unreferenced_definitions(sources) == ["a.py: Ring.orphan (line 7)"]


def test_every_definition_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8") for path in MODULES}
    assert unreferenced_definitions(sources) == []


def _dotted(node) -> str | None:
    """"a.b.c" for a chain of attribute lookups on a name, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id, *reversed(parts)])


def private_names_taken(source: str) -> list[str]:
    """The underscore names a module imports from a redchern module or reads
    as an attribute of one, with their lines.

    A module is bound by `import redchern.x` or `from redchern import x`;
    dunder names such as __version__ are public.
    """
    tree = ast.parse(source)
    modules = set()
    found = []

    def private(name: str) -> bool:
        return name.startswith("_") and not name.endswith("__")

    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "redchern":
                    modules.add(alias.asname or alias.name)
                    modules.add(alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module.split(".")[0] != "redchern":
                continue
            for alias in node.names:
                if private(alias.name):
                    found.append(f"{alias.name} (line {node.lineno})")
                elif node.module == "redchern":
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and private(node.attr)
            and _dotted(node.value) in modules
        ):
            found.append(f"{_dotted(node)} (line {node.lineno})")
    return found


def test_a_private_name_taken_from_another_module_is_found():
    source = (
        "import redchern.poly\n"
        "from redchern import chern as ch, __version__\n"
        "from redchern.chern import _twisted_class, twist\n"
        "from fractions import _gcd\n"
        "x = ch._cache + ch.twist(1)[0]\n"
        "y = redchern.poly._split_name('c1')\n"
        "z = twist._private + __version__\n"
    )
    assert private_names_taken(source) == [
        "_twisted_class (line 3)",
        "ch._cache (line 5)",
        "redchern.poly._split_name (line 6)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_name_taken_from_another_module(path):
    assert private_names_taken(path.read_text(encoding="utf-8")) == []


def evaluate_calls_off_the_class(source: str) -> list[str]:
    """The calls of an attribute `evaluate` not looked up as MPoly.evaluate,
    with their lines.

    MPoly.evaluate takes its polynomials as its first argument.  A tracer
    that replaces the class attribute with a plain function, as
    perfbench/tracer.py does, would bind an instance call's instance to
    that argument instead, so every call goes through the class.
    """
    return [
        f"{ast.unparse(node.func)} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "evaluate"
        and _dotted(node.func) != "MPoly.evaluate"
    ]


def test_an_evaluate_call_off_the_class_is_found():
    source = (
        "from redchern.poly import MPoly\n"
        "a = MPoly.evaluate([p], v, one)\n"
        "b = p.evaluate([p], v, one)\n"
        "c = evaluate(v)\n"
        "d = rings[0].evaluate([p], v, one)\n"
    )
    assert evaluate_calls_off_the_class(source) == [
        "p.evaluate (line 3)",
        "rings[0].evaluate (line 5)",
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_every_evaluate_call_goes_through_the_class(path):
    assert evaluate_calls_off_the_class(path.read_text(encoding="utf-8")) == []


# the package modules and classes that head the dotted names README.md cites
DOC_HEADS = {
    head.__name__.split(".")[-1]: head
    for head in (
        *(poly, symfun, chern, universal, oracle, verify, cli),
        *(poly.MPoly, poly.VarTable, oracle.ToyRing, oracle.ProjectiveBundleRing),
        oracle.SeedVector,
    )
}


def _argument_count(args: str) -> int:
    """The number of comma-separated arguments, brackets nested."""
    depth, count = 0, 1 if args.strip() else 0
    for ch in args:
        depth += (ch in "([{") - (ch in ")]}")
        count += ch == "," and depth == 0
    return count


def doc_names(text: str) -> list[re.Match]:
    """The backticked dotted names in text whose head is in DOC_HEADS, each
    as a match of head, attribute path and call arguments (None if no call).

    Fenced code blocks are dropped first; their backticks would pair up
    with those of the prose.
    """
    found = []
    for span in re.findall(r"`([^`]+)`", re.sub(r"```.*?```", "", text, flags=re.S)):
        span = " ".join(span.split())
        match = re.fullmatch(r"(\w+)((?:\.\w+)+)(?:\((.*)\))?", span)
        if match and match[1] in DOC_HEADS:
            found.append(match)
    return found


def doc_name_drift(text: str) -> list[str]:
    """The backticked dotted names in text that name nothing in the package,
    and the backticked calls whose argument count their signature rejects.

    An instance method cited through its class, as in
    MPoly.graded_component(d), is bound with its self as well.
    """
    found = []
    for match in doc_names(text):
        span = match[0]
        owner, target = None, DOC_HEADS[match[1]]
        for attr in match[2][1:].split("."):
            owner, target = target, getattr(target, attr, None)
            if target is None:
                break
        if target is None:
            found.append(f"{span}: no such name")
            continue
        if match[3] is None:
            continue
        count = _argument_count(match[3])
        if inspect.isclass(owner) and isinstance(
            inspect.getattr_static(owner, attr), types.FunctionType
        ):
            count += 1
        try:
            inspect.signature(target).bind(*range(count))
        except TypeError:
            found.append(f"{span}: {count} arguments do not bind")
    return found


def test_a_drifted_doc_name_is_found():
    text = (
        "```\nsrc/\n  a `fenced` block\n```\n"
        "`universal.brauer_reduced(n, classes)` and `universal.brauer_reduced`,\n"
        "`chern.no_such_name`, `MPoly.evaluate(polys, point, one)`,\n"
        "`MPoly.one(ring)`, `MPoly.graded_component(d)`,\n"
        "`MPoly.evaluate(point, one)`,\n"
        "`oracle.check_bundles(ring,\n theory, seeds)`, `chern.twist()`,\n"
        "`poly.add_terms(f(a, b), {1: 2})`, `foo.bar(1)` and `redchern verify`,\n"
        "`symfun.elementary_to_monomial(lam, n)`"
    )
    assert doc_name_drift(text) == [
        "universal.brauer_reduced(n, classes): 2 arguments do not bind",
        "chern.no_such_name: no such name",
        "MPoly.evaluate(point, one): 2 arguments do not bind",
        "chern.twist(): 0 arguments do not bind",
        "symfun.elementary_to_monomial(lam, n): 2 arguments do not bind",
    ]


def test_every_doc_name_in_the_readme_resolves():
    text = README.read_text(encoding="utf-8")
    assert doc_names(text)
    assert doc_name_drift(text) == []
