"""Source rules for the package that no test of behaviour would catch.

- No ``assert`` statement: invariant checks raise a DomainError so that
  they still run under ``python -O``.
- No unused import in a module: a deletion leaves the imports of what it
  deleted behind.  ``__init__.py`` imports to re-export, so it is exempt.
- No orphaned private function or method: a module-level ``_function``, or
  a ``_method`` of a module-level class, must be named somewhere in the
  package outside its own body (methods are matched by name, whatever the
  class).
- No unreferenced public function: a module-level function of the package
  without a leading underscore must be named somewhere in ``src/``,
  ``tests/`` or ``perfbench/`` outside its own body, or be a
  ``[project.scripts]`` target.  A re-export in ``__init__.py`` imports the
  name but does not name it in code, so it does not count.
- No raise outside the error taxonomy: every ``raise`` names a class
  defined in ``errors.py`` or a parameter of an enclosing function (as
  ``expect_cover``'s ``exc``), or is a bare re-raise, so every failure
  carries a stable code.
- No dead error class: every class defined in ``errors.py`` is named
  somewhere in the package outside ``errors.py``, so a deletion cannot
  leave the code of a failure that can no longer happen.
- No ``type=int`` in a call: argparse would read the option with
  ``int()``, which accepts whitespace, a sign, ``_`` and non-ASCII digits;
  every integer option goes through ``cli._int``, which accepts only the
  printed form.

Each check returns one line per violation, naming file, line and name;
each has a test that plants a violation in a copy of the package.
"""

import ast
import collections
import re
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tamecovers"


def _modules(pkg: Path) -> list[Path]:
    return sorted(pkg.rglob("*.py"))


def assert_statements(pkg: Path) -> list[str]:
    pattern = re.compile(r"^\s*assert\b")
    return [f"{path.relative_to(pkg)}:{n}: {line.strip()}"
            for path in _modules(pkg)
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.match(line)]


def unused_imports(pkg: Path) -> list[str]:
    bad = []
    for path in _modules(pkg):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for a in node.names:
                    imported[a.asname or a.name.split(".")[0]] = node.lineno
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        for node in ast.walk(tree):
            # a quoted annotation such as -> "Poly" uses the names in it
            for note in (getattr(node, "returns", None), getattr(node, "annotation", None)):
                if isinstance(note, ast.Constant) and isinstance(note.value, str):
                    used.update(n.id for n in ast.walk(ast.parse(note.value, mode="eval"))
                                if isinstance(n, ast.Name))
        bad += [f"{path.relative_to(pkg)}:{line}: {name} imported but never used"
                for name, line in imported.items() if name not in used]
    return bad


def _refs(node) -> collections.Counter:
    return collections.Counter(
        n.id if isinstance(n, ast.Name) else n.attr
        for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute)))


def orphaned_privates(pkg: Path) -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _modules(pkg)}
    total = sum((_refs(tree) for tree in trees.values()), collections.Counter())
    defs = [(path, fn) for path, tree in trees.items() for node in tree.body
            for fn in (node.body if isinstance(node, ast.ClassDef) else [node])]
    return [f"{path.relative_to(pkg)}:{fn.lineno}: {fn.name} is never used outside its own body"
            for path, fn in defs
            if isinstance(fn, ast.FunctionDef) and fn.name.startswith("_")
            and not fn.name.startswith("__") and total[fn.name] == _refs(fn)[fn.name]]


def _script_targets() -> set[tuple[str, str]]:
    """(module file, function) of each ``module:function`` in [project.scripts]."""
    text = (ROOT / "pyproject.toml").read_text()
    section = text.partition("[project.scripts]")[2].split("\n[", 1)[0]
    return {(module.split(".")[-1] + ".py", name)
            for module, name in re.findall(r'=\s*"([\w.]+):(\w+)"', section)}


def unreferenced_publics(pkg: Path) -> list[str]:
    trees = {path: ast.parse(path.read_text(), str(path)) for path in _modules(pkg)}
    others = [path for d in ("tests", "perfbench") for path in sorted((ROOT / d).rglob("*.py"))]
    total = sum((_refs(tree) for tree in trees.values()), collections.Counter())
    total += sum((_refs(ast.parse(path.read_text(), str(path))) for path in others),
                 collections.Counter())
    scripts = _script_targets()
    return [f"{path.relative_to(pkg)}:{fn.lineno}: {fn.name} is never named outside its own body"
            for path, tree in trees.items() for fn in tree.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")
            and (str(path.relative_to(pkg)), fn.name) not in scripts
            and total[fn.name] == _refs(fn)[fn.name]]


def foreign_raises(pkg: Path) -> list[str]:
    taxonomy = {node.name for node in ast.parse((pkg / "errors.py").read_text()).body
                if isinstance(node, ast.ClassDef)}
    bad = []

    def visit(path, node, params):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            params = params | {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = ast.unparse(exc)
            if name not in taxonomy | params:
                bad.append(f"{path.relative_to(pkg)}:{node.lineno}: raise {name} "
                           "is not a class of errors.py")
        for child in ast.iter_child_nodes(node):
            visit(path, child, params)

    for path in _modules(pkg):
        visit(path, ast.parse(path.read_text(), str(path)), frozenset())
    return bad


def dead_error_classes(pkg: Path) -> list[str]:
    errors = pkg / "errors.py"
    named = sum((_refs(ast.parse(path.read_text(), str(path)))
                 for path in _modules(pkg) if path != errors), collections.Counter())
    return [f"errors.py:{node.lineno}: {node.name} is never named outside errors.py"
            for node in ast.parse(errors.read_text()).body
            if isinstance(node, ast.ClassDef) and not named[node.name]]


def int_typed_calls(pkg: Path) -> list[str]:
    return [f"{path.relative_to(pkg)}:{node.lineno}: type=int reads with int(), not cli._int"
            for path in _modules(pkg)
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and any(k.arg == "type" and isinstance(k.value, ast.Name) and k.value.id == "int"
                    for k in node.keywords)]


def _planted(tmp_path: Path, module: str, source: str) -> tuple[Path, int]:
    """A copy of the package with source appended to module, and the line
    number of its first line."""
    pkg = tmp_path / "tamecovers"
    shutil.copytree(PACKAGE, pkg, ignore=shutil.ignore_patterns("__pycache__"))
    path = pkg / module
    text = path.read_text()
    path.write_text(text + source)
    return pkg, len(text.splitlines()) + 1


def test_no_assert_statements():
    assert assert_statements(PACKAGE) == []


def test_assert_statement_is_named(tmp_path):
    pkg, line = _planted(tmp_path, "errors.py", "assert DomainError\n")
    assert assert_statements(pkg) == [f"errors.py:{line}: assert DomainError"]


def test_no_unused_imports():
    assert unused_imports(PACKAGE) == []


def test_unused_import_is_named(tmp_path):
    pkg, line = _planted(tmp_path, "symhurwitz.py", "import json\n")
    assert unused_imports(pkg) == [f"symhurwitz.py:{line}: json imported but never used"]


def test_no_orphaned_private_functions_or_methods():
    assert orphaned_privates(PACKAGE) == []


def test_orphaned_private_function_and_method_are_named(tmp_path):
    source = ("def _orphan():\n"
              "    return _orphan\n"
              "class Holder:\n"
              "    def _stray(self):\n"
              "        return self._stray\n")
    pkg, line = _planted(tmp_path, "symhurwitz.py", source)
    assert orphaned_privates(pkg) == [
        f"symhurwitz.py:{line}: _orphan is never used outside its own body",
        f"symhurwitz.py:{line + 3}: _stray is never used outside its own body",
    ]


def test_no_unreferenced_public_functions():
    assert unreferenced_publics(PACKAGE) == []


def test_unreferenced_public_function_is_named(tmp_path):
    pkg, line = _planted(tmp_path, "cli.py", "def stray_public():\n    return stray_public\n")
    assert unreferenced_publics(pkg) == [
        f"cli.py:{line}: stray_public is never named outside its own body",
    ]
    assert _script_targets() == {("cli.py", "main")}


def test_no_raise_outside_the_error_taxonomy():
    assert foreign_raises(PACKAGE) == []


def test_raise_outside_the_error_taxonomy_is_named(tmp_path):
    source = ("def hold(exc):\n"
              "    try:\n"
              "        raise exc('a parameter')\n"
              "    except KeyError:\n"
              "        raise\n"
              "    raise ValueError('stray')\n")
    pkg, line = _planted(tmp_path, "symhurwitz.py", source)
    assert foreign_raises(pkg) == [
        f"symhurwitz.py:{line + 5}: raise ValueError is not a class of errors.py",
    ]


def test_no_dead_error_classes():
    assert dead_error_classes(PACKAGE) == []


def test_dead_error_class_is_named(tmp_path):
    source = "class StrayError(DomainError):\n    code = \"StrayError\"\n"
    pkg, line = _planted(tmp_path, "errors.py", source)
    assert dead_error_classes(pkg) == [
        f"errors.py:{line}: StrayError is never named outside errors.py",
    ]


def test_no_int_typed_calls():
    assert int_typed_calls(PACKAGE) == []


def test_int_typed_call_is_named(tmp_path):
    source = ("def declare(parser):\n"
              "    parser.add_argument('--n', type=int)\n"
              "    parser.add_argument('--m', type=str)\n")
    pkg, line = _planted(tmp_path, "symhurwitz.py", source)
    assert int_typed_calls(pkg) == [
        f"symhurwitz.py:{line + 1}: type=int reads with int(), not cli._int",
    ]
