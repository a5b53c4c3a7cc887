"""Every public function and method of the package has a caller, and every
import in the package is used.

A public name defined in src/charmoments/*.py must be referenced somewhere in
src/, tests/ or perfbench/ other than by its own def.  References are read
from the syntax tree (names, attributes, imports), so a mention in a comment
or docstring does not count.  Likewise a name a module imports must appear
as a name in that module's own syntax tree; the re-exports marked noqa in
__init__.py are exempt.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "charmoments"


def _public_defs():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            members = [node]
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                members = node.body
            for fn in members:
                if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                    yield f"{path.name}:{fn.lineno}", fn.name


def _references():
    names = set()
    for top in ("src", "tests", "perfbench"):
        for path in (ROOT / top).rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_function_is_referenced():
    used = _references()
    unused = [f"{where} {name}" for where, name in _public_defs() if name not in used]
    assert not unused, "public functions nothing references: " + ", ".join(unused)


def _unused_imports(path):
    source = path.read_text(encoding="utf-8")
    lines = source.splitlines()
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if path.name == "__init__.py" and "# noqa" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            bound = alias.asname or alias.name.split(".", 1)[0]
            if bound not in used:
                yield f"{path.name}:{node.lineno} {bound}"


def test_no_unused_imports():
    unused = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _unused_imports(path)]
    assert not unused, "imports nothing uses: " + ", ".join(unused)
