"""Every public function and method of the package has a caller.

A public name defined in src/charmoments/*.py must be referenced somewhere in
src/, tests/ or perfbench/ other than by its own def.  References are read
from the syntax tree (names, attributes, imports), so a mention in a comment
or docstring does not count.
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
