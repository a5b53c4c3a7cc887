"""Every name README.md puts in backticks resolves in the package.

A backticked ``module.attr`` whose module is a package module must name an
attribute of it, and a backticked bare identifier with an underscore must be
defined somewhere in src/charmoments: a def, a class, a parameter or an
assignment target.  File names (``*.py``) are not program names.
"""
import ast
import importlib
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "charmoments"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

NAMES = re.findall(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)*)`", (ROOT / "README.md").read_text())


def _defined_names():
    names = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.arg):
                names.add(node.arg)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                names.add(node.id)
    return names


def test_dotted_names_resolve():
    missing = []
    for name in NAMES:
        module, *attrs = name.split(".")
        if not attrs or module not in MODULES or name.endswith(".py"):
            continue
        obj = importlib.import_module(f"charmoments.{module}")
        for attr in attrs:
            if not hasattr(obj, attr):
                missing.append(name)
                break
            obj = getattr(obj, attr)
    assert not missing, f"README names no such attribute: {missing}"


def test_bare_names_are_defined():
    defined = _defined_names()
    missing = sorted({name for name in NAMES if "." not in name and "_" in name} - defined)
    assert not missing, f"README names what src/ does not define: {missing}"
