"""Every public name of the package has a caller outside the unit tests, and
every import in the package is used.

A public module-level function or class of src/charmoments/*.py must be
reachable from a use outside the unit tests: a module-level statement of the
package (``SUITES``, a constant, the CLI guard), perfbench/, or
tests/test_acceptance.py, through the bodies of the functions and classes
those reach.  A name that only its own def, or only other unreachable
defs, refers to does not count.  The test oracles in ORACLES are the only
exceptions.  References are resolved by module: ``mod.f`` with ``mod`` bound
to a package module, ``from .mod import f`` or ``from charmoments.mod import
f``, or a bare ``f`` inside mod itself.  They are read from the syntax tree,
so a mention in a comment or docstring does not count.

A public method must be referenced by name somewhere in src/, perfbench/ or
tests/test_acceptance.py, the same uses outside the unit tests.  A name a
module imports must appear as a name in that module's own syntax tree; the
re-exports marked noqa in __init__.py are exempt.  No module imports, or
reads as ``mod._name``, a leading-underscore name of another package module.
No module reads or sets the environment, so the arguments alone decide a run.
"""
import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "charmoments"
MODULES = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}

# Public names only unit tests call, each kept as the reference side of a test.
ORACLES = {
    ("rmf", "value_at"): "the scalar factorisation route for single values f(n)",
    ("proxy", "OnesSource"): "the constant source, whose window polynomials have closed forms",
}


def _resolver(tree, module):
    """ref(node) -> (module, name) for a node naming a package-level def, else None."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "charmoments" and alias.asname and parts[-1] in MODULES:
                    modules[alias.asname] = parts[-1]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level:
                source = "charmoments." + source if source else "charmoments"
            for alias in node.names:
                local = alias.asname or alias.name
                if source == "charmoments" and alias.name in MODULES:
                    modules[local] = alias.name
                elif source.startswith("charmoments.") and source[12:] in MODULES:
                    names[local] = (source[12:], alias.name)
    own = {node.name for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))} if module else set()

    def ref(node):
        if isinstance(node, ast.Name):
            if node.id in names:
                return names[node.id]
            if node.id in own:
                return module, node.id
        elif isinstance(node, ast.Attribute):
            base = node.value
            if isinstance(base, ast.Name) and base.id in modules:
                return modules[base.id], node.attr
            if isinstance(base, ast.Attribute) and base.attr in MODULES:
                return base.attr, node.attr
        return None

    return ref


def _refs(tree, ref):
    return {r for node in ast.walk(tree) if (r := ref(node)) is not None}


def _reachable(oracles):
    """(public defs, defs reachable from uses and oracles) as (module, name) pairs."""
    edges, roots = {}, set(oracles)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        module = path.stem if path.stem in MODULES else None
        ref = _resolver(tree, module)
        for stmt in tree.body:
            if module and isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                edges[(module, stmt.name)] = _refs(stmt, ref)
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                roots |= _refs(stmt, ref)
    outside = sorted((ROOT / "perfbench").glob("*.py")) + [ROOT / "tests" / "test_acceptance.py"]
    for path in outside:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        roots |= _refs(tree, _resolver(tree, None))
    live, todo = set(), [r for r in roots if r in edges]
    while todo:
        node = todo.pop()
        if node not in live:
            live.add(node)
            todo.extend(r for r in edges[node] if r in edges)
    public = {key for key in edges if not key[1].startswith("_")}
    return public, live


def test_every_public_function_is_referenced():
    public, live = _reachable(ORACLES)
    unused = sorted(f"{m}.{n}" for m, n in public - live)
    assert not unused, "public names only unit tests reach: " + ", ".join(unused)


def test_oracles_have_no_other_caller():
    # an oracle that gains a caller outside the unit tests leaves the list
    public, live = _reachable(())
    assert set(ORACLES) <= public - live


def _method_defs():
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for fn in node.body:
                    if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_"):
                        yield f"{path.name}:{fn.lineno}", fn.name


def _names():
    names = set()
    paths = [*(ROOT / "src").rglob("*.py"), *(ROOT / "perfbench").rglob("*.py"),
             ROOT / "tests" / "test_acceptance.py"]
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_every_public_method_is_referenced():
    used = _names()
    unused = [f"{where} {name}" for where, name in _method_defs() if name not in used]
    assert not unused, "public methods only unit tests reference: " + ", ".join(unused)


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


def _private_crossings(path):
    """'file:line module._name' for each private name of another package module that path uses."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    ref = _resolver(tree, path.stem)
    for node in ast.walk(tree):
        hits = []
        if isinstance(node, ast.ImportFrom):
            source = node.module or ""
            source = source if node.level else source.removeprefix("charmoments.")
            hits = [(source, alias.name) for alias in node.names if source in MODULES]
        elif isinstance(node, ast.Attribute) and (r := ref(node)) is not None:
            hits = [r]
        for module, name in hits:
            if module != path.stem and name.startswith("_") and not name.startswith("__"):
                yield f"{path.name}:{node.lineno} {module}.{name}"


def test_no_private_name_crosses_modules():
    crossings = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _private_crossings(path)]
    assert not crossings, "private names used outside their module: " + ", ".join(crossings)


def test_moments_imports_no_proxy_or_verify_layer():
    # moments computes moments; the checks that compare them against proxy
    # weights live in verify
    tree = ast.parse((PACKAGE / "moments.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in (None, "charmoments"):
            imported |= {alias.name for alias in node.names}  # from . import mod
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module.removeprefix("charmoments.").split(".")[0])
        elif isinstance(node, ast.Import):
            imported |= {alias.name.removeprefix("charmoments.").split(".")[0]
                         for alias in node.names}
    assert not imported & {"proxy", "fpoly", "verify", "cli"}


def _unchecked_floors(path):
    """Public functions that apply int or math.floor to a float parameter never given to at_least.

    int(nan) and math.floor(inf) raise a bare ValueError or OverflowError;
    errors.at_least refuses both, and a value below its range, as OutOfRange.
    """
    for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_"):
            continue
        params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        floats = {a.arg for a in params if a.annotation and "float" in ast.unparse(a.annotation)}
        seen = {"at_least": set(), "int": set(), "math.floor": set()}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and node.args and isinstance(node.args[0], ast.Name)
                    and ast.unparse(node.func) in seen):
                seen[ast.unparse(node.func)].add(node.args[0].id)
        for name in sorted((seen["int"] | seen["math.floor"]) & floats - seen["at_least"]):
            yield f"{path.name}:{fn.lineno} {fn.name}({name})"


def test_float_parameters_floored_only_through_at_least():
    unchecked = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _unchecked_floors(path)]
    assert not unchecked, "floored without errors.at_least: " + ", ".join(unchecked)


_ENVIRONMENT = {"environ", "environb", "getenv", "getenvb", "putenv", "unsetenv"}


def _environment_uses(source, name):
    """'name:line attr' for each os environment reader or writer the source names."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT:
            yield f"{name}:{node.lineno} {node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            yield from (f"{name}:{node.lineno} {alias.name}" for alias in node.names
                        if alias.name in _ENVIRONMENT)


def test_no_module_reads_the_environment():
    forms = "os.environ.get('A')\nos.getenv('A')\nos.putenv('A', 'b')\nfrom os import environ\n"
    assert len(list(_environment_uses(forms, "t"))) == 4
    uses = [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in _environment_uses(path.read_text(encoding="utf-8"), path.name)]
    assert not uses, "environment read or set in the package: " + ", ".join(uses)
