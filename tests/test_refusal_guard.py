"""errors.py is the package's one refusal vocabulary.

It defines exactly four exception classes: CharmomentsError, OutOfRange,
TooLarge and QuadratureFailure.  No other module raises TooLarge itself, nor
tests a name ending in _CAP and then raises: a count cap goes through
errors.at_most, a byte budget through errors.check_bytes, so every cap reads
the same way.  The rules read the syntax tree, as test_whole_guard.py does.
"""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "charmoments"
CLASSES = {"CharmomentsError", "OutOfRange", "TooLarge", "QuadratureFailure"}


def _name(node) -> str:
    """The last part of a dotted name, or ''."""
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    return node.id if isinstance(node, ast.Name) else ""


def _hand_caps(source: str, name: str):
    """'name:line what' for each raise of TooLarge and each hand-written cap comparison."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and _name(node.exc) == "TooLarge":
            yield f"{name}:{node.lineno} {ast.unparse(node)}"
        elif isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
            for cmp in (c for c in ast.walk(node.test) if isinstance(c, ast.Compare)):
                if any(_name(n).endswith("_CAP") for n in ast.walk(cmp)):
                    yield f"{name}:{node.lineno} {ast.unparse(cmp)}"


def _classes(source: str) -> set[str]:
    return {node.name for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)}


def test_the_rules_catch_each_form():
    source = '''
def f(n, depth):
    if n > SIEVE_CAP:
        raise OutOfRange("n")
    if depth >= primes.DEPTH_CAP or n < 0:
        raise ValueError
    if math.log(n) > math.log(primes.SIEVE_CAP):
        raise OutOfRange("n")
    if n > 3:
        raise errors.TooLarge("n")
    if n > LIMIT_CAP:
        return 0
    return min(n, SIEVE_CAP)
'''
    found = sorted(hit.split(" ", 1)[1] for hit in _hand_caps(source, "f.py"))
    assert found == ["depth >= primes.DEPTH_CAP", "math.log(n) > math.log(primes.SIEVE_CAP)",
                     "n > SIEVE_CAP", "raise errors.TooLarge('n')"]
    assert _classes("class A(Exception):\n    class B: pass\n") == {"A", "B"}


def test_errors_defines_the_four_classes():
    assert _classes((PACKAGE / "errors.py").read_text(encoding="utf-8")) == CLASSES


def test_caps_are_checked_only_in_errors():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) if path.name != "errors.py"
             for hit in _hand_caps(path.read_text(encoding="utf-8"), path.name)]
    assert not found, "caps outside errors.at_most and errors.check_bytes: " + ", ".join(found)
