"""errors.whole is the package's only integer guard.

A public function of src/charmoments/*.py may not call int() on one of its
own parameters, or on at_least of one: int() truncates 2.5 to 2 and raises a
bare ValueError or OverflowError on NaN or inf.  Nor may it raise on a lower
bound of an int-annotated parameter that it tests by hand (n < 1, 0 > n, or
k not in (1, 2, 3)): errors.whole refuses a bool, a fraction, NaN, inf and a
value below its least, all as OutOfRange.  Upper ends keep their own checks
(k > 3), or go through errors.at_most (q < 2^31 and the other count caps,
which test_refusal_guard.py holds).  The rules read the syntax tree, as
test_api_surface.py does.
"""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "charmoments"
LOWER = {ast.Lt: "<", ast.LtE: "<=", ast.In: "in", ast.NotIn: "not in"}
LOWER_FLIPPED = {ast.Gt: ">", ast.GtE: ">="}


def _is_int(annotation) -> bool:
    text = ast.unparse(annotation) if annotation else ""
    return "int" in text.replace("|", " ").split() and "float" not in text


def _constant(node) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return all(_constant(e) for e in node.elts)
    return isinstance(node, ast.Constant) and isinstance(node.value, (int, float))


def _hand_guards(source: str, name: str):
    """'name:line function what' for each int() of a parameter and each hand-written lower bound."""
    for fn in ast.walk(ast.parse(source)):
        if (not isinstance(fn, ast.FunctionDef) or fn.name.startswith("_")
                or (name, fn.name) == ("errors.py", "whole")):
            continue
        args = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
        params = {a.arg for a in args}
        ints = {a.arg for a in args if _is_int(a.annotation)}
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "int" and len(node.args) == 1):
                arg = node.args[0]
                if (isinstance(arg, ast.Call) and ast.unparse(arg.func) == "at_least"
                        and arg.args):
                    arg = arg.args[0]
                if isinstance(arg, ast.Name) and arg.id in params:
                    yield f"{name}:{node.lineno} {fn.name} {ast.unparse(node)}"
            elif isinstance(node, ast.If) and any(isinstance(s, ast.Raise) for s in node.body):
                for cmp in (c for c in ast.walk(node.test) if isinstance(c, ast.Compare)):
                    lefts = [cmp.left] + cmp.comparators[:-1]
                    for left, op, right in zip(lefts, cmp.ops, cmp.comparators):
                        named = (type(op) in LOWER and isinstance(left, ast.Name)
                                 and left.id in ints and _constant(right))
                        flipped = (type(op) in LOWER_FLIPPED and isinstance(right, ast.Name)
                                   and right.id in ints and _constant(left))
                        if named or flipped:
                            yield f"{name}:{node.lineno} {fn.name} {ast.unparse(cmp)}"


def test_the_rules_catch_each_form():
    source = '''
def f(n: int, m: int | None, k: int, x: float, q: int):
    a = int(n) + int(at_least(x, 0, "x")) + int(math.floor(x))
    if n < 1 or (m is not None and 1 > m):
        raise ValueError
    if k not in (1, 2, 3):
        raise ValueError
    if k > 3 or q >= Q_CAP or x < 0:
        raise ValueError
    if q < 2:
        return 0
'''
    found = sorted(hit.split(" ", 2)[2] for hit in _hand_guards(source, "f.py"))
    assert found == ["1 > m", "int(at_least(x, 0, 'x'))", "int(n)", "k not in (1, 2, 3)",
                     "n < 1"]


def test_integer_arguments_are_checked_only_by_whole():
    found = [hit for path in sorted(PACKAGE.glob("*.py"))
             for hit in _hand_guards(path.read_text(encoding="utf-8"), path.name)]
    assert not found, "integer guards outside errors.whole: " + ", ".join(found)
