"""charsum._dft is the package's only FFT.

No other function or statement in src/charmoments/*.py may name an FFT
routine (fft, rfft, ifft and their n-dimensional, inverse-real and Hermitian
forms) or scipy: every transform's sign convention, output format and library
are decided in one place.  The rule reads the syntax tree, as
test_api_surface.py does, so a docstring or comment does not count, nor does
a name that merely contains one, such as all_char_sums_fft.
"""
import ast
import pathlib
import re

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "charmoments"
TRANSFORM = ("charsum.py", "_dft")
FFT_NAME = re.compile(r"i?[rh]?fft[n2]?|scipy")


def _names(node):
    """(line, identifier) for each name, attribute and imported module part under node."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.lineno, sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.lineno, sub.attr
        elif isinstance(sub, ast.Import):
            yield from ((sub.lineno, part) for a in sub.names for part in a.name.split("."))
        elif isinstance(sub, ast.ImportFrom):
            parts = (sub.module or "").split(".") + [a.name for a in sub.names]
            yield from ((sub.lineno, part) for part in parts)


def _fft_references(source: str, name: str):
    """'name:line identifier' for each FFT name outside the one transform."""
    tree = ast.parse(source)
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef) and (name, stmt.name) == TRANSFORM:
            continue
        for line, ident in _names(stmt):
            if FFT_NAME.fullmatch(ident):
                yield f"{name}:{line} {ident}"


def test_only_the_transform_calls_an_fft():
    hits = [hit for path in sorted(PACKAGE.glob("*.py"))
            for hit in _fft_references(path.read_text(encoding="utf-8"), path.name)]
    assert not hits, "FFT outside charsum._dft: " + ", ".join(hits)


def test_rule_reads_names_not_text():
    sample = '''
import scipy.fft
from numpy.fft import irfft
def _dft(c):
    return np.fft.rfft(c)
def all_char_sums_fft(mod, x):
    """calls rfft"""
    return _dft(x)
class Table:
    def spectrum(self):
        return fft.ifft(self.c)
'''
    assert sorted(_fft_references(sample, "other.py")) == sorted([
        "other.py:2 scipy", "other.py:2 fft", "other.py:3 fft", "other.py:3 irfft",
        "other.py:5 fft", "other.py:5 rfft", "other.py:11 ifft", "other.py:11 fft"])
    # in charsum.py, _dft alone is exempt
    assert sorted(_fft_references(sample, "charsum.py")) == sorted([
        "charsum.py:2 scipy", "charsum.py:2 fft", "charsum.py:3 fft", "charsum.py:3 irfft",
        "charsum.py:11 ifft", "charsum.py:11 fft"])
