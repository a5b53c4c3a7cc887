"""Prefix sums of characters, for every character at once.

S_chi(x) = sum_{n <= x} chi(n).  Writing n = g^j, the vector of prefix sums
over all characters is the length-(q-1) discrete Fourier transform (with the
e^{+2*pi*i*a*j/(q-1)} sign convention) of the indicator b_j = [g^j mod q <= x].
One FFT therefore replaces q-1 separate summations; as b is real, a real FFT
gives a = 0 .. (q-1)//2 and S_{chi_{-a}} = conj(S_{chi_a}) gives the rest.
Callers that need only |S_chi(x)| read abs_char_sums, which keeps the magnitudes
of the last two floor(x) on the modulus, so several moments at the same (q, x),
and a grid that returns to an x after one other, share one DFT; power_sum sums
|v_a|^{2k} of a half spectrum over a class of characters.
The same fold with arbitrary weights, sum_n w_n chi(n), evaluates any weighted
character polynomial for all characters simultaneously.

Every transform is _dft, on numpy.fft except at a rough length of 2^16 or
more, where it imports scipy.fft on its first call.  Both libraries run
pocketfft and give the same bits; only scipy.fft keeps a Bluestein plan.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import primes
from .errors import OutOfRange, check_bytes
from .modarith import PrimeModulus

# pocketfft considers Bluestein's algorithm only at a rough length n, whose
# largest prime factor p has p^2 > n.  numpy.fft rebuilds that plan on every
# call and scipy.fft caches it: 427 against 245 ms a call at n = 1,000,002.
# Elsewhere the two tie (28 ms at n = 995,328).  Below 2^16 numpy's extra cost
# is at most 6 ms a call (13.1 against 7.3 ms at n = 65,496), against 0.3-0.45 s
# and 24 MiB of RSS to import scipy.fft.  Best of 5, 2-CPU Xeon.
_SCIPY_FFT_MIN = 1 << 16


@dataclass(eq=False)
class PrefixSumTable:
    """half[a] = S_{chi_a}(x) for a = 0 .. (q-1)//2; the rest are conjugates."""

    q: int
    half: np.ndarray

    @property
    def values(self) -> np.ndarray:
        """values[a] = S_{chi_a}(x) for a = 0 .. q-2, mirrored from the half spectrum."""
        return mirror(self.half, self.q)


def mirror(half: np.ndarray, q: int) -> np.ndarray:
    """Entries a = 0 .. q-2 from the half spectrum a = 0 .. (q-1)//2: entry q-1-a is conj(half[a])."""
    return np.concatenate([half, np.conj(half[1 : q - half.size][::-1])])


def power_sum(half: np.ndarray, q: int, k: float, start: int = 0,
              step: int = 1) -> tuple[float, int]:
    """(sum of |v_a|^{2k}, count) over the characters a = start, start + step, ... <= q - 2.

    half holds v_a for a <= (q-1)//2 and |v_{q-1-a}| = |v_a|, so a mirrored entry counts
    twice; step is 1, or 2 at an odd q, where a and q-1-a share a parity.  |v|^0 = 1.
    """
    powers = np.abs(half) ** (2.0 * k)
    own, twins = powers[start::step], powers[max(start, 1) : q - half.size : step]
    return float(own.sum() + twins.sum()), own.size + twins.size


def _check_x(mod: PrimeModulus, x: float) -> int:
    if not (1 <= x <= mod.q):
        raise OutOfRange(f"x = {x} outside [1, q = {mod.q}]")
    return min(int(math.floor(x)), mod.q - 1)


def _is_rough(n: int) -> bool:
    """The largest prime factor p of n has p^2 > n."""
    return n > 1 and primes.factorize(n)[-1][0] ** 2 > n


def _coeff_rows(shape: tuple[int, ...], dtype, terms: int) -> np.ndarray:
    """Zeroed rows for _dft, charged first (README): per residue 32 B a real row, 56 B complex,
    64 B either when rough, and 20 B (140 B rough) once; per term 32 B, plus 8 (16) B a row."""
    n, rows = shape[-1], math.prod(shape[:-1])
    rough, size = _is_rough(n), np.dtype(dtype).itemsize
    row = 64 if rough else 56 if size == 16 else 32
    check_bytes((row * rows + (140 if rough else 20)) * n + (32 + size * rows) * terms,
                f"{rows} transform rows of length {n}")
    return np.zeros(shape, dtype=dtype)


def _dft(coeffs: np.ndarray) -> np.ndarray:
    """sum_j coeffs[..., j] e^{2 pi i a j/n} along the last axis, of length n: a <= n//2 for
    real coefficients, as conj(rfft), which mirror completes; every a for complex, as ifft * n."""
    n, fft = coeffs.shape[-1], np.fft
    if n >= _SCIPY_FFT_MIN and _is_rough(n):
        import scipy.fft as fft
    # in place: the same bits, and no second half spectrum alive beside the first
    if np.iscomplexobj(coeffs):
        out = fft.ifft(coeffs)
        out *= n
        return out
    out = fft.rfft(coeffs)
    return np.conjugate(out, out=out)


def all_char_sums_fft(mod: PrimeModulus, x: float) -> PrefixSumTable:
    """Prefix sums for all characters via one real group DFT.  O(q log q)."""
    xf = _check_x(mod, x)
    b = _coeff_rows((mod.q - 1,), np.float64, 0)
    b[mod.dlog[1 : xf + 1]] = 1.0
    return PrefixSumTable(q=mod.q, half=_dft(b))


def abs_char_sums(mod: PrimeModulus, x: float) -> np.ndarray:
    """|S_{chi_a}(x)| for a = 0 .. (q-1)//2, read-only, memoised for the last two floor(x).

    mod.abs_sums holds (floor(x), table) for the last two floor(x) asked,
    newest first; a hit leaves it as it is.  A miss keeps only the newest
    pair before the DFT runs, so at most one stored table is alive during a
    transform, then puts the new pair in front of it.
    """
    xf = _check_x(mod, x)
    memo = mod.abs_sums  # one read: a thread that swaps the slots cannot split (floor(x), table)
    hit = next((mags for f, mags in memo if f == xf), None)
    if hit is not None:
        return hit
    # drop the local reference too, or the older table outlives its slot during the DFT
    memo = mod.abs_sums = memo[:1]
    mags = np.abs(all_char_sums_fft(mod, x).half)
    mags.flags.writeable = False
    mod.abs_sums = ((xf, mags),) + memo
    return mags


def all_char_sums_naive(mod: PrimeModulus, x: float) -> PrefixSumTable:
    """Reference evaluator: direct summation per character.  O(q x)."""
    xf = _check_x(mod, x)
    d = mod.dlog[1 : xf + 1]
    order = mod.q - 1
    # one table for the call: an exponential per element is ten times slower.
    # tracemalloc reads 40 B per residue while it is built, then 24 B for it and
    # the half spectrum plus 24 B per n <= x in each character's gather, and
    # under 1 KiB of headers
    check_bytes(max(40 * order, 24 * (order + xf)) + 4096, f"the naive sums of q = {mod.q}")
    roots = mod.root(np.arange(order))
    half = np.empty(order // 2 + 1, dtype=np.complex128)
    for a in range(half.size):
        half[a] = roots[(a * d) % order].sum()
    return PrefixSumTable(q=mod.q, half=half)


def weighted_char_sums(mod: PrimeModulus, ns: np.ndarray, ws: np.ndarray) -> np.ndarray:
    """sum_i ws[..., i] chi_a(ns[i]) for every character a, one DFT per row of ws.

    The weights are folded onto discrete logs, coeffs[..., dlog(n)] += w (terms
    with q | n dropped), and values[..., a] = sum_j coeffs[..., j] e^{2 pi i a j/(q-1)}.
    Leading axes of ws are kept; its last axis runs along ns.  Real weights give
    a = 0 .. (q-1)//2, which mirror completes, and complex ones every a.
    """
    ns, ws = np.asarray(ns, dtype=np.int64), np.asarray(ws)
    if ws.shape[-1:] != ns.shape:
        raise OutOfRange(f"weights of shape {ws.shape} do not run along {ns.size} integers")
    coeffs = _coeff_rows(ws.shape[:-1] + (mod.q - 1,),
                         np.complex128 if np.iscomplexobj(ws) else np.float64, ns.size)
    ns = ns % mod.q
    keep = ns != 0
    np.add.at(coeffs, (..., mod.dlog[ns[keep]]), ws[..., keep])
    return _dft(coeffs)
