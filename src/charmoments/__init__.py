"""Moments of Dirichlet character sums and their random multiplicative models.

Submodules:
    modarith    prime moduli, discrete logs, character evaluation
    charsum     prefix character sums, all characters at once
    rmf         random completely multiplicative functions on the unit circle
    euler       expected Euler products and prime cosine sums
    proxy       truncated-exponential proxy weights and their surrogates
    moments     moment estimators (character side and random side)
    theta       Gauss theta values at characters, their moments, Mellin identity
    verify      dual-route identity and inequality checks
    calibration calibrated slack constants, one Calibration per verify run

Importing the package loads numpy but no scipy.  The one scipy import,
scipy.fft, sits inside charsum._dft, the one transform, and runs only at a rough
length n >= 2^16 (largest prime factor p, p^2 > n); every quadrature is numpy.
"""

__version__ = "0.1.0"

from . import calibration, charsum, euler, fpoly, modarith, moments, primes, proxy, rmf, theta, verify  # noqa: F401,E501
from .errors import CharmomentsError  # noqa: F401
