"""Calibrated constants used by the verification checks.

Every empirically chosen constant lives here.  ``verify.run_suite`` takes a
``Calibration`` (the defaults when none is given), and each check records in
its report the value it was held to.  Check implementations never hard-code
these numbers.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Calibration:
    # even-moment comparison: observed-to-bound ratio ceiling
    lemma_ratio_max: float = 4.0
    # sieve count versus (B-A)/log y: acceptable ratio window
    sieve_ratio_lo: float = 0.1
    sieve_ratio_hi: float = 10.0
    # surrogate domination: ceiling on the e^{J}-scaled excess constant
    surrogate_slack: float = 8.0
    # additive slack on prime cosine-sum branch bounds
    cosine_slack: float = 3.0
    # truncation error: direct-vs-series relative tolerance
    series_rel_tol: float = 1e-10
    # Hoelder chain / subadditivity relative slack
    chain_slack: float = 1e-9
    # diagonal (orthogonality) identities, relative
    orthogonality_tol: float = 1e-9
    # reflection symmetry of prefix sums, relative
    reflection_tol: float = 1e-9
    # Parseval identity: delta coefficients (near-exact) and generic ones
    parseval_delta_tol: float = 1e-10
    parseval_random_tol: float = 1e-4
    # Mellin transform identity, relative
    mellin_tol: float = 1e-6
