"""Calibrated constants used by the verification checks.

Every empirically chosen constant lives here, is embedded in check output,
and can be overridden by a JSON file (path argument or the
CHARMOMENTS_CALIBRATION environment variable).  Check implementations never
hard-code these numbers.
"""
from __future__ import annotations

import dataclasses
import json
import os
import sys
from dataclasses import dataclass

from .errors import OutOfRange

ENV_VAR = "CHARMOMENTS_CALIBRATION"


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

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def load(path: str | None = None) -> Calibration:
    """Calibration from a JSON file, the environment override, or defaults.

    An unreadable file, text that is not UTF-8 JSON, a top level that is not
    an object, an unknown key, a value that is not a finite real number >= 0,
    or sieve_ratio_lo > sieve_ratio_hi raises OutOfRange.
    """
    if path is None:
        path = os.environ.get(ENV_VAR)
    if path is None:
        return Calibration()
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise OutOfRange(f"cannot read calibration file: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
        raise OutOfRange(f"calibration file {path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise OutOfRange(f"calibration file must hold a JSON object, got {type(data).__name__}")
    known = {f.name for f in dataclasses.fields(Calibration)}
    unknown = set(data) - known
    if unknown:
        raise OutOfRange(f"unknown calibration keys: {sorted(unknown)}")
    for key, value in data.items():
        # a JSON integer may exceed every float; NaN fails both comparisons
        if (isinstance(value, bool) or not isinstance(value, (int, float))
                or not 0 <= value <= sys.float_info.max):
            raise OutOfRange(f"calibration {key} must be a finite number >= 0, got {value!r}")
    cal = Calibration(**data)
    if cal.sieve_ratio_lo > cal.sieve_ratio_hi:
        raise OutOfRange(f"calibration sieve_ratio_lo = {cal.sieve_ratio_lo} exceeds "
                         f"sieve_ratio_hi = {cal.sieve_ratio_hi}")
    return cal
