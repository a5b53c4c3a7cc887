import json

import pytest

from charmoments import calibration
from charmoments.errors import OutOfRange


def test_defaults_when_unset(monkeypatch):
    monkeypatch.delenv(calibration.ENV_VAR, raising=False)
    assert calibration.load() == calibration.Calibration()


def test_env_var_override(tmp_path, monkeypatch):
    p = tmp_path / "cal.json"
    p.write_text(json.dumps({"surrogate_slack": 2.5, "chain_slack": 1e-7}))
    monkeypatch.setenv(calibration.ENV_VAR, str(p))
    cal = calibration.load()
    assert cal.surrogate_slack == 2.5
    assert cal.chain_slack == 1e-7
    # untouched fields keep their defaults
    assert cal.series_rel_tol == calibration.Calibration().series_rel_tol


def test_explicit_path_beats_env(tmp_path, monkeypatch):
    env_file = tmp_path / "env.json"
    env_file.write_text(json.dumps({"cosine_slack": 99.0}))
    monkeypatch.setenv(calibration.ENV_VAR, str(env_file))
    direct = tmp_path / "direct.json"
    direct.write_text(json.dumps({"cosine_slack": 5.0}))
    assert calibration.load(str(direct)).cosine_slack == 5.0


def test_unknown_key_rejected(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"not_a_knob": 1.0}))
    with pytest.raises(OutOfRange, match="not_a_knob"):
        calibration.load(str(p))


def test_json_round_trip(tmp_path):
    cal = calibration.Calibration(lemma_ratio_max=6.0)
    p = tmp_path / "rt.json"
    p.write_text(json.dumps(cal.as_dict()))
    assert calibration.load(str(p)) == cal


@pytest.mark.parametrize("content", [
    "5",
    "[1.0]",
    '{"orthogonality_tol": "abc"}',
    '{"orthogonality_tol": null}',
    '{"orthogonality_tol": -1}',
    '{"orthogonality_tol": true}',
    '{"orthogonality_tol": NaN}',
    '{"orthogonality_tol": Infinity}',
    '{"orthogonality_tol": 1e400}',
    '{"orthogonality_tol": 1' + "0" * 400 + '}',
    '{"sieve_ratio_lo": 2.0, "sieve_ratio_hi": 1.0}',
    '{"sieve_ratio_lo": 20.0}',
])
def test_malformed_values_rejected(tmp_path, content):
    p = tmp_path / "bad.json"
    p.write_text(content)
    with pytest.raises(OutOfRange, match="^calibration "):
        calibration.load(str(p))


@pytest.mark.parametrize("content", [b"", b"{", b'{"chain_slack": 1e-9,}', b"\xff\xfe{}"])
def test_undecodable_file_rejected(tmp_path, content):
    # malformed JSON and bytes that are not UTF-8 are refused as the package's error
    p = tmp_path / "bad.json"
    p.write_bytes(content)
    with pytest.raises(OutOfRange, match="not UTF-8 JSON"):
        calibration.load(str(p))


def test_unreadable_file_rejected(tmp_path):
    with pytest.raises(OutOfRange, match="cannot read"):
        calibration.load(str(tmp_path / "missing.json"))


def test_zero_and_integer_values_accepted(tmp_path):
    p = tmp_path / "ok.json"
    p.write_text('{"orthogonality_tol": 0, "sieve_ratio_lo": 3, "sieve_ratio_hi": 3.0}')
    cal = calibration.load(str(p))
    assert cal.orthogonality_tol == 0
    assert cal.sieve_ratio_lo == cal.sieve_ratio_hi == 3.0
