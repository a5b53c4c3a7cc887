import argparse
import ast
import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from charmoments import cli, errors

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_char_moment_json(capsys):
    code, out, _ = run(capsys, "char-moment", "--q", "101", "--x", "30", "--k", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "charmoments/1"
    assert doc["version"]
    assert doc["config"]["q"] == 101
    row = doc["results"][0]
    assert row["moment"] == pytest.approx(30 - 900 / 100)
    assert row["closed_form"] == pytest.approx(row["moment"])
    assert "wall_time_s" in doc


def test_repeated_x_rows(capsys):
    code, out, _ = run(capsys, "rmf-mc", "--x", "10", "20", "30",
                       "--k", "1", "--trials", "200", "--seed", "2")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 3
    assert doc["seed"] == 2


def test_determinism_byte_identical(capsys):
    args = ("rmf-mc", "--x", "25", "--trials", "300", "--seed", "9")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    # wall time differs between runs; the numerical payload may not
    d1, d2 = json.loads(out1), json.loads(out2)
    d1.pop("wall_time_s"), d2.pop("wall_time_s")
    assert d1 == d2


def test_threads_flag_does_not_change_results(capsys):
    base = ("rmf-mc", "--x", "25", "--trials", "300", "--seed", "9")
    _, out1, _ = run(capsys, *base)
    _, out2, _ = run(capsys, *base, "--threads", "4")
    assert json.loads(out1)["results"] == json.loads(out2)["results"]


def test_csv_format(capsys):
    code, out, _ = run(capsys, "char-moment", "--q", "101", "--x", "10", "20",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# schema=charmoments/1")
    assert lines[1].startswith("# config=")
    header = lines[2].split(",")
    assert "moment" in header and "x" in header
    assert len(lines) == 5  # two data rows


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("argv, path", [
    (("char-moment", "--q", "101", "--x", "30", "--k", "400"), (0, "moment")),
    (("theta", "--q", "101", "--moment", "400"), (0, "even_moment")),
    (("rmf-mc", "--x", "100", "--k", "400", "--trials", "10"), (0, "estimate")),
    (("shape", "--q", "20011", "--k", "400", "--x", "100", "300", "1000", "3000"),
     ("exponent",)),
    (("shape", "--q", "101", "--k", "1e300", "--x", "5", "6", "7", "8"),
     ("reference_exponent",)),
    (("proxy", "--profile", "desk", "--log-x", "1e-300", "--y", "2", "--k", "1e300",
      "--weights-seed", "0"), ("exp_weight_total",)),
])
def test_overflowed_values_are_strict_json_null(capsys, argv, path):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    value = json.loads(out, parse_constant=_refuse_constant)["results"]
    for key in path:
        value = value[key]
    assert value is None


def test_overflowed_value_is_an_empty_csv_cell(capsys):
    code, out, _ = run(capsys, "char-moment", "--q", "101", "--x", "30", "--k", "400",
                       "--format", "csv")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out.split("\n", 2)[2]))
    assert row["moment"] == ""


@pytest.mark.parametrize("argv, column", [
    (("verify", "--suite", "counting", "--q", "101"), "context"),
    (("theta", "--q", "101", "--char", "1", "2"), "value"),
])
def test_csv_nested_cells_are_json(capsys, argv, column):
    # dict and list cells are written as JSON, and read back as the JSON document has them
    _, want, _ = run(capsys, *argv)
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out.split("\n", 2)[2])))
    assert [json.loads(r[column]) for r in rows] == \
        [r[column] for r in json.loads(want)["results"]]


@pytest.mark.parametrize("argv, config", [
    (("rmf-mc", "--x", "10", "--trials", "20", "--threads", "1"),
     {"x": [10.0], "k": 2.0, "trials": 20, "exact": False}),
    (("proxy", "--profile", "desk", "--x", "6", "--y", "2", "--j", "1"),
     {"profile": "desk", "k": 2.0, "c0": None, "log_x": None, "x": 6.0, "y": 2.0,
      "j": [1], "q": None, "weights_seed": None}),
])
def test_config_is_the_parsed_arguments(capsys, argv, config):
    # everything parsed except the run's own seed, format and threads
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert json.loads(out)["config"] == config


def test_not_prime_exit_2(capsys):
    code, _, err = run(capsys, "char-moment", "--q", "10", "--x", "3")
    assert code == 2
    assert "prime" in err


@pytest.mark.parametrize("argv", [
    ("theta", "--q", "101", "--char", "500"),
    ("theta", "--q", "13", "--char", *map(str, range(81))),
    ("rmf-mc", "--x", "10", "--k", "-1"),
    ("char-moment", "--q", "101", "--x", "30", "--k", "-1"),
    ("theta", "--q", "101", "--moment", "-1"),
    ("rmf-mc", "--x", "100", "--k", "2.5", "--exact"),
    ("char-moment", "--q", "101", "--x", "30", "--k", "nan"),
    ("theta", "--q", "101", "--moment", "nan"),
    ("rmf-mc", "--x", "10", "--k", "nan"),
    ("char-moment", "--q", "101", "--x", "30", "--k", "inf"),
    ("theta", "--q", "101", "--moment", "inf"),
    ("rmf-mc", "--x", "10", "--k", "inf", "--trials", "20"),
    ("shape", "--q", "20011", "--k", "inf", "--x", "100", "300", "1000", "3000"),
    ("rmf-mc", "--x", "inf", "--exact"),
    ("rmf-mc", "--x", "nan", "--exact"),
    ("proxy", "--profile", "desk", "--x", "6"),
    ("proxy", "--profile", "desk", "--y", "2"),
    ("proxy", "--profile", "paper", "--log-x", "100"),
    ("rmf-mc", "--x", "inf"),
    ("proxy", "--profile", "paper", "--x", "1e300", "--c0", "5"),
    ("proxy", "--profile", "desk", "--x", "6", "--log-x", "4000", "--y", "20"),
    ("rmf-mc", "--x", "-3", "--k", "2", "--trials", "10"),
    ("rmf-mc", "--x", "10", "--threads", "0"),
    ("rmf-mc", "--x", "10", "--threads", "-2"),
    ("proxy", "--profile", "paper", "--log-x", "1.6e8", "--c0", "4e5", "--y", "3"),
    ("proxy", "--profile", "paper", "--log-x", "1.6e8", "--c0", "4e5", "--j", "7"),
    ("proxy", "--profile", "paper", "--log-x", "1.6e8", "--c0", "4e5", "--q", "5"),
    ("proxy", "--profile", "desk", "--x", "6", "--y", "2", "--j", "1", "--c0", "99"),
    ("proxy", "--profile", "desk", "--x", "nan", "--y", "2", "--j", "1"),
    ("proxy", "--profile", "desk", "--x", "6", "--y", "inf", "--j", "1"),
    ("proxy", "--profile", "desk", "--x", "6", "--y", "2", "--j", "1", "--k", "inf"),
    ("proxy", "--profile", "paper", "--log-x", "nan", "--c0", "4e5"),
    ("proxy", "--profile", "paper", "--log-x", "1.6e8", "--c0", "nan"),
    ("proxy", "--profile", "desk", "--x", "6", "--y", "2", "--j", "1", "--q", "0"),
    ("proxy", "--profile", "desk", "--x", "6", "--y", "2", "--j", "1", "--q", "-5"),
    ("proxy", "--profile", "paper", "--c0", "5"),
])
def test_invalid_input_exit_2(monkeypatch, capsys, argv):
    # refused before any Monte Carlo trial runs, --exact's k included
    def no_mc(*args, **kwargs):
        raise AssertionError("a Monte Carlo trial ran before the input was refused")

    monkeypatch.setattr(cli.rmf, "partial_sums_batch", no_mc)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith("error: ") and len(err) < 200
    if argv == ("proxy", "--profile", "paper", "--c0", "5"):
        # the paper chain takes log x alone, and says so
        assert err == "error: paper profile needs --log-x\n"
    for profile, options in (("paper", ("--y", "--j", "--q", "--x")), ("desk", ("--c0",))):
        for option in options:
            if profile in argv and option in argv:
                # an option the profile ignores is refused, not written to config
                assert err == f"error: {option} does not apply to the {profile} profile\n"
    if "-3" in argv:
        # refused by the package, not by numpy's array constructor
        assert "x = -3" in err
    if "--exact" in argv and argv[argv.index("--x") + 1] in ("inf", "nan"):
        # refused by exact_moment_2k, not by int() of a non-finite floor
        assert err == f"error: x must be finite, got {argv[argv.index('--x') + 1]}\n"
    if "desk" in argv and "--q" in argv:
        # refused by desk_params, not by math.log(q) in the length guard
        assert err == f"error: q = {argv[-1]} must be >= 2\n"
    if argv[:3] == ("theta", "--q", "13"):
        # the first index out of range is named, not the whole list of 81
        assert err == "error: --char index 12 must lie in [0, q - 2 = 11]\n"


def test_unexpected_exception_exit_4(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_char_moment", broken)
    code, out, err = run(capsys, "char-moment", "--q", "101", "--x", "30")
    assert code == 4
    assert out == ""
    assert err.startswith("internal error: ")
    assert "Traceback" in err and "RuntimeError: boom" in err


def test_value_error_from_a_handler_exit_4(monkeypatch, capsys):
    # only a package error reads as invalid input; a bare ValueError is a bug
    def broken(args):
        raise ValueError("bad shape")

    monkeypatch.setattr(cli, "_cmd_char_moment", broken)
    code, out, err = run(capsys, "char-moment", "--q", "101", "--x", "30")
    assert code == 4
    assert out == ""
    assert "Traceback" in err and "ValueError: bad shape" in err


def test_huge_refusal_is_one_short_line(capsys):
    # the byte count in scientific notation and MiB, not 153 digits
    code, out, err = run(capsys, "rmf-mc", "--x", "1e300", "--k", "2", "--trials", "4")
    assert code == 3 and out == ""
    assert err == ("error: a run of 4 trials in batches of 1 would take 1.920e+152 bytes "
                   "(1.831e+146 MiB), cap is 2147483648\n")


def test_verify_negative_seed_exit_2(capsys):
    code, out, err = run(capsys, "verify", "--suite", "euler", "--seed", "-1")
    assert code == 2
    assert out == "" and err == "error: seed = -1 must be >= 0\n"


@pytest.mark.parametrize("argv, option", [
    (("char-moment", "--q", "101", "--x", "30", "--threads", "0"), "--threads"),
    (("theta", "--q", "101", "--moment", "1", "--threads", "0"), "--threads"),
    (("verify", "--suite", "euler", "--calibration", "f.json"), "--calibration"),
    (("proxy", "--profile", "desk", "--x", "6", "--y", "2", "--j", "1", "--seed", "3"),
     "--seed"),
])
def test_option_of_another_subcommand_refused(capsys, argv, option):
    # the parser refuses an option the subcommand does not read
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    assert f"unrecognized arguments: {option}" in capsys.readouterr().err


def test_every_option_has_a_reader():
    # each option but --format, which main reads, is read as args.<dest>
    # by its subcommand's handler
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    handlers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    unread = {}
    for command, parser in sub.choices.items():
        read = {node.attr for node in ast.walk(handlers[parser.get_default("fn").__name__])
                if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"}
        dests = {a.dest for a in parser._actions if a.option_strings} - {"help", "format"}
        if dests - read:
            unread[command] = sorted(dests - read)
    assert unread == {}


def test_too_large_exit_3(capsys):
    code, _, err = run(capsys, "rmf-mc", "--x", "1e6", "--k", "2",
                       "--trials", "10", "--exact")
    assert code == 3


@pytest.mark.parametrize("log_x, c0", [
    ("1.6e8", "4e5"),  # log y = 400: the sample would pass the sieve cap
    ("1e9", "1e6"),    # log y = 1000: y itself would pass float range
    ("1e300", "4e5"),  # log y = 2.5e294: the sample's window edge would pass the sieve cap
])
def test_proxy_paper_weight_too_large_exit_3(capsys, log_x, c0):
    code, out, err = run(capsys, "proxy", "--profile", "paper", "--log-x", log_x,
                         "--c0", c0, "--weights-seed", "1")
    assert code == 3
    assert out == "" and err.startswith("error: ") and "Traceback" not in err


def test_verify_suite_exit_0(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "identities", "--q", "101",
                       "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert all(r["passed"] for r in doc["results"])
    assert doc["config"] == {"q": 101, "suite": "identities"}


def test_verify_holder_suite_named(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "holder", "--q", "101")
    assert code == 0
    names = [r["name"] for r in json.loads(out)["results"]]
    assert "holder-chain" in names


@pytest.mark.parametrize("suite, q, code, text", [
    ("counting", "4", 2, "error: q = 4 is not prime\n"),
    ("euler", "2147483647", 3, "error: the tables for q = 2147483647 would take "),
])
def test_verify_q_is_every_suite_modulus(capsys, suite, q, code, text):
    # counting and euler read no modulus, yet --q names one for them too
    got, out, err = run(capsys, "verify", "--suite", suite, "--q", q)
    assert (got, out) == (code, "")
    assert err.startswith(text)


def test_verify_unknown_suite_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2  # argparse rejects unknown choices


def test_theta_moment_sweep(capsys):
    code, out, _ = run(capsys, "theta", "--q", "101", "499", "--moment", "1")
    assert code == 0
    rows = json.loads(out)["results"]
    assert len(rows) == 2
    assert rows[0]["odd_over_even"] > 1.0
    assert rows[1]["odd_over_even"] > rows[0]["odd_over_even"]


def test_theta_values_mode(capsys):
    code, out, _ = run(capsys, "theta", "--q", "13", "--char", "0", "2")
    assert code == 0
    rows = json.loads(out)["results"]
    assert rows[0]["a"] == 0
    assert rows[0]["value"]["im"] == pytest.approx(0.0, abs=1e-12)


def test_theta_moment_refuses_char(capsys):
    # the moments cover every character, so --char would be written to config unused
    code, out, err = run(capsys, "theta", "--q", "13", "--moment", "1", "--char", "3")
    assert code == 2
    assert out == "" and err == "error: --char does not apply with --moment\n"


def test_proxy_paper_dump(capsys):
    code, out, _ = run(capsys, "proxy", "--profile", "paper",
                       "--log-x", "1.6e8", "--c0", "4e5", "--k", "2")
    assert code == 0
    res = json.loads(out)["results"]
    assert [lv["j_m"] for lv in res["levels"]] == [15, 3, 2]
    assert [lv["log_y_m"] for lv in res["levels"]] == [1.0, 20.0, 400.0]


def test_proxy_shift_count_without_the_shifts(capsys, monkeypatch):
    # log y = 2.5e8: 250,000,001 shifts, 2.0 GB as int64, counted under a 1 MiB cap
    monkeypatch.setattr(errors, "DEFAULT_MEMORY_CAP", 1 << 20)
    code, out, _ = run(capsys, "proxy", "--profile", "paper",
                       "--log-x", "1e14", "--c0", "4e5", "--k", "2")
    assert code == 0
    assert json.loads(out)["results"]["shift_count"] == 250_000_001


def test_proxy_desk_log_scale(capsys):
    code, out, _ = run(capsys, "proxy", "--profile", "desk", "--log-x", "4000",
                       "--y", "20", "--j", "2", "2")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["c0"] == pytest.approx(4000.0 / math.log(20.0))
    assert len(res["levels"]) == 2


def test_proxy_infeasible_exit_2(capsys):
    code, _, err = run(capsys, "proxy", "--profile", "desk", "--x", "6",
                       "--y", "2", "--j", "1", "--q", "89")
    assert code == 2


def test_proxy_weight_evaluation(capsys):
    code, out, _ = run(capsys, "proxy", "--profile", "desk", "--x", "6",
                       "--y", "2", "--j", "1", "--weights-seed", "11")
    assert code == 0
    res = json.loads(out)["results"]
    assert res["weight"] >= 0.0
    assert res["exp_weight_total"] > 0.0


def test_shape_report(capsys):
    code, out, _ = run(capsys, "shape", "--q", "499", "--k", "2",
                       "--x", "5", "10", "15", "20")
    assert code == 0
    res = json.loads(out)["results"]
    assert "exponent" in res and "exponent_stderr" in res
    assert res["reference_exponent"] == pytest.approx(1.0)


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        cli.main(["--version"])
    assert exc.value.code == 0


def test_verify_proxy_refuses_q_below_3(capsys):
    # no character index in [1, q - 2] at q = 2
    code, out, err = run(capsys, "verify", "--suite", "proxy", "--q", "2")
    assert code == 2
    assert out == "" and err == "error: suite proxy needs q >= 3, got q = 2\n"


def test_verify_full_refuses_q_below_holder_bound(capsys):
    # full takes the largest smallest q of its suites, the holder suite's 37
    code, out, err = run(capsys, "verify", "--suite", "full", "--q", "31")
    assert code == 2
    assert out == "" and err == "error: suite full needs q >= 37, got q = 31\n"


@pytest.mark.parametrize("argv", [
    # a document that fits the output buffer, written at the final flush
    ("proxy", "--profile", "paper", "--log-x", "1.6e8", "--c0", "4e5", "--k", "2"),
    # one that overflows it, written while the document is dumped
    ("theta", "--q", "101", "--char", *map(str, range(100))),
])
def test_closed_stdout_exits_141_quietly(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first byte
    try:
        proc = subprocess.run([sys.executable, "-m", "charmoments.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, timeout=120,
                              env=dict(os.environ, PYTHONPATH=SRC))
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
