"""A derandomized fuzz of all six subcommands through in-process cli.main.

Each drawn command line is well formed for argparse, at small q.  Floats
come from ordinary values and from 0, -1, 1e-300, 1e300, inf and nan.
Every run must exit 0, 1, 2 or 3.  A document (exit 0 or 1) is strict
JSON; a refusal (exit 2 or 3) is one stderr line of fewer than 200
characters and no traceback.  The
memory cap is lowered to 256 MiB, so a drawn size the package accepts stays
small; one it refuses exits 3, as at any cap.
"""
import contextlib
import io
import json
import math
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charmoments import cli, errors

SPECIAL = (0.0, -1.0, 1e-300, 1e300, math.inf, math.nan)


def mostly(usual, other):
    """usual three times in four, else other."""
    return st.one_of(usual, usual, usual, other)


def floats(lo, hi, *usual):
    """An ordinary value in [lo, hi] or from usual, or a special one, as argparse reads it."""
    ordinary = st.floats(lo, hi)
    if usual:
        ordinary = st.one_of(st.sampled_from(usual), ordinary)
    return mostly(ordinary, st.sampled_from(SPECIAL)).map(repr)


def ints(usual, other):
    return mostly(st.sampled_from(usual), st.sampled_from(other)).map(str)


def some(strategy, min_size=1, max_size=3):
    return st.lists(strategy, min_size=min_size, max_size=max_size)


def arg(name, values):
    """[name, value...] for one drawn value or list of values."""
    return values.map(lambda v: [name, *v] if isinstance(v, list) else [name, v])


def option(name, values=None):
    """[] or the option; a flag when values is None."""
    if values is None:
        return st.sampled_from([[], [name]])
    return st.one_of(st.just([]), arg(name, values))


def command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name, *(a for p in ps for a in p)])


Q = ints((101, 103, 37, 7), (2, 3, 10, 1, 0, -5))
K = floats(0.5, 4.0, 1.0, 2.0, 3.0)
SEED = ints((0, 3, 2**64), (-1,))
X_OR_LOG_X = st.one_of(arg("--x", floats(1.0, 60.0)), arg("--log-x", floats(0.5, 5.0)))
PROXY = st.one_of(
    command("proxy", st.just(["--profile", "desk"]), X_OR_LOG_X,
            arg("--y", floats(1.0, 12.0, 2.0)), option("--k", floats(2.0, 4.0)),
            option("--j", some(ints((1, 2), (0, -1)), max_size=2)),
            option("--q", Q), option("--weights-seed", SEED)),
    command("proxy", st.just(["--profile", "paper"]),
            st.one_of(X_OR_LOG_X, arg("--log-x", floats(1e7, 2e8, 1.6e8))),
            arg("--c0", floats(1.0, 5e5, 4e5)), option("--k", floats(2.0, 4.0)),
            option("--weights-seed", SEED)),
    command(  # any options, to either profile
        "proxy", option("--profile", st.sampled_from(["desk", "paper"])),
        option("--k", floats(2.0, 4.0)), option("--c0", floats(1.0, 5e5)),
        option("--log-x", floats(0.5, 2e8)), option("--x", floats(1.0, 60.0)),
        option("--y", floats(1.0, 12.0)), option("--j", some(ints((1, 2), (0, -1)), max_size=2)),
        option("--q", Q), option("--weights-seed", SEED)),
)

COMMANDS = {
    "char-moment": command(
        "char-moment", arg("--q", Q), arg("--x", some(floats(1.0, 110.0))),
        option("--k", K)),
    "rmf-mc": command(
        "rmf-mc", arg("--x", some(floats(0.5, 60.0), max_size=2)), option("--k", K),
        option("--trials", ints((5, 20), (1, 0, -1))), option("--exact"),
        option("--seed", SEED), option("--threads", ints((1, 2), (0, -1)))),
    "verify": command(
        "verify", option("--suite", st.sampled_from(sorted(cli.verify.SUITES) + ["full"])),
        option("--q", Q), option("--seed", SEED)),
    "theta": command(
        "theta", arg("--q", some(Q, max_size=2)), option("--moment", K),
        option("--char", some(ints((0, 1, 5), (99, -1))))),
    "proxy": PROXY,
    "shape": command(
        "shape", arg("--q", ints((101, 103), (7, 10, 1))), option("--k", K),
        # each x mostly ordinary, so that four of them often make a fit
        arg("--x", st.lists(mostly(st.floats(3.0, 100.0).map(repr), floats(3.0, 100.0)),
                            min_size=4, max_size=5, unique=True))),
}


def _refuse_constant(name):
    raise AssertionError(f"{name} is not strict JSON")


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_cli_fuzz(name):
    @settings(derandomize=True, max_examples=30, database=None, deadline=None)
    @given(argv=COMMANDS[name])
    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                mock.patch.object(errors, "DEFAULT_MEMORY_CAP", 1 << 28):
            code = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2, 3), (argv, err)
        if code in (0, 1):
            json.loads(out, parse_constant=_refuse_constant)
        else:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert len(err) < 200, (argv, err)
            assert "Traceback" not in err

    run()
