"""The CLI's exit-code contract: 0 success, 1 a verification failure, 2 bad
input with one `error:` line on stderr and nothing on stdout.  Covers values
past Python's int-to-str digit cap, the nesting limit of `tilde:`, the exact
usage-error lines of the method and scan checks and of argparse, the refusal
of decimals and exponents as rationals, and a grammar fuzzer."""

import argparse
import contextlib
import io
import sys
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from darcais.arith import MAX_TILDE_DEPTH, identity, sigma
from darcais.cli import build_parser, main
from darcais.exact import format_rational
from darcais.recursion import polynomial


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@contextlib.contextmanager
def digit_cap(limit):
    """The int-to-str digit cap set to limit for the block, where Python has one."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    caller = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(caller)


def _poly_at(n, point):
    return polynomial(sigma(1), identity(), n)(point)


@pytest.mark.parametrize(
    "argv, value",
    [
        (("coeff", "--g", "one", "--h", "id", "--n", "1700", "--m", "1", "--method", "composition"),
         lambda: factorial(1699)),
        (("poly", "--n", "5", "--eval-at", "1" + "0" * 1000), lambda: _poly_at(5, 10**1000)),
        (("poly", "--n", "2", "--eval-at", "1" + "0" * 5000), lambda: _poly_at(2, 10**5000)),
    ],
    ids=["1699-factorial", "eval-at-10^1000", "eval-at-5000-digits"],
)
def test_values_past_the_digit_cap_print_in_full(argv, value):
    with digit_cap(4300):  # Python's default
        code, out, err = run_cli(*argv)
    with digit_cap(0):
        expected = format_rational(value()) + "\n"
    assert len(expected) > 4300
    assert (code, out, err) == (0, expected, "")


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no int-to-str digit cap")
@pytest.mark.parametrize("argv", [("poly", "--n", "3"), ("poly", "--n", "-1")], ids=["ok", "usage"])
def test_main_restores_the_callers_digit_cap(argv):
    with digit_cap(5000):
        run_cli(*argv)
        assert sys.get_int_max_str_digits() == 5000


def test_main_runs_where_python_has_no_digit_cap(monkeypatch):
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert run_cli("poly", "--n", "3") == (0, "1/6*x^3 + 3/2*x^2 + 4/3*x\n", "")


@pytest.mark.parametrize("depth", [MAX_TILDE_DEPTH, MAX_TILDE_DEPTH + 1, 3000])
def test_tilde_nests_to_a_fixed_depth(depth):
    code, out, err = run_cli("poly", "--n", "3", "--g", "tilde:" * depth + "id")
    if depth <= MAX_TILDE_DEPTH:
        assert (code, err) == (0, "")
    else:
        assert (code, out) == (2, "")
        line = f"bad function descriptor: tilde: nests more than {MAX_TILDE_DEPTH} deep"
        assert err == f"error: {line}\n"


def _bad_choice(flag, value, choices):
    """argparse's message for a bad choice, whose quoting of the choices
    differs between Python versions."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument(flag, choices=choices)
    with pytest.raises(argparse.ArgumentError) as info:
        parser.parse_args([flag, value])
    return str(info.value)


COEFF = ("coeff", "--n", "3", "--m", "1")
SCAN = ("scan", "--max-n", "5")


@pytest.mark.parametrize(
    "argv, line",
    [
        (("poly", "--n", "3", "--h", "sigma:1", "--method", "series"),
         "method 'series' needs h in ('one', 'id'), got 'sigma:1'"),
        ((*COEFF, "--h", "id", "--method", "thm1"), "method 'thm1' needs h in ('one',), got 'id'"),
        ((*COEFF, "--h", "one", "--method", "thm2"), "method 'thm2' needs h in ('id',), got 'one'"),
        ((*COEFF, "--h", "tilde:id", "--method", "composition"),
         "method 'composition' needs h in ('one', 'id'), got 'tilde:id'"),
        (("poly", "--n", "3", "--g", "one", "--method", "hook"),
         "method 'hook' is only defined for --g sigma:1 --h id"),
        ((*COEFF, "--h", "one", "--method", "hook"),
         "method 'hook' is only defined for --g sigma:1 --h id"),
        *[(("coeff", "--n", "3", "--m", "0", "--method", method), f"method {method!r} needs m >= 1")
          for method in ("main-theorem", "thm1", "thm2", "composition")],
        *[(("scan", "--check", check, "--max-n", str(minimum - 1)),
           f"{check} scan needs --max-n >= {minimum}")
          for check, minimum in
          (("lehmer", 1), ("hook-logconcave", 1), ("hook-top", 2), ("delta", 2))],
        *[((*SCAN, "--check", check, "--g", "one"),
           f"{check} scan is only defined for --g sigma:1 --h id")
          for check in ("lehmer", "hook-logconcave", "hook-top")],
        # argparse's own errors
        (("coeff", "--n", "2"), "the following arguments are required: --m"),
        (("poly", "--n", "x"), "argument --n: invalid int value: 'x'"),
        (("scan", "--check", "nope", "--max-n", "3"),
         _bad_choice("--check", "nope", ("lehmer", "hook-logconcave", "hook-top", "delta"))),
        ((), "the following arguments are required: command"),
        (("poly", "--n", "3", "--bogus"), "unrecognized arguments: --bogus"),
        # argparse reads -1/2 as an option: a negative fraction needs --eval-at=-1/2
        (("poly", "--n", "3", "--eval-at", "-1/2"), "argument --eval-at: expected one argument"),
    ],
    ids=["series-h", "thm1-h", "thm2-h", "composition-h", "hook-g", "hook-h",
         "m0-main-theorem", "m0-thm1", "m0-thm2", "m0-composition",
         "min-lehmer", "min-hook-logconcave", "min-hook-top", "min-delta",
         "only-lehmer", "only-hook-logconcave", "only-hook-top",
         "argparse-missing-flag", "argparse-bad-int", "argparse-bad-choice",
         "argparse-no-subcommand", "argparse-unknown-flag", "argparse-negative-eval-at"],
)
def test_usage_error_lines(argv, line):
    assert run_cli(*argv) == (2, "", f"error: {line}\n")


@pytest.mark.parametrize("n, value", [("0", "1"), ("3", "0")])
@pytest.mark.parametrize("method", ["lemma", "recursion", "series", "hook"])
def test_the_methods_with_a_constant_term_take_m_0(method, n, value):
    # A[0][0] = 1 and A[n][0] = 0 for n >= 1, on the triangle and on P_n alike
    assert run_cli("coeff", "--n", n, "--m", "0", "--method", method) == (0, f"{value}\n", "")


EXPONENT = "1e100000000"  # Fraction's grammar would build 10^(10^8) from it


def test_an_eval_at_decimal_or_exponent_is_refused_before_it_is_built():
    line = f"bad --eval-at value {EXPONENT!r}: not an integer or p/q: {EXPONENT!r}"
    assert run_cli("poly", "--n", "2", "--eval-at", EXPONENT) == (2, "", f"error: {line}\n")
    line = "bad --eval-at value '0.5': not an integer or p/q: '0.5'"
    assert run_cli("poly", "--n", "2", "--eval-at", "0.5") == (2, "", f"error: {line}\n")


def test_a_table_entry_decimal_or_exponent_is_refused(table_dir):
    line = f"bad function descriptor: not an integer or p/q: {EXPONENT!r}"
    argv = ("poly", "--n", "2", "--g", f"table:{table_dir}/exponent.json")
    assert run_cli(*argv) == (2, "", f"error: {line}\n")


def test_a_negative_fraction_eval_at_takes_the_equals_form():
    assert run_cli("poly", "--n", "3", "--eval-at=-1/2") == (0, "-5/16\n", "")


def test_help_exits_0_with_the_parsers_help():
    assert run_cli("--help") == (0, build_parser().format_help(), "")


def test_output_into_a_missing_directory_is_one_error_line(tmp_path):
    output = tmp_path / "missing" / "x.json"
    line = f"cannot write --output: [Errno 2] No such file or directory: {str(output)!r}"
    assert run_cli("export", "--max-n", "3", "--output", str(output)) == (2, "", f"error: {line}\n")


# ---------------------------------------------------------------------------
# the grammar fuzzer

TABLES = {
    "good": "[1, 2, \"3/2\", -1, 5, 7, \"1/3\", 2, 9, 4]",
    "short": "[1, 2]",
    "vanishing": "[1, 0, 3, 4, 5, 6, 7, 8, 9]",
    "float": "[1, 2.5, 3, 4]",
    "bool": "[true, 2, 3, 4]",
    "nested": "[1, [2], 3, 4]",
    "not-a-list": "{\"1\": 1}",
    "huge": "[1, " + "9" * 5000 + ", 3, 4, 5, 6, 7, 8, 9]",
    "exponent": "[1, \"1e100000000\", 3, 4]",
}


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("tables")
    for name, text in TABLES.items():
        (path / f"{name}.json").write_text(text)
    return path


def _subcommands():
    parser = build_parser()
    return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices


def _argv(draw, table_dir, command, subparser):
    """One argv for command: every required option, each optional one or not,
    values from the option's choices or from a pool of valid and invalid ones.
    --max-n is always given: the suites' default bounds are not small."""
    bases = ["one", "id", "sigma:0", "sigma:1", "sigma:2", "sigma:3", "gamma",
             f"table:{table_dir}/missing.json",
             *(f"table:{table_dir}/{name}.json" for name in TABLES)]
    descriptor = st.builds(lambda depth, base: "tilde:" * depth + base,
                           st.sampled_from([0, 0, 0, 1, 2, 3, 101, 3000]), st.sampled_from(bases))
    ratio = st.builds("{}/{}".format, st.integers(-9, 9), st.integers(1, 9))
    pools = {
        "--g": descriptor,
        "--h": descriptor,
        "--eval-at": st.one_of(
            ratio, st.sampled_from(["1/0", "x", "1/2/3", "1e5", "0.5", "1" + "0" * 1000])),
        "--output": st.sampled_from([f"{table_dir}/out", f"{table_dir}/missing/out"]),
        "--max-n": st.integers(-2, 4 if command == "verify" else 8),
    }
    argv = [command]
    for action in subparser._actions:
        flag = action.option_strings[-1]  # every option is a --flag
        if flag == "--help":
            continue
        if not (action.required or flag == "--max-n" or draw(st.booleans())):
            continue
        if action.nargs == 0:
            argv.append(flag)
        elif action.choices is not None:
            argv.append(f"{flag}={draw(st.sampled_from(list(action.choices)))}")
        else:  # --flag=value, so that a value such as -1/2 is not read as an option
            argv.append(f"{flag}={draw(pools.get(flag, st.integers(-2, 8)))}")
    return argv


@settings(max_examples=250, deadline=None)
@given(data=st.data())
def test_grammar_fuzzer_keeps_the_exit_code_contract(table_dir, data):
    command, subparser = data.draw(st.sampled_from(sorted(_subcommands().items())))
    argv = _argv(data.draw, table_dir, command, subparser)
    code, out, err = run_cli(*argv)
    assert code in (0, 1, 2), (argv, err)
    if code == 2:
        assert out == "", argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
