"""CLI surface: commands, formats, exit codes, round-trips, determinism."""

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import darcais.checks
import darcais.cli
import darcais.shapes

from darcais.cli import build_parser, main
from darcais.exact import Poly, Series, rational
from darcais.recursion import coefficient_table
from darcais.arith import identity, sigma


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_coeff_main_theorem_example(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--g", "sigma:1", "--h", "id", "--n", "2", "--m", "1",
        "--method", "main-theorem",
    )
    assert code == 0
    assert out.strip() == "3"


def test_coeff_methods_agree(capsys):
    values = {}
    for method in ("recursion", "lemma", "main-theorem", "thm2", "composition", "series", "hook"):
        code, out, _ = run_cli(
            capsys, "coeff", "--g", "sigma:1", "--h", "id", "--n", "5", "--m", "2",
            "--method", method,
        )
        assert code == 0
        values[method] = out.strip()
    assert len(set(values.values())) == 1
    # method gating reads the parsed functions, not the descriptor spelling
    _, lemma, _ = run_cli(capsys, "coeff", "--n", "4", "--m", "2", "--method", "lemma")
    for spelling in (("--h", " id", "--method", "thm2"), ("--g", "sigma:01", "--method", "hook")):
        code, out, _ = run_cli(capsys, "coeff", "--n", "4", "--m", "2", *spelling)
        assert (code, out) == (0, lemma)


def test_poly_alternate_methods(capsys):
    code, recursion_out, _ = run_cli(capsys, "poly", "--g", "sigma:1", "--h", "id", "--n", "6")
    assert code == 0
    for method in ("series", "hook"):
        code, out, _ = run_cli(
            capsys, "poly", "--g", "sigma:1", "--h", "id", "--n", "6", "--method", method,
        )
        assert code == 0
        assert out == recursion_out


def test_coeff_scaled(capsys):
    code, out, _ = run_cli(
        capsys, "coeff", "--g", "sigma:1", "--h", "id", "--n", "2", "--m", "1", "--scaled",
    )
    assert code == 0
    assert out.strip() == "3/2"


def test_poly_text_and_eval(capsys):
    code, out, _ = run_cli(capsys, "poly", "--g", "one", "--h", "one", "--n", "3")
    assert code == 0
    assert out.strip() == "x^3 + 2*x^2 + x"
    code, out, _ = run_cli(
        capsys, "poly", "--g", "sigma:1", "--h", "id", "--n", "2", "--eval-at", "-24",
    )
    assert code == 0
    assert out.strip() == "252"


def test_poly_json(capsys):
    code, out, _ = run_cli(
        capsys, "poly", "--g", "sigma:1", "--h", "id", "--n", "2", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == ["0", "3/2", "1/2"]


def test_method_function_mismatch_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "coeff", "--g", "sigma:1", "--h", "id", "--n", "3", "--m", "1",
        "--method", "thm1",
    )
    assert code == 2
    assert "thm1" in err
    code, _, err = run_cli(
        capsys, "coeff", "--g", "one", "--h", "one", "--n", "3", "--m", "1",
        "--method", "hook",
    )
    assert code == 2


def test_bad_descriptor_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "poly", "--g", "gamma", "--h", "id", "--n", "2")
    assert code == 2
    assert "descriptor" in err


def test_bad_flags_exit_2(capsys, tmp_path, monkeypatch):
    assert main(["scan", "--check", "unknown", "--max-n", "5"]) == 2
    capsys.readouterr()
    # 0 is a bound like any other, below every suite's minimum, not "default"
    code, out, err = run_cli(capsys, "verify", "--suite", "oracles", "--max-n", "0")
    assert (code, out) == (2, "")
    assert err == "error: suite 'oracles' needs --max-n >= 1, got 0\n"
    # a zero denominator in a table file is bad input, not an internal error
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([1, "1/0", 3]))
    code, out, err = run_cli(capsys, "coeff", "--g", f"table:{bad}", "--n", "2", "--m", "1")
    assert (code, out) == (2, "")
    assert err.startswith("error: ")

    def no_work(*args):
        raise AssertionError("the table was built before --output was opened")

    monkeypatch.setattr(darcais.cli, "coefficient_table", no_work)
    output = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "export", "--max-n", "3", "--output", str(output))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


def test_scan_lehmer_json(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--check", "lehmer", "--max-n", "50", "--format", "json",
    )
    assert code == 0
    values = json.loads(out)
    assert len(values) == 50
    assert all(rational(v) != 0 for v in values)
    assert values[0] == "-24"


def test_scan_delta_and_summaries(capsys):
    code, out, _ = run_cli(
        capsys, "scan", "--check", "delta", "--g", "sigma:1", "--h", "id",
        "--max-n", "12", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,value"
    assert len(lines) == 12  # n = 2..12
    code, out, _ = run_cli(
        capsys, "scan", "--check", "hook-top", "--max-n", "30", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["passed"] is True
    code, out, _ = run_cli(
        capsys, "scan", "--check", "hook-logconcave", "--max-n", "20", "--format", "text",
    )
    assert code == 0
    assert "passed=True" in out


def test_verify_suite_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "no-formula", "--max-n", "10")
    assert code == 0
    assert out.startswith("ok no-formula")
    code, out, _ = run_cli(capsys, "verify", "--suite", "conversion", "--max-n", "6")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "--suite", "shapes", "--max-n", "3")
    assert code == 0
    assert out.startswith("ok shapes")


def test_export_json_roundtrip(capsys, tmp_path):
    code, out, _ = run_cli(
        capsys, "export", "--g", "sigma:1", "--h", "id", "--max-n", "6", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    table = coefficient_table(sigma(1), identity(), 6)
    for n in range(7):
        assert rational(doc["normalizers"][n]) == table.normalizer(n)
        assert [rational(cell) for cell in doc["rows"][n]] == list(table.row(n))
    # file output matches stdout output
    path = tmp_path / "table.json"
    code, _, _ = run_cli(
        capsys, "export", "--g", "sigma:1", "--h", "id", "--max-n", "6",
        "--format", "json", "--output", str(path),
    )
    assert code == 0
    assert json.loads(path.read_text()) == doc


def test_export_csv_layout(capsys):
    code, out, _ = run_cli(
        capsys, "export", "--g", "one", "--h", "one", "--max-n", "3", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n/m,0,1,2,3"
    assert lines[1] == "0,1,,,"
    assert lines[2] == "1,0,1,,"
    assert lines[4] == "3,0,1,2,1"


def test_table_descriptor_through_cli(capsys, tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps([1, 1, 8]))
    code, out, _ = run_cli(
        capsys, "scan", "--check", "delta", "--g", f"table:{path}", "--h", "one",
        "--max-n", "3",
    )
    assert code == 1
    assert out.splitlines()[-1].startswith("3 ")


def test_determinism_byte_identical(capsys):
    outputs = set()
    for _ in range(2):
        code, out, err = run_cli(
            capsys, "scan", "--check", "lehmer", "--max-n", "20", "--format", "json",
        )
        assert code == 0
        outputs.add(out + "|" + err)
    assert len(outputs) == 1


def test_parser_and_config():
    parser = build_parser()
    args = parser.parse_args(["coeff", "--g", "one", "--h", "id", "--n", "4", "--m", "2"])
    assert args.command == "coeff"
    assert (args.n, args.m) == (4, 2)
    assert args.method == "lemma"
    assert args.format == "text"


@pytest.mark.parametrize(
    "g_table, h_table",
    [([1, 2], None), (None, [1, 2]), (None, [1, 0, 3, 4]), ([1, 2.5], None), (None, [1, [2]]),
     ([True, 2, 3, 4], None)],
    ids=["short-g", "short-h", "vanishing-h", "float-g", "nested-h", "bool-g"],
)
def test_delta_scan_bad_table_is_usage_error(capsys, tmp_path, g_table, h_table):
    argv = ["scan", "--check", "delta", "--max-n", "6"]
    for flag, table in (("--g", g_table), ("--h", h_table)):
        if table is not None:
            path = tmp_path / f"{flag[2:]}.json"
            path.write_text(json.dumps(table))
            argv += [flag, f"table:{path}"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "suite, max_n",
    [("shapes", 1), ("shapes", 2), ("all", 2), ("all", -1), ("no-formula", -3)],
)
def test_verify_bounds_checked_before_any_work(capsys, suite, max_n):
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", str(max_n))
    assert code == 2
    assert out == ""
    assert "--max-n" in err


@pytest.mark.parametrize(
    "suite, name, broken, line",
    [
        ("oracles", "inverse_eisenstein", lambda weight, n: [0] * (n + 1),
         "1/E4 differs from the recursion at n=0"),
        ("closed-forms", "coefficient_h_one", lambda g, n, m: 0,
         "closed form (g=one, h=one) differs at (n=1, m=1)"),
        ("conversion", "conversion_scan", lambda g, n: (3, (2, 1)),
         "conversion identity fails for g=one at (n, m)=(2, 1)"),
        ("no-formula", "partitions_of", lambda n: iter(()),
         "Q_n(0) != p(n) at n=0"),
        ("main-theorem", "coefficient_from_weights", lambda g, h, n, m: 0,
         "weight route differs from the triangle for (g=one, h=one) at (n=1, m=1)"),
        ("shapes", "counterexample_search", lambda h, max_n: None,
         "no top-margin counterexample found for h=one"),
        ("shapes", "transfer_check", lambda g, n: (2, (2, "log-concave")),
         "shape transfer fails for g=one at (2, 'log-concave')"),
        ("shapes", "closed_family_check", lambda family, n, hs: (1, (family, 1)),
         "closed family check fails: ('pochhammer', 1)"),
        ("main-theorem", "polynomial_sequence", lambda g, h, n: [Poly()] * (n + 1),
         "recursion differs from the triangle for (g=one, h=one) at (n=1, m=1)"),
        ("closed-forms", "h_weight_one", lambda mu, n: -1,
         "h=one weight mismatch at mu=(1,), n=0"),
        ("closed-forms", "h_weight_id", lambda mu, n: -1,
         "h=id weight mismatch at mu=(1,), n=0"),
        ("oracles", "generating_series_h_id", lambda g, n: Series([0] * (n + 1)),
         "series oracle (g=one, h=id) differs at n=0"),
        ("oracles", "euler_product_power", lambda exponent, n: Series([0] * (n + 1)),
         "symbolic Euler-product coefficient differs at n=0"),
        ("no-formula", "hook_length_polynomial", lambda n: Poly(),
         "hook-length identity Q_n(x) = P_n(x+1) fails at n=0"),
        ("shapes", "top_margin", lambda g, h, n: 0,
         "top margin for (sigma, one) not positive at n=2"),
        ("shapes", "top_margin_lower_bound", lambda g, h, n: 10**9,
         "top margin below its bound for (sigma, one) at n=2"),
    ],
    ids=["oracles", "closed-forms", "conversion", "no-formula", "main-theorem", "shapes",
         "shape-transfer", "closed-families", "recursion-route", "h-weight-one", "h-weight-id",
         "series-oracle", "symbolic-euler-product", "hook-length-identity", "top-margin",
         "top-margin-bound"],
)
def test_verify_failure_is_exit_1(capsys, monkeypatch, suite, name, broken, line):
    monkeypatch.setattr(darcais.checks, name, broken)
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", "4")
    assert (code, out, err) == (1, f"FAIL {suite}: {line}\n", "")


def _dip(euler_product_columns):
    # rows n >= 3 become [Q_n(0), 1, ..., 1, 0, 1]: a zero before the last
    # coefficient breaks log-concavity from n = 3 on; column j lists rows j..
    def broken(exponent, order):
        for j, column in enumerate(euler_product_columns(exponent, order)):
            yield [c if n < 3 or j == 0 else int(j != n - 1) for n, c in enumerate(column, j)]
    return broken


def _negative_in_4(euler_product_columns):
    # the x^2 entry of row 4 negated: an entry <= 0, which the hook length
    # formula rules out; column j lists rows j..
    def broken(exponent, order):
        for j, column in enumerate(euler_product_columns(exponent, order)):
            yield [-c if (n, j) == (4, 2) else c for n, c in enumerate(column, j)]
    return broken


def _zero_at_3(value_sequence):
    def broken(*args):
        values = value_sequence(*args)
        values[3] = 0
        return values
    return broken


def _product_off_at_2(euler_product_ints):
    def broken(exponent, order):
        coefficients = euler_product_ints(exponent, order)
        coefficients[2] += 1
        return coefficients
    return broken


def _source_only(is_ultra_log_concave):
    # transfer_check asks about the source row, then the target row: the
    # source holds (None), the target breaks at index 1
    verdicts = itertools.cycle((None, 1))
    return lambda row: next(verdicts)


LEHMER_ROWS = "1 -24\n2 252\n3 {}\n4 4830\n5 -6048\n"


@pytest.mark.parametrize(
    "name, breaker, argv, out, err",
    [
        ("euler_product_columns", _dip, ("scan", "--check", "hook-logconcave"),
         "check=hook-log-concavity max_n=5 passed=False first_failure=3\n", ""),
        ("euler_product_columns", _negative_in_4, ("scan", "--check", "hook-logconcave"),
         "check=hook-log-concavity max_n=5 passed=False first_failure=4\n", ""),
        ("coefficient_top_band", lambda band: lambda g, h, max_n, depth: [[0, 0, 0]] * (max_n + 1),
         ("scan", "--check", "hook-top"),
         "check=hook-top-inequality max_n=5 passed=False first_failure=2\n", ""),
        ("value_sequence", _zero_at_3, ("scan", "--check", "lehmer"),
         LEHMER_ROWS.format(0), "FAIL lehmer: zero at n=3\n"),
        ("euler_product_ints", _product_off_at_2, ("scan", "--check", "lehmer"),
         LEHMER_ROWS.format(-1472), "FAIL lehmer: Euler-product mismatch at n=2\n"),
        ("value_sequence", _zero_at_3, ("verify", "--suite", "oracles"),
         "FAIL oracles: Lehmer cross-check failed: zero at n=3\n", ""),
        ("euler_product_ints", _product_off_at_2, ("verify", "--suite", "oracles"),
         "FAIL oracles: Lehmer cross-check failed: Euler-product mismatch at n=2\n", ""),
        ("is_ultra_log_concave", _source_only, ("verify", "--suite", "shapes"),
         "FAIL shapes: shape transfer fails for g=one at (1, 'ultra-log-concave')\n", ""),
    ],
    ids=["hook-logconcave", "hook-logconcave-negative", "hook-top", "lehmer-zero", "lehmer-product",
         "verify-lehmer-zero", "verify-lehmer-product", "verify-transfer-ultra"],
)
def test_scan_failure_is_exit_1(capsys, monkeypatch, name, breaker, argv, out, err):
    monkeypatch.setattr(darcais.shapes, name, breaker(getattr(darcais.shapes, name)))
    assert run_cli(capsys, *argv, "--max-n", "5") == (1, out, err)


@pytest.mark.parametrize("check", ["lehmer", "hook-logconcave", "hook-top"])
@pytest.mark.parametrize(
    "flags",
    [("--g", "table:g.json"), ("--h", "one"), ("--g", "sigma:3"), ("--g", "id", "--h", "sigma:1")],
    ids=["g-table", "h-one", "g-sigma3", "swapped"],
)
def test_scans_without_functions_refuse_g_and_h(capsys, monkeypatch, tmp_path, check, flags):
    (tmp_path / "g.json").write_text(json.dumps([1, 2]))
    monkeypatch.chdir(tmp_path)
    for name in ("lehmer_scan", "hook_poly_log_concavity_scan", "hook_poly_top_inequality_scan"):
        monkeypatch.setattr(darcais.cli, name, None)  # any call would be an internal error
    code, out, err = run_cli(capsys, "scan", "--check", check, "--max-n", "5", *flags)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("check", ["lehmer", "hook-logconcave", "hook-top"])
def test_scans_accept_their_own_g_and_h(capsys, check):
    argv = ("scan", "--check", check, "--max-n", "6")
    default = run_cli(capsys, *argv)
    assert default[0] == 0
    assert run_cli(capsys, *argv, "--g", "sigma:1", "--h", "id") == default


def test_internal_error_is_exit_3(capsys, monkeypatch):
    def broken(*args):
        raise RuntimeError("table build failed")

    monkeypatch.setattr(darcais.cli, "coefficient_table", broken)
    code, out, err = run_cli(capsys, "export", "--max-n", "3")
    assert (code, out, err) == (3, "", "internal error: RuntimeError: table build failed\n")


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "oracles", "--max-n", "3"],
    ["scan", "--check", "lehmer", "--max-n", "5"],
    ["poly", "--n", "6"],
    ["export", "--format", "csv", "--max-n", "4"],
], ids=["verify", "scan", "poly", "export"])
def test_closed_stdout_exits_141_quietly(argv, unbuffered):
    # the read end is closed before the child starts, so its first write
    # fails, or with buffered stdout its first flush
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(darcais.cli.__file__).parents[1]),
               PYTHONUNBUFFERED=unbuffered)  # empty: stdout is block-buffered
    try:
        child = subprocess.run([sys.executable, "-m", "darcais.cli", *argv],
                               stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write_end)
    assert (child.returncode, child.stderr) == (141, b"")


@pytest.mark.parametrize(
    "g, h, m, closed_form",
    [("one", "one", "1100", "thm1"), ("one", "one", "1099", "thm1"), ("id", "id", "1100", "thm2")],
)
def test_composition_route_takes_a_thousand_parts(capsys, g, h, m, closed_form):
    argv = ("coeff", "--g", g, "--h", h, "--n", "1100", "--m", m)
    code, out, err = run_cli(capsys, *argv, "--method", "composition")
    assert (code, err) == (0, "")
    assert (code, out, err) == run_cli(capsys, *argv, "--method", closed_form)


def test_importing_the_cli_loads_no_introspection_modules():
    # `dataclasses` imports `inspect`, which imports `ast` and `dis`: about
    # half of the CLI's import time and a MiB of every run's peak RSS.
    # `-S` keeps site-packages' start-up hooks out of the count.
    code = ("import sys, darcais.cli; print(*(m for m in "
            "('dataclasses', 'inspect', 'ast', 'dis') if m in sys.modules))")
    env = dict(os.environ, PYTHONPATH=str(Path(darcais.cli.__file__).parents[1]))
    child = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                           text=True, env=env, timeout=60)
    assert (child.returncode, child.stdout, child.stderr) == (0, "\n", "")
