"""CLI surface: commands, formats, exit codes, round-trips, determinism."""

import json

import pytest

import darcais.checks
import darcais.cli

from darcais.cli import build_parser, main
from darcais.exact import rational
from darcais.recursion import coefficient_table, table_rows_from_dict
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
    rows, normalizers = table_rows_from_dict(doc)
    table = coefficient_table(sigma(1), identity(), 6)
    for n in range(7):
        assert normalizers[n] == table.normalizer(n)
        for m in range(n + 1):
            assert rows[n][m] == table.entry(n, m)
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
        ("conversion", "conversion_scan", lambda g, n: (2, 1),
         "conversion identity fails for g=one at (n, m)=(2, 1)"),
        ("no-formula", "partitions_of", lambda n: iter(()),
         "Q_n(0) != p(n) at n=0"),
        ("main-theorem", "coefficient_from_weights", lambda g, h, n, m: 0,
         "weight route differs from the triangle for (g=one, h=one) at (n=1, m=1)"),
        ("shapes", "counterexample_search", lambda h, max_n: None,
         "no top-margin counterexample found for h=one"),
    ],
    ids=["oracles", "closed-forms", "conversion", "no-formula", "main-theorem", "shapes"],
)
def test_verify_failure_is_exit_1(capsys, monkeypatch, suite, name, broken, line):
    monkeypatch.setattr(darcais.checks, name, broken)
    code, out, err = run_cli(capsys, "verify", "--suite", suite, "--max-n", "4")
    assert (code, out, err) == (1, f"FAIL {suite}: {line}\n", "")
