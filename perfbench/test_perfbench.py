"""Tests of the benchmark itself: the tracer, the output check, and the
repeatability of traced counts.  Run with `python3 -m pytest perfbench`."""

import json
import shutil
import subprocess
import sys

import pytest

import run
from tracer import Tracer

sys.path.insert(0, str(run.SRC))

import darcais.cli  # noqa: E402
import darcais.partitions  # noqa: E402
import darcais.series  # noqa: E402
import darcais.shapes  # noqa: E402

# Scaled-down argv per workload, so that each traced child takes well
# under a second.
SMALL = {
    "hook-sweep": ["scan", "--check", "hook-logconcave", "--max-n", "60"],
    "lehmer": ["scan", "--check", "lehmer", "--max-n", "120"],
    "verify-all": ["verify", "--suite", "all", "--max-n", "8"],
    "export-rational": ["export", "--g", "table:G0.json", "--h", "table:H0.json", "--max-n", "30"],
    "poly-recursion": ["poly", "--g", "sigma:1", "--h", "id", "--n", "30", "--format", "json"],
}


def test_every_reference_is_rebound_and_restored():
    original = darcais.series.euler_product_power
    tracer = Tracer().install()
    try:
        assert tracer.missed_references() == []
        for module in (darcais.cli, darcais.shapes, darcais, darcais.series):
            assert module.euler_product_power is not original
            assert module.euler_product_power is darcais.series.euler_product_power
        assert darcais.weights.partitions_of is darcais.series.partitions_of
        poly = darcais.exact.Poly
        assert poly.__mul__ is poly.__rmul__ and poly.__add__ is poly.__radd__
    finally:
        tracer.uninstall()
    assert tracer.missed_references() != []
    for module in (darcais.cli, darcais.shapes, darcais, darcais.series):
        assert module.euler_product_power is original


def test_self_times_add_up_and_generators_count_items():
    tracer = Tracer().install()
    try:
        code = darcais.cli.main(["verify", "--suite", "no-formula", "--max-n", "6"])
        assert list(darcais.series.partitions_of(5)) == list(darcais.partitions.partitions_of(5))
    finally:
        tracer.uninstall()
    assert code == 0
    result = tracer.layer_metrics()
    # the two partitions_of(5) calls above are counted but are not spans
    metrics = result["metrics"]
    assert metrics["cli.main.calls"] == 1
    assert metrics["series.hook_length_polynomial.calls"] == 7
    assert metrics["partitions.partitions_of.calls"] >= 2 + 7
    assert metrics["partitions.partitions_of.items"] >= 2 * 7
    assert result["problems"] == []
    self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert self_sum == pytest.approx(result["root_s"], abs=1e-6)


def traced_counts(workload, workdir):
    spec = {"cwd": str(workdir), "argv": SMALL[workload], "trace": True}
    sample = run.spawn(spec, run.child_env(), 60)
    assert sample["code"] == 0
    trace = sample["report"]["trace"]
    assert trace["problems"] == [] and sample["report"]["missed"] == []
    return {k: v for k, v in trace["metrics"].items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_traced_counts_repeat_exactly(workload, tmp_path):
    run.write_inputs(workload, 3, tmp_path)
    first = traced_counts(workload, tmp_path)
    second = traced_counts(workload, tmp_path)
    assert first == second
    assert first["cli.main.calls"] == 1
    assert any(k.endswith((".items", ".max_bits", ".entry_bytes", "memo_hit_ratio")) for k in first)


def test_export_check_accepts_the_program_and_rejects_a_wrong_entry(tmp_path):
    argvs = run.write_inputs("export-rational", 5, tmp_path)
    assert len(argvs) == run.EXPORT_PAIRS and "table:G2.json" in argvs[2]
    out = subprocess.run([sys.executable, "-m", "darcais.cli", *argvs[2]], cwd=tmp_path,
                         env=run.child_env(), capture_output=True, text=True, check=True).stdout
    assert run.check_export(out, tmp_path, 2) is None
    assert run.check_export(out, tmp_path, 3) is not None
    doc = json.loads(out)
    cell = doc["rows"][77][40]
    doc["rows"][77][40] = str(run.Fraction(cell) + 1)
    assert "row 77" in run.check_export(json.dumps(doc), tmp_path, 2)


def test_rational_tables_are_seeded_normalized_and_non_vanishing():
    first = run.rational_table(run.random.Random(11), 50)
    assert first == run.rational_table(run.random.Random(11), 50)
    assert first != run.rational_table(run.random.Random(12), 50)
    values = [run.Fraction(v) for v in first]
    assert values[0] == 1 and all(values)
    assert all(abs(v.numerator) <= 9 and v.denominator <= 9 for v in values)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "lehmer",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
