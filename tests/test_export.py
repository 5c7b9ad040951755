"""`export` writes the table row by row: the same bytes as the whole
document, a peak that is the triangle's, and one exit code for a failed write."""

import json
import os
import random
import tracemalloc
from fractions import Fraction

import pytest

from darcais.arith import from_descriptor
from darcais.cli import main
from darcais.recursion import coefficient_table


def _seeded_pq(rng, length):
    """1 and then p/q with 0 < |p| <= 9 and 1 <= q <= 9, as "p/q" strings."""
    return ["1"] + [str(Fraction(rng.choice([v for v in range(-9, 10) if v]), rng.randint(1, 9)))
                    for _ in range(length - 1)]


def _table_files(directory, rng, length):
    # quotes and a backslash in the names, which JSON must escape
    paths = directory / 'g "p\\q".json', directory / 'h "p\\q".json'
    for path in paths:
        path.write_text(json.dumps(_seeded_pq(rng, length)), encoding="utf-8")
    return [f"table:{path}" for path in paths]


def _parent_csv(doc, max_n):
    """The CSV layout as it was built from the whole document."""
    lines = ["n/m," + ",".join(str(m) for m in range(max_n + 1))]
    for n, row in enumerate(doc["rows"]):
        lines.append(f"{n}," + ",".join(row + [""] * (max_n + 1 - len(row))))
    return "\n".join(lines) + "\n"


_PAIRS = ["seeded-pq", ("sigma:1", "id"), ("one", "one"), ("tilde:id", "id")]


@pytest.mark.parametrize("max_n", [0, 1, 40])
@pytest.mark.parametrize("pair", _PAIRS, ids=["seeded-pq", "sigma-id", "one-one", "tilde-id"])
def test_streamed_export_is_the_whole_document(capsys, tmp_path, pair, max_n):
    if pair == "seeded-pq":
        pair = _table_files(tmp_path, random.Random(18), 40)
    g_desc, h_desc = pair
    doc = coefficient_table(from_descriptor(g_desc), from_descriptor(h_desc), max_n).to_dict()
    argv = ["export", "--g", g_desc, "--h", h_desc, "--max-n", str(max_n)]
    assert main([*argv, "--format", "json"]) == 0
    assert capsys.readouterr() == (json.dumps(doc) + "\n", "")
    assert main([*argv, "--format", "csv"]) == 0
    assert capsys.readouterr() == (_parent_csv(doc, max_n), "")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_export_holds_no_copy_of_the_document(tmp_path, fmt):
    # Beyond the triangle, the call may hold a row and the write buffer, but
    # not the document: its peak above the table's stays under half the file.
    max_n = 110
    g_desc, h_desc = _table_files(tmp_path, random.Random(110), max_n)
    g, h = from_descriptor(g_desc), from_descriptor(h_desc)
    output = tmp_path / f"table.{fmt}"
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        table = coefficient_table(g, h, max_n)
        table_peak = tracemalloc.get_traced_memory()[1] - base
        del table
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        code = main(["export", "--g", g_desc, "--h", h_desc, "--max-n", str(max_n),
                     "--format", fmt, "--output", str(output)])
        call_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert code == 0
    assert call_peak - table_peak < output.stat().st_size / 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("max_n", [5, 120])
def test_a_failed_write_to_output_is_a_usage_error_at_every_size(capsys, max_n):
    # at 5 the whole table fits the write buffer and fails only when the
    # file is flushed on close; at 120 an earlier write fails
    code = main(["export", "--g", "sigma:1", "--h", "id", "--max-n", str(max_n),
                 "--output", "/dev/full"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == "error: cannot write --output: [Errno 28] No space left on device\n"
