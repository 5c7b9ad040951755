"""In-process wall time and peak RSS of the package's long routes.

`python tests/ci_timings.py` runs each (set-up, statement) pair of
`ENTRIES` in a fresh interpreter on this checkout's `src/`, times the
statement with stdout discarded, and prints one line with the child's
peak RSS (`ru_maxrss` from `os.wait4`, KiB on Linux).  No number is a
gate: the exit status is 1 when any child exits non-zero, else 0.
`LONG` holds the hook sweep to n = 1500, the opt-in criterion of
tests/test_acceptance.py, which a manual CI run times through `run(LONG)`.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
CLI = "from darcais.cli import main"
TABLES = """\
import random; from fractions import Fraction
from darcais.arith import from_table; from darcais.recursion import value_sequence
rng = random.Random(1); nonzero = [v for v in range(-9, 10) if v]
g, h = (from_table([1] + [Fraction(rng.choice(nonzero), rng.randint(1, 9)) for _ in range(299)])
        for _ in range(2))"""
ENTRIES = [
    # the streamed export, the two scans (the hook scan at the benchmark's
    # hook-sweep size 200 and at two more), the composition sum, the weight
    # engine, the hook-length sum over conjugate pairs
    (CLI, "main(['export', '--g', 'sigma:1', '--h', 'id', '--max-n', '200'])"),
    (CLI, "main(['scan', '--check', 'lehmer', '--max-n', '10000'])"),
    (CLI, "main(['scan', '--check', 'hook-logconcave', '--max-n', '200'])"),
    (CLI, "main(['scan', '--check', 'hook-logconcave', '--max-n', '400'])"),
    (CLI, "main(['scan', '--check', 'hook-logconcave', '--max-n', '1000'])"),
    (CLI, "main(['coeff', '--g', 'id', '--h', 'id', '--n', '1100', '--m', '1099', '--method', 'composition'])"),
    (CLI, "main(['verify', '--suite', 'main-theorem', '--max-n', '24'])"),
    (CLI, "main(['verify', '--suite', 'no-formula', '--max-n', '29'])"),
    # the text of one Poly with 351 large coefficients, which no other row prints
    (CLI, "main(['poly', '--g', 'sigma:1', '--h', 'id', '--n', '350'])"),
    # the int row loop; Miller's column kernel on scalar exponents at an
    # order no CLI path runs, a positive int one among them, which the
    # product route of the Lehmer scan takes instead, and on a degree-2 one,
    # its only path that carries S1 from two columns back; the reads of g
    # and h a Lehmer scan to 10**6 would make
    (TABLES, "value_sequence(g, h, Fraction(7, 3), 300)"),
    ("from darcais.series import euler_product_power", "euler_product_power(-1, 2000)"),
    ("from darcais.series import euler_product_power", "euler_product_power(24, 2000)"),
    ("from fractions import Fraction; from darcais.series import euler_product_power",
     "euler_product_power(Fraction(1, 2), 2000)"),
    ("from darcais.exact import X; from darcais.series import euler_product_power",
     "euler_product_power(X * X - 1, 300)"),
    ("from darcais.arith import identity, sigma; from darcais.recursion import _kernel_inputs",
     "_kernel_inputs(sigma(1), identity(), 10**6)"),
]
LONG = [(CLI, "main(['scan', '--check', 'hook-logconcave', '--max-n', '1500'])")]


def child_source(setup: str, statement: str) -> str:
    """The child's program: exit status main's return value, else 0."""
    return (f"import os, sys, time\nsys.path.insert(0, {SRC!r})\n{setup}\n"
            "sys.stdout = open(os.devnull, 'w')\nstart = time.perf_counter()\n"
            f"result = {statement}\n"
            "print(round(time.perf_counter() - start, 3), file=sys.__stdout__)\n"
            "sys.exit(result if isinstance(result, int) else 0)\n")


def run(entries) -> int:
    """Run each entry in a child and print its line; 1 if any child failed."""
    failed = False
    for setup, statement in entries:
        with subprocess.Popen([sys.executable, "-c", child_source(setup, statement)],
                              stdout=subprocess.PIPE, text=True) as child:
            seconds = child.stdout.read().strip() or "-"
            _, status, usage = os.wait4(child.pid, 0)
            code = child.returncode = os.waitstatus_to_exitcode(status)  # reaped: no second wait
        note = f", exit {code}" if code else ""
        print(f"{statement}: {seconds} s in process, peak RSS {usage.ru_maxrss} KiB{note}", flush=True)
        failed = failed or code != 0
    return int(failed)


if __name__ == "__main__":
    sys.exit(run(ENTRIES))
