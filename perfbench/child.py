"""One benchmark sample: a fresh interpreter running one darcais CLI call.

    python3 perfbench/child.py SPEC_JSON

SPEC_JSON holds `cwd`, `argv` (null for a set-up probe that only imports
the CLI), `trace`, and optionally `reference`, `stdout_path` and
`spans_path`.  The program's stdout and stderr are captured in memory, so
terminal I/O is not timed.  With `reference`, a fixed kernel independent
of darcais is timed just before and just after the CLI call; the machine
this runs on changes speed by tens of percent from minute to minute, and
the ratio of the two times cancels most of that.  The child prints one JSON report on its own stdout and exits with
the CLI's exit code; it is started by run.py, which times the spawn and
reads the child's resource usage.
"""

import io
import json
import os
import sys
import time
from contextlib import redirect_stderr, redirect_stdout


def reference_kernel() -> None:
    """Fixed exact-arithmetic work that reads the machine's current speed:
    the recursion P_n(-24) for (sigma, id) over Fraction, and the binomial
    shift of a row of big integers.  Independent of darcais."""
    from fractions import Fraction
    from math import comb

    n_max = 300
    sigma = [0] + [sum(d for d in range(1, k + 1) if k % d == 0) for k in range(1, n_max + 1)]
    values = [Fraction(1)]
    for n in range(1, n_max + 1):
        values.append(Fraction(-24, n) * sum(sigma[k] * values[n - k] for k in range(1, n + 1)))
    row = [abs(v.numerator) for v in values]
    [sum(row[m] * comb(m, j) for m in range(j, len(row))) for j in range(len(row))]


def timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def main() -> int:
    spec = json.loads(sys.argv[1])
    os.chdir(spec["cwd"])
    import darcais.cli as cli

    report = {"ready": time.monotonic()}  # the parent's clock, CLOCK_MONOTONIC
    argv = spec["argv"]
    if argv is None:
        print(json.dumps(report))
        return 0

    tracer = None
    if spec["trace"]:
        from tracer import Tracer

        tracer = Tracer().install()
        report["missed"] = tracer.missed_references()

    reference = [timed(reference_kernel)] if spec.get("reference") else []
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        cpu = time.process_time()
        start = time.perf_counter()
        code = cli.main(argv)
        report["wall_s"] = time.perf_counter() - start
        report["cpu_s"] = time.process_time() - cpu
    if reference:
        reference.append(timed(reference_kernel))
        report["reference_s"] = sum(reference) / 2

    import hashlib

    data = out.getvalue().encode("utf-8")
    report["sha256"] = hashlib.sha256(data).hexdigest()
    if spec.get("stdout_path"):
        with open(spec["stdout_path"], "wb") as handle:
            handle.write(data)
    if tracer is not None:
        tracer.uninstall()
        report["trace"] = tracer.layer_metrics()
        if spec.get("spans_path"):
            tracer.write_spans(spec["spans_path"])
    print(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
