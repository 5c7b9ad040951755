"""The darcais benchmark: CLI workloads, each sample in a fresh interpreter.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run it from anywhere in a source checkout; it imports the program from the
checkout's `src/`.  One run first starts a discarded warm-up child that
imports the CLI (and so writes the `.pyc` files), then starts one child
process per sample, one at a time, until `--seconds` have passed.
No sample loops `main()` in a process that has run it before: the program
keeps module-global memos that would make later calls warmer than any
user's.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json,
each the median over the run's samples.  With `--trace 1` it alternates
untraced and traced samples and reports the per-layer metrics: calls and
self times from spans recorded around the program's public callables (see
tracer.py), plus `trace.overhead_s`, the traced `cli.main` time minus the
untraced `wall_s`.

Every output is checked: a sample fails when it exits non-zero or when the
SHA-256 of its stdout differs from the golden digest in golden.json.  For
an `export-rational` seed without golden digests, the first output for
each table pair is checked against an independent evaluation of the
defining recursion, and every later sample of that pair must reproduce it
byte for byte.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`; the lines before it print each metric with its unit
and sample count.  See NOTES.md for the workloads and what each metric
should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import select
import shutil
import signal
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

EXPORT_MAX_N = 110
# export-rational cycles through this many seeded (G, H) pairs, so that a
# run's median is not the cost of one draw of the tables.
EXPORT_PAIRS = 5

# Fixed workloads ignore the seed; export-rational draws its tables from it
# and fills in {k}, the index of the table pair.
WORKLOADS = {
    "hook-sweep": ["scan", "--check", "hook-logconcave", "--max-n", "200"],
    "lehmer": ["scan", "--check", "lehmer", "--max-n", "500"],
    "verify-all": ["verify", "--suite", "all", "--max-n", "18"],
    "export-rational": ["export", "--g", "table:G{k}.json", "--h", "table:H{k}.json",
                        "--max-n", str(EXPORT_MAX_N)],
    "poly-recursion": ["poly", "--g", "sigma:1", "--h", "id", "--n", "125", "--format", "json"],
}

MIN_SAMPLES = 3
MIN_TRACED = 2
SETUP_PROBES = 8
CHILD_TIMEOUT_S = 150.0
RUN_LIMIT_S = 165.0  # a run must end within 180 s


# -- inputs ---------------------------------------------------------------


def rational_table(rng: random.Random, length: int) -> list[str]:
    """A normalized, non-vanishing table of p/q values with |p|, q <= 9."""
    values = ["1"]
    for _ in range(length - 1):
        p = rng.choice([v for v in range(-9, 10) if v])
        values.append(f"{p}/{rng.randint(1, 9)}")
    return values


def write_inputs(workload: str, seed: int, workdir: Path) -> list[list[str]]:
    """Write the run's input files; return the argv of each input."""
    if workload != "export-rational":
        return [WORKLOADS[workload]]
    rng = random.Random(seed)
    for k in range(EXPORT_PAIRS):
        for name in ("G", "H"):
            table = rational_table(rng, EXPORT_MAX_N)
            (workdir / f"{name}{k}.json").write_text(json.dumps(table))
    return [[a.format(k=k) for a in WORKLOADS[workload]] for k in range(EXPORT_PAIRS)]


# -- correctness ----------------------------------------------------------


def check_export(text: str, workdir: Path, pair: int) -> str | None:
    """Check the table exported for pair `pair` against P_n evaluated by the
    defining recursion P_n(x) = (x / h(n)) sum_k g(k) P_{n-k}(x) at a few
    points.  Returns a description of the first problem, or None."""
    g, h = ([Fraction(0)] + [Fraction(v) for v in json.loads((workdir / f"{name}{pair}.json").read_text())]
            for name in ("G", "H"))
    doc = json.loads(text)
    n_max = EXPORT_MAX_N
    if doc.get("kind") != "coefficient-table" or doc.get("max_n") != n_max:
        return "not a coefficient table of the requested size"
    rows = [[Fraction(a) for a in row] for row in doc["rows"]]
    normalizers = [Fraction(v) for v in doc["normalizers"]]
    if len(rows) != n_max + 1 or any(len(row) != n + 1 for n, row in enumerate(rows)):
        return "table rows have the wrong shape"
    product = Fraction(1)
    for n in range(n_max + 1):
        product *= h[n] if n else 1
        if normalizers[n] != product:
            return f"normalizer H({n}) is wrong"
    for x in (Fraction(1), Fraction(-2), Fraction(1, 3)):
        values = [Fraction(1)]
        for n in range(1, n_max + 1):
            values.append(x * sum(g[k] * values[n - k] for k in range(1, n + 1)) / h[n])
        for n, row in enumerate(rows):
            total = Fraction(0)
            for a in reversed(row):
                total = total * x + a
            if total != values[n] * normalizers[n]:
                return f"row {n} disagrees with the recursion at x = {x}"
    return None


# -- children -------------------------------------------------------------


def child_env() -> dict:
    """The caller's environment without darcais settings (DARCAIS_THREADS,
    DARCAIS_LONG_SCANS, DARCAIS_TRACE) or interpreter switches, with the
    checkout's src/ on the path and a fixed hash seed."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("DARCAIS_", "PYTHON")) or k == "PYTHONHOME"}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(spec: dict, env: dict, timeout: float) -> dict:
    """Run one child; return its report with the parent-side measurements."""
    read_fd, write_fd = os.pipe()
    argv = [sys.executable, str(HERE / "child.py"), json.dumps(spec)]
    started = time.monotonic()
    pid = os.posix_spawn(sys.executable, argv, env,
                         file_actions=[(os.POSIX_SPAWN_DUP2, write_fd, 1)])
    os.close(write_fd)
    chunks, timed_out = [], False
    try:
        deadline = started + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                os.kill(pid, signal.SIGKILL)
                timed_out = True
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                break
            chunks.append(chunk)
    except BaseException:  # interrupted: end the child before waiting for it
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        os.close(read_fd)
        _, status, usage = os.wait4(pid, 0)
    sample = {
        "code": os.waitstatus_to_exitcode(status),
        "elapsed_s": time.monotonic() - started,
        "peak_rss_mib": usage.ru_maxrss / 1024,
        "report": None,
    }
    lines = b"".join(chunks).decode("utf-8", "replace").strip().splitlines()
    if not timed_out and lines:
        try:
            sample["report"] = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if sample["report"] is not None:
        sample["setup_s"] = sample["report"]["ready"] - started
    return sample


# -- the run --------------------------------------------------------------


def median(values):
    return statistics.median(values) if values else float("nan")


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool,
                 golden: dict, argvs: list[list[str]]):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.golden = golden
        # traced samples must repeat their counts exactly, so they keep to one input
        self.argvs = argvs[:1] if trace else argvs
        self.env = child_env()
        self.samples: list[dict] = []  # timed workload samples, traced or not
        self.probes: list[dict] = []  # children that only import the CLI
        self.problems: list[str] = []
        self.references: dict[int, str] = {}  # input index -> stdout digest

    def spec(self, workdir: Path, index: int, **extra) -> dict:
        return {"cwd": str(workdir), "argv": self.argvs[index], "trace": False, **extra}

    @staticmethod
    def probe_spec(workdir: Path) -> dict:
        """A child that only imports the CLI: the warm-up (it writes the
        .pyc files) and the extra set-up samples."""
        return {"cwd": str(workdir), "argv": None, "trace": False}

    def sample_ok(self, sample: dict) -> bool:
        report = sample["report"]
        return (sample["code"] == 0 and report is not None
                and report["sha256"] == self.references.get(sample["input"]))

    def set_reference(self, index: int, sample: dict, stdout_path: Path, workdir: Path) -> None:
        """Fix the digest that every sample of input `index` must reproduce,
        from its first sample."""
        report = sample["report"]
        if sample["code"] != 0 or report is None:
            self.problems.append(f"first sample of input {index} exited with {sample['code']}")
            return
        expected = self.golden.get(self.workload)
        if isinstance(expected, dict):  # export-rational: digests by seed, then pair
            expected = expected.get(str(self.seed), [None] * len(self.argvs))[index]
        if expected is None:
            try:
                problem = check_export(stdout_path.read_text(encoding="utf-8"), workdir, index)
            except (ValueError, KeyError, TypeError) as exc:  # not a well-formed table
                problem = f"unreadable output ({exc!r})"
            if problem:
                self.problems.append(f"output check of input {index}: {problem}")
                return
            expected = report["sha256"]
        elif report["sha256"] != expected:
            self.problems.append(f"stdout of input {index} differs from the golden digest")
            return
        self.references[index] = expected

    def measure(self, workdir: Path, run_start: float) -> None:
        """Untraced samples bracketed by the reference kernel; with tracing,
        untraced and traced samples in turn.  Then set-up probes."""
        warm_up = spawn(self.probe_spec(workdir), self.env, CHILD_TIMEOUT_S)
        if warm_up["code"] != 0:
            self.problems.append(f"warm-up exited with {warm_up['code']}")
        loop_start = time.monotonic()
        spans = OUT / f"{self.workload}-seed{self.seed}.spans.jsonl"
        while True:
            index = len(self.samples) % len(self.argvs)
            first = len(self.samples) < len(self.argvs)
            stdout_path = workdir / f"first-{index}.out"
            traced = self.trace and len(self.samples) % 2 == 1
            spec = self.spec(workdir, index, trace=traced, reference=not self.trace,
                             spans_path=str(spans) if traced else None,
                             stdout_path=str(stdout_path) if first else None)
            sample = spawn(spec, self.env, CHILD_TIMEOUT_S)
            sample["traced"], sample["input"] = traced, index
            self.samples.append(sample)
            if first:
                self.set_reference(index, sample, stdout_path, workdir)
            now = time.monotonic()
            typical = median([s["elapsed_s"] for s in self.samples])
            counted = sum(s["traced"] for s in self.samples) if self.trace else len(self.samples)
            enough = len(self.samples) >= MIN_SAMPLES and counted >= MIN_TRACED
            if now - run_start + typical > RUN_LIMIT_S:
                break
            if enough and now - loop_start + typical > self.seconds:
                break
        if not self.trace:
            self.probes = [spawn(self.probe_spec(workdir), self.env, CHILD_TIMEOUT_S)
                           for _ in range(SETUP_PROBES)]

    def end_to_end(self) -> dict:
        plain = [s for s in self.samples if s["report"] is not None]
        ratios = [(s["report"]["wall_s"] / s["report"]["reference_s"],
                   s["report"]["cpu_s"] / s["report"]["reference_s"]) for s in plain]
        setups = [s["setup_s"] for s in plain + self.probes if s["report"] is not None]
        failed = sum(not self.sample_ok(s) for s in self.samples)
        return {
            "wall_per_ref": (median([w for w, _ in ratios]), len(ratios)),
            "cpu_per_ref": (median([c for _, c in ratios]), len(ratios)),
            "peak_rss_mib": (median([s["peak_rss_mib"] for s in plain]), len(plain)),
            "ok_ratio": (1 - failed / len(self.samples), len(self.samples)),
            "setup_s": (median(setups), len(setups)),
            # shown, not declared: raw times move with the machine's load
            "wall_s": (median([s["report"]["wall_s"] for s in plain]), len(plain)),
            "cpu_s": (median([s["report"]["cpu_s"] for s in plain]), len(plain)),
            "reference_s": (median([s["report"]["reference_s"] for s in plain]), len(plain)),
        }

    def per_layer(self, names: list[str]) -> dict:
        plain = [s for s in self.samples if s["report"] is not None and not s["traced"]]
        traces = [s["report"]["trace"] for s in self.samples
                  if s["traced"] and s["report"] is not None and "trace" in s["report"]]
        if not traces:
            self.problems.append("no traced sample completed")
            return {}
        for s in self.samples:
            if s["traced"] and s["report"] is not None and s["report"].get("missed"):
                self.problems.append(f"tracer missed references: {s['report']['missed']}")
        for t in traces:
            self.problems.extend(t["problems"])
        counts = [{k: v for k, v in t["metrics"].items() if not k.endswith("_s")} for t in traces]
        if any(c != counts[0] for c in counts[1:]):
            self.problems.append("traced counts differ between samples")
        values, shown = {}, {}
        for name in names:
            if name == "trace.overhead_s":
                untraced = median([s["report"]["wall_s"] for s in plain])
                value = median([t["root_s"] for t in traces]) - untraced
            elif name.endswith(".self_share"):
                seconds = name.removesuffix("share") + "s"
                value = median([t["metrics"].get(seconds, 0.0) / t["root_s"] for t in traces])
                if value:
                    shown[seconds] = (median([t["metrics"][seconds] for t in traces]), len(traces))
            else:
                value = counts[0].get(name, 0)
            values[name] = (value, len(traces))
        return values | shown


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind so that the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (SRC / "darcais" / "cli.py").is_file():
        print(f"error: no darcais sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    golden = json.loads((HERE / "golden.json").read_text())
    run_start = time.monotonic()

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    try:
        argvs = write_inputs(args.workload, args.seed, workdir)
        run = Run(args.workload, args.seed, args.seconds, bool(args.trace), golden, argvs)
        run.measure(workdir, run_start)
        declared = spec["per_layer" if args.trace else "end_to_end"]
        values = run.per_layer([m["name"] for m in declared]) if args.trace else run.end_to_end()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(run.samples)
    failed = sum(not run.sample_ok(s) for s in run.samples)
    for problem in run.problems:
        print(f"problem: {problem}")
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={attempted} failed={failed} failed_ratio={failed / attempted:.4f}")
    units = {m["name"]: m["unit"] for m in declared}
    metrics = {}
    for name, (value, count) in values.items():
        unit = units.get(name, "s")
        shown = "" if name in units else "  (shown only)"
        print(f"{name:<48} {value!r:>24} {unit:<6} n={count}{shown}")
        if name in units:
            metrics[name] = {"value": value, "unit": unit}
    missing = [name for name in units if not math.isfinite(metrics.get(name, {}).get("value", math.nan))]
    for name in missing:
        print(f"problem: no value for {name}")
        metrics[name] = {"value": 0.0, "unit": units[name]}
    correct = not run.problems and not missing and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
