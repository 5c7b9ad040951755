"""External tracer for darcais: spans and counters around public callables.

The tracer lives outside the program.  `install()` wraps each callable in
TIMED, COUNTED and GENERATORS and rebinds the wrapper everywhere a
`darcais.*` module (or a darcais class) holds the original, so that calls
made through names imported with `from .x import y` are seen too.
`missed_references()` then checks that no original is left reachable from
a darcais module.

Timed callables record a span (name, start, end, parent index) in memory;
counted callables only bump a counter; generator functions count the calls
and the items consumed.  `layer_metrics()` turns the spans into per-layer
`calls` and `self_s`, where self time is the span's duration minus the
duration of the traced spans nested directly inside it.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from fractions import Fraction

# (module, attribute path) -> span name.  A dotted attribute path names a
# method, wrapped on the class itself.
TIMED = {
    ("cli", "main"): "cli.main",
    ("recursion", "CoefficientTable.__init__"): "recursion.CoefficientTable",
    ("recursion", "CoefficientTable.to_dict"): "recursion.CoefficientTable.to_dict",
    ("recursion", "shifted_coefficient_numerators"): "recursion.shifted_coefficient_numerators",
    ("recursion", "value_sequence"): "recursion.value_sequence",
    ("recursion", "polynomial_sequence"): "recursion.polynomial_sequence",
    ("series", "euler_product_power"): "series.euler_product_power",
    ("series", "hook_length_polynomial"): "series.hook_length_polynomial",
    ("series", "inverse_eisenstein"): "series.inverse_eisenstein",
    ("series", "generating_series_h_id"): "series.generating_series_h_id",
    ("series", "generating_series_h_one"): "series.generating_series_h_one",
    ("series", "closed_family_check"): "series.closed_family_check",
    ("shapes", "is_log_concave"): "shapes.is_log_concave",
    ("shapes", "is_ultra_log_concave"): "shapes.is_ultra_log_concave",
    ("shapes", "is_unimodal"): "shapes.is_unimodal",
    ("shapes", "hook_poly_log_concavity_scan"): "shapes.hook_poly_log_concavity_scan",
    ("shapes", "lehmer_scan"): "shapes.lehmer_scan",
    ("shapes", "top_margin"): "shapes.top_margin",
    ("shapes", "transfer_check"): "shapes.transfer_check",
    ("shapes", "counterexample_search"): "shapes.counterexample_search",
    ("weights", "coefficient_from_weights"): "weights.coefficient_from_weights",
    ("weights", "coefficient_h_one"): "weights.coefficient_h_one",
    ("weights", "coefficient_h_id"): "weights.coefficient_h_id",
    ("weights", "orbit_weight_sum"): "weights.orbit_weight_sum",
    ("weights", "h_weight"): "weights.h_weight",
    ("weights", "conversion_scan"): "weights.conversion_scan",
    ("exact", "Series.exp"): "exact.Series.exp",
    ("exact", "Series.inverse"): "exact.Series.inverse",
    ("exact", "Poly.__call__"): "exact.Poly.eval",
}

# Hot callables: counted, not timed, so their cost stays in the caller's
# self time.  `__rmul__`/`__radd__` are aliases of `__mul__`/`__add__` and
# are rebound with them.
COUNTED = {
    ("exact", "Poly.__mul__"): "exact.Poly.mul",
    ("exact", "Poly.__add__"): "exact.Poly.add",
    ("arith", "ArithmeticFunction.__call__"): "arith.ArithmeticFunction.call",
    ("arith", "divisor_power_sum"): "arith.divisor_power_sum",
    ("partitions", "hook_multiset"): "partitions.hook_multiset",
}

GENERATORS = {
    ("partitions", "partitions_of"): "partitions.partitions_of",
}

# Results whose largest integer bit length is recorded.
MAX_BITS = {
    "recursion.CoefficientTable",
    "recursion.shifted_coefficient_numerators",
    "recursion.value_sequence",
    "series.euler_product_power",
}

# Time spent measuring results, recorded as a span of its own under the
# caller's span, so that no layer's self time includes it.
MEASURE_SPAN = "trace.measure"


def bits(value) -> int:
    """Largest bit length of the integers inside an exact value."""
    if isinstance(value, int):
        return abs(value).bit_length()
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    coefficients = getattr(value, "coefficients", None)  # Poly and Series
    if coefficients is not None:
        return max((bits(c) for c in coefficients), default=0)
    if isinstance(value, (list, tuple)):
        return max((bits(v) for v in value), default=0)
    return 0


def entry_bytes(value) -> int:
    """Computed (not measured) size of an exact value's objects."""
    if isinstance(value, Fraction):
        return sys.getsizeof(value) + sys.getsizeof(value.numerator) + sys.getsizeof(value.denominator)
    return sys.getsizeof(value)


def _darcais_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "darcais" or name.startswith("darcais."))]


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.max_bits: dict[str, int] = {}
        self.entry_bytes: dict[str, int] = {}
        self._stack = [-1]
        self._originals: list = []
        self._restore: list = []  # (owner, attribute, original)

    # -- wrappers ---------------------------------------------------------

    def _span(self, name, fn, measure):
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if measure:
                self._measure(name, args[0] if result is None else result)
            return result

        return wrapper

    def _measure(self, name, value):
        span = [MEASURE_SPAN, self.clock(), 0.0, self._stack[-1]]
        self.spans.append(span)
        if name == "recursion.CoefficientTable":
            rows = [value.row(n) for n in range(value.max_n + 1)]
            value = [a for row in rows for a in row]
            size = sum(entry_bytes(a) for a in value)
            self.entry_bytes[name] = max(self.entry_bytes.get(name, 0), size)
        self.max_bits[name] = max(self.max_bits.get(name, 0), bits(value))
        span[2] = self.clock()

    def _counter(self, name, fn):
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _generator(self, name, fn):
        counts = self.counts
        calls, items = name + ".calls", name + ".items"

        def consume(iterator):
            for item in iterator:
                counts[items] += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[calls] += 1
            return consume(fn(*args, **kwargs))

        return wrapper

    def _init_counter(self, fn):
        """Wrap ArithmeticFunction.__init__ so each instance's evaluator
        counts its invocations: memo misses, as opposed to calls."""
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(instance, *args, **kwargs):
            fn(instance, *args, **kwargs)
            evaluate = instance._eval

            def counted(n):
                counts["arith.ArithmeticFunction.evals"] += 1
                return evaluate(n)

            instance._eval = counted

        return wrapper

    # -- installation -----------------------------------------------------

    def _rebind(self, module, path, make):
        owner = importlib.import_module(f"darcais.{module}")
        *owner_path, attribute = path.split(".")
        for part in owner_path:
            owner = getattr(owner, part)
        original = owner.__dict__[attribute] if owner_path else getattr(owner, attribute)
        wrapper = make(original)
        self._originals.append(original)
        if owner_path:  # a method: rebind it and its aliases on the class
            for alias, value in list(vars(owner).items()):
                if value is original:
                    self._restore.append((owner, alias, original))
                    setattr(owner, alias, wrapper)
            return
        for mod in _darcais_modules():
            for alias, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, alias, original))
                    setattr(mod, alias, wrapper)

    def install(self) -> "Tracer":
        for (module, path), name in TIMED.items():
            self._rebind(module, path, lambda fn, n=name: self._span(n, fn, n in MAX_BITS))
        for (module, path), name in COUNTED.items():
            self._rebind(module, path, lambda fn, n=name: self._counter(n, fn))
        for (module, path), name in GENERATORS.items():
            self._rebind(module, path, lambda fn, n=name: self._generator(n, fn))
        self._rebind("arith", "ArithmeticFunction.__init__", self._init_counter)
        return self

    def uninstall(self) -> None:
        for owner, alias, original in reversed(self._restore):
            setattr(owner, alias, original)
        self._restore.clear()

    def missed_references(self) -> list[str]:
        """Places in darcais modules and classes that still hold an
        unwrapped original: module globals, class attributes, function
        defaults, and the values of module-level dicts, lists and tuples."""
        originals = {id(original) for original in self._originals}
        missed = []

        def check(where, value):
            if id(value) in originals:
                missed.append(where)

        for mod in _darcais_modules():
            for alias, value in vars(mod).items():
                check(f"{mod.__name__}.{alias}", value)
                if isinstance(value, dict):
                    for key, item in value.items():
                        check(f"{mod.__name__}.{alias}[{key!r}]", item)
                elif isinstance(value, (list, tuple)):
                    for i, item in enumerate(value):
                        check(f"{mod.__name__}.{alias}[{i}]", item)
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    for attr, item in vars(value).items():
                        check(f"{mod.__name__}.{alias}.{attr}", item)
                for default in getattr(value, "__defaults__", None) or ():
                    check(f"{mod.__name__}.{alias} default", default)
        return missed

    # -- results ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer calls, self time, counts and sizes, plus the totals
        needed to check that the self times add up to the root span."""
        spans = self.spans
        nested = [0.0] * len(spans)
        problems = []
        for name, start, end, parent in spans:
            if parent >= 0:
                _, p_start, p_end, _ = spans[parent]
                nested[parent] += end - start
                if start < p_start or end > p_end:
                    problems.append(f"{name} span lies outside its parent {spans[parent][0]}")
        metrics: dict = {}
        roots = []
        self_total = 0.0
        for (name, start, end, parent), inner in zip(spans, nested):
            own = (end - start) - inner
            self_total += own
            metrics[name + ".calls"] = metrics.get(name + ".calls", 0) + 1
            metrics[name + ".self_s"] = metrics.get(name + ".self_s", 0.0) + own
            if parent < 0:
                roots.append(end - start)
        metrics.update(self.counts)
        for name, value in self.max_bits.items():
            metrics[name + ".max_bits"] = value
        for name, value in self.entry_bytes.items():
            metrics[name + ".entry_bytes"] = value
        calls = self.counts["arith.ArithmeticFunction.call.calls"]
        if calls:
            metrics["arith.memo_hit_ratio"] = 1 - self.counts["arith.ArithmeticFunction.evals"] / calls
        if len(roots) != 1:
            problems.append(f"expected one root span (cli.main), found {len(roots)}")
        root_total = sum(roots)
        if abs(self_total - root_total) > 1e-6 + 1e-9 * root_total:
            problems.append(f"self times sum to {self_total!r}, root spans to {root_total!r}")
        return {"metrics": metrics, "root_s": root_total, "problems": problems}

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
