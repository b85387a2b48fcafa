"""Outside-in layer tracing of ``polycs``.

The tracer wraps public functions of the package from outside: it rebinds
each target in every ``polycs`` module namespace that holds it, because
``from .hypergeom import pfq`` copies the binding and patching
``polycs.hypergeom.pfq`` alone would miss the calls made from ``stats``,
``states`` and ``geometry``.  No source file of the package changes.

Spanned targets record (id, parent, name, start, end, operation) in memory;
a layer's self time is its span's duration minus the durations of its child
spans.  Counted targets only count calls, which keeps the per-call cost of
tiny functions such as ``ladder_sq`` low.  ``write_spans`` writes the spans
out once, after the pass.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
import warnings
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

SPANNED = (
    "hypergeom.pfq",
    "hypergeom.pfq_derivative",
    "stats.norm_derivatives",
    "stats.stat_record",
    "algebra.deformation_roots",
    "algebra.deformation_factorial",
    "states.coefficients",
    "geometry.laplace_check",
    "geometry.connection_coefficient",
    "geometry.berry_phase_loop",
    "figures.figure_rows",
)
COUNTED = ("algebra.ladder_sq", "states.series_params")

# Extra per-call quantities: (result, first argument) -> {quantity: amount}.
_EXTRA = {
    "hypergeom.pfq": lambda out, arg: {"terms": out.terms_used},
    "algebra.deformation_roots": lambda out, arg: {"aberth_calls": int(arg.p >= 3)},
    "states.coefficients": lambda out, arg: {"length": out.coeffs.size},
    "figures.figure_rows": lambda out, arg: {"cells": len(out[1]) * (len(out[0]) - 1)},
}
# Targets whose distinct first arguments are counted (distinct_ratio).
_DISTINCT = ("hypergeom.pfq", "stats.norm_derivatives")
_WARNED = "states.coefficients"  # overflow/invalid RuntimeWarnings caught


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter[str] = Counter()
        self.self_ns: Counter[str] = Counter()
        self.distinct: dict[str, set] = {name: set() for name in _DISTINCT}
        self._stack: list[list] = []  # [span id, start ns, child ns]
        self._op = -1

    def _span(self, name, func, extra, distinct, warned):
        def wrapper(*args, **kwargs):
            span_id = len(self.spans)
            self.spans.append(None)  # reserve the id; filled on exit
            parent = self._stack[-1][0] if self._stack else -1
            if distinct is not None:
                distinct.add(args[0])
            frame = [span_id, time.perf_counter_ns(), 0]
            self._stack.append(frame)
            try:
                if warned:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        out = func(*args, **kwargs)
                    self.counts[f"{name}.numpy_warnings"] += sum(
                        1
                        for w in caught
                        if issubclass(w.category, RuntimeWarning)
                        and ("overflow" in str(w.message) or "invalid" in str(w.message))
                    )
                else:
                    out = func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                duration = end - frame[1]
                self.self_ns[name] += duration - frame[2]
                if self._stack:
                    self._stack[-1][2] += duration
                self.spans[span_id] = (span_id, parent, name, frame[1], end, self._op)
                self.counts[f"{name}.calls"] += 1
            if extra is not None:
                for key, amount in extra(out, args[0]).items():
                    self.counts[f"{name}.{key}"] += amount
            return out

        return wrapper

    def _counter(self, name, func):
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            return func(*args, **kwargs)

        return wrapper

    @contextmanager
    def installed(self):
        """Rebind every target in all loaded ``polycs`` modules; undo on exit."""
        modules = [m for n, m in sys.modules.items() if n == "polycs" or n.startswith("polycs.")]
        patched = []
        for name in SPANNED + COUNTED:
            mod_name, func_name = name.split(".")
            original = getattr(sys.modules[f"polycs.{mod_name}"], func_name)
            if name in SPANNED:
                wrapper = self._span(
                    name,
                    original,
                    _EXTRA.get(name),
                    self.distinct.get(name),
                    name == _WARNED,
                )
            else:
                wrapper = self._counter(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    @contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation; layer spans nest under it."""
        self._op = op_id
        span_id = len(self.spans)
        self.spans.append(None)
        frame = [span_id, time.perf_counter_ns(), 0]
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            self._stack.pop()
            self.spans[span_id] = (span_id, -1, "op", frame[1], end, op_id)

    def wall_ns(self) -> int:
        return sum(s[4] - s[3] for s in self.spans if s[2] == "op")

    def layer_metrics(self) -> dict[str, float]:
        """Counts, distinct ratios and self-time shares of the traced pass."""
        out: dict[str, float] = {}
        wall = self.wall_ns()
        for name in SPANNED:
            out[f"{name}.self_frac"] = self.self_ns[name] / wall if wall else 0.0
        for key, value in self.counts.items():
            out[key] = value
        for name, seen in self.distinct.items():
            calls = self.counts[f"{name}.calls"]
            out[f"{name}.distinct_ratio"] = len(seen) / calls if calls else 0.0
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            for span_id, parent, name, start, end, op_id in self.spans:
                handle.write(json.dumps([span_id, parent, name, start, end, op_id]) + "\n")
