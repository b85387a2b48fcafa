"""Tests of the benchmark itself (not part of the package's test suite).

Run from the repository root:
    python3 -m pytest -q perfbench

Each traced pass runs in a fresh worker process, as in a benchmark run, so
the whole file takes about a minute.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import polycs  # noqa: E402,F401
from polycs import hypergeom, stats  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

# Per-layer quantities that must not depend on the machine.
EXACT_SUFFIXES = (".calls", ".terms", ".length", ".aberth_calls", ".cells",
                  ".numpy_warnings", ".distinct_ratio")


def worker(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced_runs():
    runs = {}
    for name in workloads.WORKLOADS:
        runs[name] = (worker(name, 7, 1), worker(name, 7, 1), worker(name, 8, 0))
    return runs


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_repeats_counts(traced_runs, name):
    first, second, _ = traced_runs[name]
    exact = {k: v for k, v in first["layers"].items() if k.endswith(EXACT_SUFFIXES)}
    again = {k: v for k, v in second["layers"].items() if k.endswith(EXACT_SUFFIXES)}
    assert exact == again
    assert exact["hypergeom.pfq.calls"] > 0
    assert first["attempted"] == second["attempted"]
    assert first["errors"] == second["errors"]


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_other_seed_same_operation_count(traced_runs, name):
    first, _, other = traced_runs[name]
    assert other["attempted"] == first["attempted"] == len(workloads.make_ops(name, 9))


def test_every_per_layer_metric_is_produced(traced_runs):
    produced = {"trace.wall_s", "trace.overhead_frac"}
    for runs in traced_runs.values():
        produced.update(runs[0]["layers"])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} <= produced


def test_catalog_passes_its_byte_gate_on_every_figure(traced_runs):
    first, _, other = traced_runs["catalog"]
    assert first["attempted"] == 30
    assert first["failed"] == other["failed"] == 0


SENSITIVITY = 0.8


def fake_pass(op_s: list[float], slowdown: float) -> dict:
    """A pass on a machine `slowdown` times slower than the reference."""
    spans, t = [], 0.0
    for op in op_s:
        spans.append((t, t + op * slowdown))
        t += op * slowdown + 0.001
    ticks = [i * 0.005 for i in range(int(t / 0.005) + 1)]
    return {
        "op_s": [op * slowdown for op in op_s],
        "op_span_s": spans,
        "kernel": [(tick, run.REFERENCE_S * slowdown ** (1.0 / SENSITIVITY)) for tick in ticks],
        "setup_s": 0.8 * slowdown,
        "setup_kernel_s": [run.IMPORT_REFERENCE_S * slowdown ** (1.0 / run.IMPORT_SENSITIVITY)],
        "peak_rss_mb": 80.0 + slowdown,
    }


def test_end_to_end_normalises_each_pass_to_the_reference_speed():
    work = [0.004, 0.002, 0.010]
    passes = [fake_pass(work, 1.0), fake_pass(work, 2.0), fake_pass(work, 1.5)]
    values, _ = run.end_to_end(passes, SENSITIVITY)
    assert values["wall_norm_s"] == pytest.approx(sum(work))
    assert values["op_p50_norm_ms"] == pytest.approx(4.0)
    assert values["op_p99_norm_ms"] == pytest.approx(10.0)
    assert values["setup_s"] == pytest.approx(0.8)
    assert values["peak_rss_mb"] == 82.0


def test_each_operation_comes_from_the_passes_that_ran_fastest_around_it():
    fast = fake_pass([0.004], 1.0)
    slow = fake_pass([0.004], 2.0)
    slow["op_s"] = [0.002]  # a wrong reading on the slow pass is not used
    assert run.op_times_s([slow, fast], SENSITIVITY) == pytest.approx([0.004])


def test_tracer_rebinds_copied_names_and_restores_them():
    original = hypergeom.pfq
    assert stats.pfq is original  # `from .hypergeom import pfq` copied it
    with Tracer().installed():
        assert stats.pfq is not original
        assert stats.pfq is hypergeom.pfq is polycs.pfq
    assert stats.pfq is hypergeom.pfq is polycs.pfq is original


def test_self_time_excludes_child_spans():
    tracer = Tracer()
    spec = workloads.make_ops("state-sweep", 1)[40]  # su(2) PCS, p = 2, j = 1/2
    with tracer.installed(), tracer.operation(0):
        workloads.run_op("state-sweep", spec)
    by_id = {s[0]: s for s in tracer.spans}
    child_ns = {i: 0 for i in by_id}
    for span_id, parent, _, start, end, _ in tracer.spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for name in ("stats.stat_record", "stats.norm_derivatives", "hypergeom.pfq"):
        want = sum(s[4] - s[3] - child_ns[s[0]] for s in tracer.spans if s[2] == name)
        assert tracer.self_ns[name] == want > 0
