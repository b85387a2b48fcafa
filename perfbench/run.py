#!/usr/bin/env python3
"""Benchmark of polycs: catalog, state-sweep and geometry workloads.

Usage, from the root of the repository:
    python3 perfbench/run.py --workload catalog --seed 1 --seconds 30 --trace 0

The run repeats one pass of the workload for about ``--seconds`` seconds.
Every pass runs the same inputs, made from ``--seed``, in a fresh process
(perfbench/worker.py) that times the import of ``polycs`` and then runs every
operation once, as a closed loop with one client.  The machine's speed
changes within tenths of a second, so an untraced pass runs under the
calibration sampler (calibration.py), and each operation's time is
normalised to the reference speed and taken from the passes in which the
machine ran fastest around it.  One JSON object is printed as the last line
of stdout:

* ``--trace 0``: the end-to-end metrics of BENCHMARK.json from untraced
  passes.  ``wall_norm_s`` is the sum of the operations' normalised times,
  and the latency percentiles are taken over them; ``setup_s`` is the
  normalised import time, taken the same way over the run's processes.
* ``--trace 1``: the per-layer metrics of BENCHMARK.json.  The run alternates
  an untraced and a traced pass; counts come from the first traced pass and
  repeat exactly for a seed, shares are medians over the traced passes, and
  ``trace.overhead_frac`` is the median of traced over untraced normalised
  pass time, minus 1.

``attempted`` and ``failed`` count the distinct operations of one pass, so
they depend on the seed only.  ``correct`` is false when any operation fails
outside the failures the workload tolerates (see workloads.tolerated), or
when two passes of the same inputs disagree on which operations fail.  A
readable report with provenance goes to stdout before the JSON line, and the
full result to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from itertools import accumulate
from pathlib import Path

from calibration import IMPORT_REFERENCE_S, IMPORT_SENSITIVITY, REFERENCE_S, SENSITIVITY

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"
CHILD_TIMEOUT_S = 150
# An operation's speed is taken from the kernel samples from this long
# before it starts until this long after it ends (calibration.py).
CAL_MARGIN_S = 0.02
# Share of a run's passes, those in which the machine ran fastest around an
# operation, that give the operation's time.
FAST_SHARE = 1 / 2


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def run_worker(workload: str, seed: int, pass_index: int, trace: int) -> dict:
    cmd = [
        sys.executable,
        str(WORKER),
        "--workload", workload,
        "--seed", str(seed),
        "--pass-index", str(pass_index),
        "--trace", str(trace),
    ]
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker failed with exit code {proc.returncode}: {' '.join(cmd)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def provenance(seed: int, worker_versions: dict) -> dict:
    git_sha = None  # checkouts used for measurement need not be repositories
    if (ROOT / ".git").exists():
        try:
            git_sha = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True,
            ).stdout.strip() or None
        except OSError:  # git is not installed
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "polycs").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        **worker_versions,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def normalised_op_s(one_pass: dict, sensitivity: float) -> list[tuple[float, float]]:
    """(normalised time, speed) of each operation of a pass.

    The samples are evenly spaced in wall time, so the mean of their inverse
    kernel times, times REFERENCE_S, is the machine's mean speed over the
    operation relative to the reference; the operation's time scales as that
    speed to the power -sensitivity.
    """
    times = [t for t, _ in one_pass["kernel"]]
    speed_sum = list(accumulate((1.0 / k for _, k in one_pass["kernel"]), initial=0.0))
    out = []
    for op_s, (start, end) in zip(one_pass["op_s"], one_pass["op_span_s"]):
        lo = bisect_left(times, start - CAL_MARGIN_S)
        hi = bisect_right(times, end + CAL_MARGIN_S)
        if hi == lo:  # no sample nearby: take the nearest one
            lo = min(lo, len(times) - 1)
            if lo > 0 and start - times[lo - 1] < times[lo] - end:
                lo -= 1
            hi = lo + 1
        speed = REFERENCE_S * (speed_sum[hi] - speed_sum[lo]) / (hi - lo)
        out.append((op_s * speed**sensitivity, speed))
    return out


def normalised_wall_s(one_pass: dict, sensitivity: float) -> float:
    return sum(t for t, _ in normalised_op_s(one_pass, sensitivity))


def fastest_median(samples: tuple[tuple[float, float], ...]) -> float:
    """Median normalised time over the FAST_SHARE of (time, speed) samples
    taken while the machine ran fastest."""
    keep = max(1, int(len(samples) * FAST_SHARE))
    fastest = sorted(samples, key=lambda sample: sample[1], reverse=True)[:keep]
    return statistics.median(t for t, _ in fastest)


def op_times_s(passes: list[dict], sensitivity: float) -> list[float]:
    """Each operation's normalised time over the passes of a run."""
    return [fastest_median(samples)
            for samples in zip(*(normalised_op_s(p, sensitivity) for p in passes))]


def setup_time_s(passes: list[dict]) -> float:
    """The normalised import time of polycs over the run's processes."""
    samples = []
    for p in passes:
        kernel_s = p["setup_kernel_s"]
        speed = IMPORT_REFERENCE_S * sum(1.0 / k for k in kernel_s) / len(kernel_s)
        samples.append((p["setup_s"] * speed**IMPORT_SENSITIVITY, speed))
    return fastest_median(tuple(samples))


def end_to_end(
    passes: list[dict], sensitivity: float
) -> tuple[dict[str, float], dict[str, str]]:
    """Metric values and the sample each one is taken over."""
    n_proc = len(passes)
    op_ms = sorted(t * 1e3 for t in op_times_s(passes, sensitivity))
    values = {
        "setup_s": setup_time_s(passes),
        "wall_norm_s": sum(op_ms) / 1e3,
        "op_p50_norm_ms": percentile(op_ms, 50),
        "op_p99_norm_ms": percentile(op_ms, 99),
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
    }
    fastest = f"the fastest {max(1, int(n_proc * FAST_SHARE))} of {n_proc}"
    each = f"each normalised, from {fastest} passes"
    samples = {
        "setup_s": f"normalised, median of {fastest} fresh processes",
        "wall_norm_s": f"sum over {len(op_ms)} operations, {each}",
        "op_p50_norm_ms": f"{len(op_ms)} operations, {each}",
        "op_p99_norm_ms": f"{len(op_ms)} operations, "
        f"{len(op_ms) - math.ceil(0.99 * len(op_ms))} beyond, {each}",
        "peak_rss_mb": f"max of {n_proc} processes",
    }
    return values, samples


def per_layer(
    plain: list[dict], traced: list[dict], sensitivity: float
) -> tuple[dict[str, float], dict[str, str]]:
    first = traced[0]["layers"]  # the counts that repeat for a seed
    values: dict[str, float] = {}
    samples: dict[str, str] = {}
    shares = sorted({k for t in traced for k in t["layers"] if k.endswith(".self_frac")})
    for key, value in first.items():
        if key not in shares:
            values[key] = value
            samples[key] = "first traced pass"
    for key in shares:
        values[key] = statistics.median(t["layers"].get(key, 0.0) for t in traced)
        samples[key] = f"median of {len(traced)} traced passes"
    values["trace.wall_s"] = statistics.median(t["wall_s"] for t in traced)
    samples["trace.wall_s"] = f"median of {len(traced)} traced passes"
    values["trace.overhead_frac"] = statistics.median(
        normalised_wall_s(t, sensitivity) / normalised_wall_s(p, sensitivity) - 1.0
        for p, t in zip(plain, traced)
    )
    samples["trace.overhead_frac"] = (
        f"median of {len(traced)} traced/untraced pairs, each pass normalised")
    return values, samples


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload", choices=[w["name"] for w in spec["workloads"]], required=True
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "polycs" / "__init__.py").is_file():
        print(f"no polycs sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    sensitivity = SENSITIVITY[args.workload]

    start = time.monotonic()
    plain: list[dict] = []
    traced: list[dict] = []
    lengths: list[float] = []
    pass_index = 0
    # Start another pass only if a typical one still ends within --seconds.
    while not lengths or time.monotonic() - start + statistics.median(lengths) <= args.seconds:
        began = time.monotonic()
        if args.trace:
            # Alternate which side runs first so drift does not bias the pair.
            order = (0, 1) if pass_index % 2 == 0 else (1, 0)
            pair = {t: run_worker(args.workload, args.seed, pass_index, t) for t in order}
            plain.append(pair[0])
            traced.append(pair[1])
        else:
            plain.append(run_worker(args.workload, args.seed, pass_index, 0))
        lengths.append(time.monotonic() - began)
        pass_index += 1

    if args.trace:
        values, samples = per_layer(plain, traced, sensitivity)
        counted = traced
    else:
        values, samples = end_to_end(plain, sensitivity)
        counted = plain
    # Every pass runs the same inputs: count the operations of one pass, and
    # require every pass to fail on the same ones.
    attempted = counted[0]["attempted"]
    failed = counted[0]["failed"]
    errors = counted[0]["errors"]
    repeatable = all(p["outcomes"] == counted[0]["outcomes"] for p in counted)
    correct = repeatable and all(p["unexpected"] == 0 for p in counted)

    metrics = {}
    for m in wanted:
        # Layers a workload never reaches have no spans: their counts are 0.
        value = values.get(m["name"], 0 if args.trace else None)
        if value is None:
            raise SystemExit(f"metric {m['name']} is not produced by the benchmark")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    prov = provenance(args.seed, plain[0]["versions"])
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={pass_index} (one fresh process each)")
    print("provenance: " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for name, metric in metrics.items():
        sample = samples.get(name, "not reached by this workload")
        print(f"  {name:44s} {metric['value']:<14.6g} {metric['unit']:6s} ({sample})")
    if not args.trace:
        kernel_ms = statistics.median(k for p in plain for _, k in p["kernel"]) * 1e3
        raw_wall_s = statistics.median(p["wall_s"] for p in plain)
        raw_setup_s = statistics.median(p["setup_s"] for p in plain)
        print(f"  {'raw setup time (not normalised)':44s} {raw_setup_s:<14.6g} {'s':6s} "
              f"(median of {len(plain)} processes)")
        print(f"  {'raw pass time (not normalised)':44s} {raw_wall_s:<14.6g} {'s':6s} "
              f"(median of {len(plain)} passes)")
        print(f"  {'calibration kernel':44s} {kernel_ms:<14.6g} {'ms':6s} "
              f"(median of {sum(len(p['kernel']) for p in plain)} samples; "
              f"normalised times assume {REFERENCE_S * 1e3:g} ms)")
    print(f"  {'failed_frac':44s} {failed / attempted:<14.6g} {'1':6s} "
          f"({failed} of {attempted} operations; {errors or 'no failures'})")
    print(f"  {'correct':44s} {correct}"
          + ("" if repeatable else " (passes disagree on which operations fail)"))

    OUT_DIR.mkdir(exist_ok=True)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    record = dict(result, workload=args.workload, trace=args.trace, errors=errors,
                  samples=samples, provenance=prov, passes=pass_index,
                  pass_setup_s=[p["setup_s"] for p in plain],
                  pass_wall_s=[p["wall_s"] for p in plain],
                  pass_wall_norm_s=[normalised_wall_s(p, sensitivity) for p in plain],
                  pass_kernel_s=[statistics.median(k for _, k in p["kernel"]) for p in plain],
                  traced_wall_s=[t["wall_s"] for t in traced])
    out = OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
