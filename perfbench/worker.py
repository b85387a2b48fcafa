"""One benchmark pass in a fresh process.

Usage (normally started by run.py):
    python3 perfbench/worker.py --workload NAME --seed N --pass-index I --trace 0|1

The process first times the import of ``polycs`` (and through it numpy and
scipy) from the checkout's ``src`` directory under the calibration sampler,
then builds the pass inputs,
runs every operation once as a closed loop with one client, checks each
output, and prints one JSON object on stdout.  An untraced pass runs under
the calibration sampler (calibration.py).  With ``--trace 1`` the calls run
under the outside-in tracer instead, and the spans are written to
``perfbench/out`` after the pass.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import Sampler, import_kernel  # noqa: E402

BLAS_THREADS = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
# Compile polycs from source in every process, whatever bytecode cache the
# checkout holds, so setup_s measures the same work everywhere.
sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

IMPORT_SAMPLER = Sampler(import_kernel)
with IMPORT_SAMPLER.running():
    import polycs  # noqa: E402

SETUP_S = time.perf_counter() - _T0 - sum(s[2] for s in IMPORT_SAMPLER.samples)

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from bisect import bisect_left  # noqa: E402
from collections import Counter  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from itertools import accumulate  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import workloads  # noqa: E402
from polycs.errors import PolycsError  # noqa: E402
from tracer import Tracer  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"


def run_pass(workload: str, seed: int, tracer: Tracer | None) -> dict:
    """Run and check one pass.

    An untraced pass runs under the calibration sampler, whose own time is
    taken out of every operation's time.  A traced pass runs under the
    tracer, which is already installed, and takes one kernel sample before
    each operation instead, so that no sample falls into a span.
    """
    ops = workloads.make_ops(workload, seed)
    refs = workloads.load_references()
    sampler = Sampler()
    spans = []
    outcomes = []
    errors: Counter[str] = Counter()
    unexpected = 0
    with nullcontext() if tracer else sampler.running():
        for op_id, op in enumerate(ops):
            failure = None
            if tracer is not None:
                sampler.sample()
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = workloads.run_op(workload, op)
                else:
                    with tracer.operation(op_id):
                        out = workloads.run_op(workload, op)
            except Exception as exc:  # every exception type is a failed operation
                failure = type(exc).__name__
                typed = isinstance(exc, PolycsError)
            spans.append((start, time.perf_counter()))
            if failure is None:
                failure = workloads.check_op(workload, op, out, refs)
                typed = False
            outcomes.append(failure)
            if failure is not None:
                errors[failure] += 1
                if not workloads.tolerated(workload, failure, typed):
                    unexpected += 1
    t0 = spans[0][0]
    sample_starts = [s[0] for s in sampler.samples]
    paused = list(accumulate((s[2] for s in sampler.samples), initial=0.0))
    op_s = []
    for start, end in spans:
        first = bisect_left(sample_starts, start)
        last = bisect_left(sample_starts, end)
        op_s.append(end - start - (paused[last] - paused[first]))
    return {
        "attempted": len(ops),
        "failed": sum(errors.values()),
        "unexpected": unexpected,
        "errors": dict(errors),
        "outcomes": outcomes,
        "op_s": op_s,
        "op_span_s": [(start - t0, end - t0) for start, end in spans],
        "kernel": [(start - t0, kernel_s) for start, kernel_s, _ in sampler.samples],
        "wall_s": sum(op_s),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pass-index", type=int, default=0,
                        help="number of the pass in its run; names the span file")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if Path(polycs.__file__).resolve().parent != SRC / "polycs":
        print(f"polycs imported from {polycs.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            result = run_pass(args.workload, args.seed, tracer)
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(OUT_DIR / f"spans-{args.workload}-pass{args.pass_index}.jsonl.gz")
    else:
        result = run_pass(args.workload, args.seed, None)
    result["setup_s"] = SETUP_S
    result["setup_kernel_s"] = [kernel_s for _, kernel_s, _ in IMPORT_SAMPLER.samples]
    result["versions"] = {
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": int(BLAS_THREADS),
    }
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
