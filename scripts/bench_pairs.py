#!/usr/bin/env python3
"""Run perfbench/run.py in alternating pairs on two checkouts and compare them.

Usage:
    python3 scripts/bench_pairs.py --parent ../base --change . \\
        --workload state-sweep --workload catalog --seed 1 --pairs 10

Each pair runs every workload once on each checkout, one process at a time,
for the run_seconds of the parent's BENCHMARK.json.
Even pairs run the parent first and odd pairs the change first, so drift in
the machine's speed does not favour one side.  Every run prints one
``run {...}`` JSON line as it ends, or a ``failed {...}`` line with the exit
code and last stderr line of a process that exits nonzero, and the session
carries on.  The summary that follows counts such runs per side and gives,
over the pairs whose two runs both completed, for each workload and
end-to-end metric of the parent's BENCHMARK.json, the median and quartiles
of each side, the ratio of the medians with its base, and the pairs the
change won (ties count for neither side).  ``gain`` marks a metric
whose change won at least nine tenths of the pairs and whose medians differ
by more than the parent's interquartile range; ``worse`` marks one whose
change lost that many pairs, with the same gap between the medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """The result object that perfbench/run.py prints as its last line, or,
    where the process exits nonzero, {"exit": its code, "stderr": its last
    stderr line}."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True,
    )
    if proc.returncode:
        tail = proc.stderr.strip().splitlines() or [""]
        return {"exit": proc.returncode, "stderr": tail[-1]}
    return json.loads(proc.stdout.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], metrics: list[dict]) -> list[str]:
    """Summary lines for runs {"workload", "pair", "side", "result"}."""
    lines = []
    for workload in dict.fromkeys(r["workload"] for r in runs):
        mine = [r for r in runs if r["workload"] == workload]
        pairs = sorted({r["pair"] for r in mine})
        by = {(r["pair"], r["side"]): r["result"] for r in mine if "exit" not in r["result"]}
        complete = [p for p in pairs if all((p, s) in by for s in SIDES)]
        lines.append(f"{workload}: {len(complete)} pairs")
        for side in SIDES:
            results = [by[p, side] for p in complete]
            failed = sorted({(r["failed"], r["attempted"]) for r in results})
            correct = all(r["correct"] for r in results)
            line = f"  {side}: failed {failed}, correct {correct}"
            crashed = sum(r["side"] == side and "exit" in r["result"] for r in mine)
            if crashed:
                line += f", {crashed} runs exited nonzero"
            lines.append(line)
        for metric in metrics if complete else ():
            name, lower = metric["name"], metric["better"] == "lower"
            value = {s: [by[p, s]["metrics"][name]["value"] for p in complete] for s in SIDES}
            p1, pm, p3 = quartiles(value["parent"])
            c1, cm, c3 = quartiles(value["change"])
            wins = ties = 0
            for old, new in zip(value["parent"], value["change"]):
                ties += new == old
                wins += new < old if lower else new > old
            ratio = cm / pm if pm else float("nan")
            losses = len(complete) - wins - ties
            apart = abs(cm - pm) > p3 - p1
            mark = ""
            if apart and wins >= 0.9 * len(complete):
                mark = "  gain"
            elif apart and losses >= 0.9 * len(complete):
                mark = "  worse"
            lines.append(
                f"  {name} ({metric['unit']}, {metric['better']} is better): "
                f"parent {pm:.4g} [{p1:.4g}, {p3:.4g}]  change {cm:.4g} [{c1:.4g}, {c3:.4g}]  "
                f"ratio {ratio:.3f} of the parent's {pm:.4g}  "
                f"won {wins}/{len(complete)} (ties {ties}){mark}"
            )
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args()

    spec = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    checkout = {"parent": args.parent, "change": args.change}
    runs = []
    for pair in range(args.pairs):
        order = SIDES if pair % 2 == 0 else SIDES[::-1]
        for workload in args.workload:
            for side in order:
                result = run_once(checkout[side], workload, args.seed, seconds)
                run = {"workload": workload, "pair": pair, "side": side, "result": result}
                print(("failed " if "exit" in result else "run ") + json.dumps(run), flush=True)
                runs.append(run)
    print(f"seed {args.seed}, {seconds} s per run")
    print("\n".join(summarize(runs, spec["end_to_end"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
