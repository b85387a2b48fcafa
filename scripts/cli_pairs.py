#!/usr/bin/env python3
"""Run one polycs command on two checkouts in alternating fresh processes.

Usage:
    python3 scripts/cli_pairs.py --parent ../base --change . --runs 5 -- \\
        stats --family su2-pcs --label 4999.5 --coeffs=9.563778069449738e-32 \\
        --amplitude-re 8.41449387484119e+93

Each run starts ``python -m polycs <command>`` in the checkout, with its
``src`` directory first on PYTHONPATH, and times the whole process.  Even
runs start the parent first and odd runs the change first, so drift in the
machine's speed does not favour one side.  The script prints each side's
exit codes and its min and median wall time, and exits 1 if the two sides'
stdout or exit codes differ, else 0.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, command: list[str]) -> tuple[int, str, float]:
    """(exit code, stdout, wall seconds) of one fresh process."""
    src = str(checkout.resolve() / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "polycs", *command],
        cwd=checkout, capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )
    return proc.returncode, proc.stdout, time.perf_counter() - start


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--runs", type=int, required=True)
    parser.add_argument("command", nargs="+", help="the polycs arguments, after --")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error(f"--runs must be positive, got {args.runs}")

    checkout = {"parent": args.parent, "change": args.change}
    runs = {side: [] for side in SIDES}
    for run in range(args.runs):
        for side in SIDES if run % 2 == 0 else SIDES[::-1]:
            runs[side].append(run_once(checkout[side], args.command))
    for side in SIDES:
        codes = [code for code, _, _ in runs[side]]
        walls = [wall for _, _, wall in runs[side]]
        print(
            f"{side}: exit codes {codes}, wall min {min(walls):.3f} s, "
            f"median {statistics.median(walls):.3f} s"
        )
    outcomes = {side: {(code, out) for code, out, _ in runs[side]} for side in SIDES}
    if outcomes["parent"] != outcomes["change"]:
        print("the two sides' stdout or exit codes differ")
        return 1
    print("stdout and exit codes match")
    return 0


if __name__ == "__main__":
    sys.exit(main())
