#!/usr/bin/env python3
"""Emit every catalog figure as CSV into an output directory.

Usage:
    python scripts/make_figures.py [--outdir figures] [--format csv|jsonl]

All figures render in this one process, so the four curve figures of each
family and deformation share one evaluation of (N, N', N'') per state.
"""

import argparse
import sys
import time
from pathlib import Path

from polycs.figures import FIGURE_CATALOG, FigureRequest, write_figure


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figures")
    parser.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    ext = args.format
    start = time.perf_counter()
    for figure_id in sorted(FIGURE_CATALOG):
        request = FigureRequest(
            figure_id,
            output_path=str(outdir / f"{figure_id}.{ext}"),
            fmt=args.format,
        )
        path = write_figure(request)
        print(f"wrote {path}")
    elapsed = time.perf_counter() - start
    print(f"{len(FIGURE_CATALOG)} figures in {elapsed:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
