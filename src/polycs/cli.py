"""Command-line front end.

    polycs figure FIGURE_ID [--out PATH] [--format csv|jsonl] ...
    polycs stats  --family F --label L --amplitude-re X [...]
    polycs verify SUITE [--coeffs C] [--label L]

Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 convergence failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import algebra, stats, verify
from .errors import (
    ConvergenceFailure,
    DivergentSeries,
    DomainError,
    PolycsError,
    QuadratureFailure,
    RootSolveFailure,
)
from .states import CSFamily, CSSpec, family_deformation

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3

_CONVERGENCE_ERRORS = (
    ConvergenceFailure,
    RootSolveFailure,
    QuadratureFailure,
    DivergentSeries,
)


def _parse_floats(text: str, what: str) -> tuple[float, ...]:
    """Comma-separated floats; `what` names the list in the error message."""
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError as exc:
        raise DomainError(f"cannot parse {what} list {text!r}") from exc


def _parse_grid(text: str) -> tuple[float, float, int]:
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"grid must be min:max:n, got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise DomainError(f"cannot parse grid {text!r}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycs",
        description=(
            "Coherent states of polynomially deformed su(2)/su(1,1): "
            "photon statistics, metric factor, Berry connection."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig = sub.add_parser("figure", help="emit one catalog figure as a data table")
    fig.add_argument("figure_id", nargs="?", help="catalog figure id")
    fig.add_argument("--list", action="store_true", help="list catalog ids and exit")
    fig.add_argument("--out", help="output path (default: <figure-id>.<ext>)")
    fig.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    fig.add_argument("--grid", help="xbar grid as min:max:n")
    fig.add_argument("--labels", help="comma-separated representation labels")
    fig.add_argument(
        "--xbar", type=float, help="fixed xbar for distribution figures (default 1)"
    )
    fig.add_argument("--nmax", type=int, help="largest tower index for distributions")
    fig.add_argument("--eps", type=float, default=1e-12)

    st = sub.add_parser("stats", help="print the statistics record of one state")
    st.add_argument(
        "--family",
        required=True,
        choices=[f.value for f in CSFamily],
    )
    st.add_argument(
        "--p", type=int, default=None, help="deformation order (degree 2p-1)"
    )
    st.add_argument("--coeffs", default=None, help="comma-separated coefficients")
    st.add_argument("--label", type=float, required=True, help="j or k")
    st.add_argument("--amplitude-re", type=float, default=0.0)
    st.add_argument("--amplitude-im", type=float, default=0.0)
    st.add_argument("--eps", type=float, default=1e-12)
    st.add_argument("--json", action="store_true", help="emit a JSON object")
    st.add_argument("--nmax", type=int, help="photon distribution length in JSON mode")

    ver = sub.add_parser("verify", help="run the self-verification suites")
    ver.add_argument("suite", choices=sorted(verify.SUITES) + ["all"])
    ver.add_argument(
        "--coeffs", help="extra deformation coefficients to validate (both kinds)"
    )
    ver.add_argument("--label", type=float, default=1.0, help="label for --coeffs")
    return parser


def _cmd_figure(args: argparse.Namespace) -> int:
    from . import figures  # the catalog and its grid evaluator load for figures only

    if args.list:
        for figure_id in sorted(figures.FIGURE_CATALOG):
            print(figure_id)
        return EXIT_OK
    if not args.figure_id:
        raise DomainError("missing figure id (or --list)")
    request = figures.FigureRequest(
        figure_id=args.figure_id,
        output_path=args.out,
        fmt=args.format,
        dist_xbar=args.xbar,
        n_max=args.nmax,
        eps=args.eps,
    )
    if args.grid is not None or args.labels is not None:
        grid = figures.FIGURE_CATALOG[args.figure_id].default_grid()
        if args.grid is not None:
            lo, hi, n = _parse_grid(args.grid)
            grid = replace(grid, xbar_min=lo, xbar_max=hi, points=n)
        if args.labels is not None:
            grid = replace(grid, labels=_parse_floats(args.labels, "label"))
        request = replace(request, grid=grid)
    path = figures.write_figure(request)
    print(path)
    return EXIT_OK


def _build_cs(args: argparse.Namespace) -> CSSpec:
    family = CSFamily(args.family)
    if args.coeffs:
        coeffs = _parse_floats(args.coeffs, "coefficient")
        if args.p is not None and args.p != len(coeffs):
            raise DomainError(
                f"--p {args.p} disagrees with {len(coeffs)} coefficients"
            )
    else:
        # conventional defaults: linear (1,), cubic and higher (1, .., 1, 2)
        p = args.p if args.p is not None else 1
        if p < 1:
            raise DomainError(f"--p must be positive, got {p}")
        coeffs = (1.0,) if p == 1 else (1.0,) * (p - 1) + (2.0,)
    deformation = family_deformation(family, coeffs, args.label)
    return CSSpec(family, deformation, complex(args.amplitude_re, args.amplitude_im))


def _cmd_stats(args: argparse.Namespace) -> int:
    spec = _build_cs(args)
    record = stats.stat_record(spec, n_max=args.nmax, eps=args.eps)
    if args.json:
        payload = {
            "xbar": record.xbar,
            "mean": record.mean_n,
            "intensity_correlation": (
                None if math.isnan(record.intensity_corr) else record.intensity_corr
            ),
            "mandel_q": record.mandel_q,
            "metric": record.metric,
            "photon_dist": list(record.photon_dist),
        }
        print(json.dumps(payload))
        return EXIT_OK
    corr = (
        "undefined"
        if math.isnan(record.intensity_corr)
        else format(record.intensity_corr, ".12g")
    )
    print(
        f"xbar={record.xbar:.12g} mean={record.mean_n:.12g} I={corr} "
        f"Q={record.mandel_q:.12g} omega={record.metric:.12g}"
    )
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    names = sorted(verify.SUITES) if args.suite == "all" else [args.suite]
    extra = None
    if args.coeffs:
        coeffs = _parse_floats(args.coeffs, "coefficient")
        extra = [
            algebra.su2_spec(coeffs, args.label),
            algebra.su11_spec(coeffs, args.label),
        ]
    results = verify.run_suites(names, extra_specs=extra)
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        line = f"[{status}] {res.name} max_err={res.max_err:.3e} (tol {res.threshold:g})"
        if res.note:
            line += f" {res.note}"
        print(line)
        all_passed = all_passed and res.passed
    return EXIT_OK if all_passed else EXIT_VERIFY_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "stats":
            return _cmd_stats(args)
        return _cmd_verify(args)
    except PolycsError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if isinstance(exc, _CONVERGENCE_ERRORS):
            return EXIT_NO_CONVERGENCE
        return EXIT_BAD_INPUT


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
