"""Acceptance suite: a thin runner over the ``polycs verify`` checks.

Every property check and its tolerance lives in ``polycs.verify``; here each
check is one test that prints its pass/fail line.  Run with
``pytest -s tests/test_acceptance.py`` to see the per-check report.
"""

import math
from pathlib import Path

import pytest

from polycs import verify
from polycs.cli import main
from polycs.figures import FIGURE_CATALOG, FigureRequest, render_figure

GOLDEN = Path(__file__).parent / "golden"

# Every check `polycs verify all` must report, in its order; a check deleted
# from verify fails test_verify_all_cli instead of vanishing from the report.
CHECK_NAMES = (
    "algebra/commutator-identity",
    "algebra/casimir-constancy",
    "algebra/root-factorization",
    "algebra/conjugate-reality",
    "algebra/boundary-truncation",
    "algebra/higgs-closed-roots",
    "algebra/unitarity",
    "berry/linear-su2-closed-form",
    "berry/fd-oracle-agreement",
    "states/bgcs-eigen-residual",
    "laplace/gamma-quadrature",
    "laplace/unit-probe",
    "laplace/bridge-identity",
    "stats/normalization-duality",
    "stats/closed-vs-oracle",
    "stats/mandel-identity",
    "stats/distribution-norm",
    "stats/sub-poissonian-signs",
    "stats/super-poissonian-signs",
    "stats/linear-su2-j-independence",
    "stats/metric-flatness",
    "stats/metric-bgcs-decay-law",
    "stats/metric-linear-closed-forms",
)


@pytest.fixture(scope="module")
def results():
    return {res.name: res for res in verify.run_suites(sorted(verify.SUITES))}


def test_verify_all_cli(capsys):
    assert main(["verify", "all"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    assert [line.split()[:2] for line in lines] == [
        ["[PASS]", name] for name in CHECK_NAMES
    ]
    # every reported max_err keeps its bytes; a change that moves one
    # re-records the file and says which line moved and why
    assert out == (GOLDEN / "verify_all.txt").read_text()


@pytest.mark.parametrize("name", CHECK_NAMES)
def test_check(results, name):
    res = results[name]
    print(f"[{'PASS' if res.passed else 'FAIL'}] {name}: {res.max_err:.3e}")
    assert res.passed, f"{name}: {res.max_err:.3e} against {res.threshold:g} {res.note}"


# The paper's acceptance criteria 01-09, each held by the verify checks named.
def assert_criterion(results, *names):
    failed = [name for name in names if not results[name].passed]
    assert not failed, f"failing checks: {failed}"


def test_criterion_01_algebraic_consistency(results):
    assert_criterion(
        results,
        "algebra/commutator-identity",
        "algebra/casimir-constancy",
        "algebra/root-factorization",
    )


def test_criterion_02_higgs_closed_roots(results):
    assert_criterion(results, "algebra/higgs-closed-roots")


def test_criterion_03_normalization_duality(results):
    assert_criterion(results, "stats/normalization-duality")


def test_criterion_04_statistics_duality(results):
    assert_criterion(
        results,
        "stats/closed-vs-oracle",
        "stats/mandel-identity",
        "stats/linear-su2-j-independence",
    )


def test_criterion_05_sign_structure(results):
    assert_criterion(results, "stats/sub-poissonian-signs", "stats/super-poissonian-signs")


def test_criterion_06_metric_asymptotics(results):
    assert_criterion(
        results,
        "stats/metric-flatness",
        "stats/metric-bgcs-decay-law",
        "stats/metric-linear-closed-forms",
    )


def test_criterion_07_bgcs_eigenproperty(results):
    assert_criterion(results, "states/bgcs-eigen-residual")


def test_criterion_08_berry_phase(results):
    assert_criterion(results, "berry/linear-su2-closed-form", "berry/fd-oracle-agreement")


def test_criterion_09_laplace_bridge(results):
    assert_criterion(results, "laplace/bridge-identity", "laplace/unit-probe")


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}")
    assert passed, f"{criterion}: {detail}"


def test_criterion_10_figure_reproduction():
    """Every catalog id emits well-formed CSV; golden byte regression on
    su2-mandel and nsu11-bgcs-mandel at default settings."""
    ok = True
    for fid in FIGURE_CATALOG:
        text = render_figure(FigureRequest(fid))
        lines = text.strip().split("\n")
        header = lines[0].split(",")
        ok = ok and len(lines) > 1 and len(header) >= 2
        for line in lines[1:]:
            cells = line.split(",")
            ok = ok and len(cells) == len(header)
            for cell in cells:
                ok = ok and (cell == "nan" or math.isfinite(float(cell)))
    golden_ok = (
        render_figure(FigureRequest("su2-mandel")).encode()
        == (GOLDEN / "su2-mandel.csv").read_bytes()
        and render_figure(FigureRequest("nsu11-bgcs-mandel")).encode()
        == (GOLDEN / "nsu11-bgcs-mandel.csv").read_bytes()
    )
    report(
        "criterion-10 figure-reproduction",
        ok and golden_ok,
        f"{len(FIGURE_CATALOG)} catalog ids well-formed, golden bytes match",
    )
