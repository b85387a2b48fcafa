import hashlib
import json
import logging
import math
from pathlib import Path

import pytest

from polycs import algebra, figures, stats
from polycs.algebra import higgs_su11
from polycs.cli import main
from polycs.errors import ConvergenceFailure, DomainError
from polycs.figures import (
    FIGURE_CATALOG,
    FigureRequest,
    figure_rows,
    render_figure,
    write_figure,
)
from polycs.states import CSFamily, cs_from_xbar, family_deformation
from polycs.stats import GridSpec

GOLDEN = Path(__file__).parent / "golden"
CATALOG_SHA256 = Path(__file__).parents[1] / "perfbench" / "catalog_sha256.json"
CURVES = ("mean", "intcorr", "mandel", "metric")


class TestCatalog:
    def test_covers_all_panels(self):
        # 3 families x linear/nonlinear x 5 quantities
        assert len(FIGURE_CATALOG) == 30
        for fid in ("su2-mandel", "nsu2-photdist", "nsu11-bgcs-metric", "su11-pcs-mandel"):
            assert fid in FIGURE_CATALOG

    def test_every_id_renders_wellformed_csv(self):
        for fid, fig in FIGURE_CATALOG.items():
            text = render_figure(FigureRequest(fid))
            lines = text.strip().split("\n")
            header = lines[0].split(",")
            assert header[0] == ("n" if fig.is_distribution else "xbar")
            assert header[1:] == ["label_0.5", "label_1", "label_3", "label_8"]
            assert len(lines) > 1
            for line in lines[1:]:
                cells = line.split(",")
                assert len(cells) == len(header)
                for cell in cells:
                    assert cell == "nan" or math.isfinite(float(cell))

    def test_unknown_id_rejected(self):
        with pytest.raises(DomainError):
            FigureRequest("does-not-exist")

    def test_bad_format_rejected(self):
        with pytest.raises(DomainError):
            FigureRequest("su2-mandel", fmt="xml")


class TestFigureContent:
    def test_golden_su2_mandel(self):
        text = render_figure(FigureRequest("su2-mandel"))
        assert text.encode() == (GOLDEN / "su2-mandel.csv").read_bytes()

    def test_golden_nsu11_bgcs_mandel(self):
        text = render_figure(FigureRequest("nsu11-bgcs-mandel"))
        assert text.encode() == (GOLDEN / "nsu11-bgcs-mandel.csv").read_bytes()

    def test_su2_mandel_j_independent_columns(self):
        _, rows = figure_rows(FigureRequest("su2-mandel"))
        for row in rows:
            assert max(row[1:]) - min(row[1:]) < 1e-10

    def test_distribution_at_zero_is_single_row(self):
        header, rows = figure_rows(FigureRequest("nsu2-photdist", dist_xbar=0.0))
        assert header[0] == "n"
        assert len(rows) == 1
        assert rows[0][0] == 0.0
        assert all(v == 1.0 for v in rows[0][1:])

    def test_su2_distribution_support(self):
        # j = 8 column dominates the row count: support is 2j+1 = 17 rows
        _, rows = figure_rows(FigureRequest("su2-photdist"))
        assert len(rows) == 17
        for row in rows:
            assert all(v >= 0.0 for v in row[1:])

    def test_distribution_columns_sum_to_one(self):
        for fid in ("su2-photdist", "nsu11-bgcs-photdist", "nsu11-pcs-photdist"):
            _, rows = figure_rows(FigureRequest(fid))
            for col in range(1, 5):
                total = sum(row[col] for row in rows)
                assert total == pytest.approx(1.0, abs=1e-9)

    def test_linear_pcs_mandel_positive(self):
        grid = GridSpec(0.0, 0.9, 10, (0.5, 1.0, 3.0, 8.0))
        _, rows = figure_rows(FigureRequest("su11-pcs-mandel", grid=grid))
        for row in rows:
            if row[0] > 0.0:
                assert all(v > 0.0 for v in row[1:])

    def test_linear_pcs_grid_domain_enforced(self):
        grid = GridSpec(0.0, 1.5, 10, (1.0,))
        with pytest.raises(DomainError):
            figure_rows(FigureRequest("su11-pcs-mandel", grid=grid))

    def test_linear_pcs_distribution_ignores_the_grid_range(self):
        # a distribution sits at one xbar (0.5 by default); only the grid's
        # labels reach it, so a range past 1 is no domain error
        grid = GridSpec(0.0, 1.5, 10, (1.0,))
        header, rows = figure_rows(FigureRequest("su11-pcs-photdist", grid=grid))
        assert header == ["n", "label_1"]
        assert sum(row[1] for row in rows) == pytest.approx(1.0, abs=1e-10)

    def test_intcorr_nan_at_origin(self):
        _, rows = figure_rows(FigureRequest("su2-intcorr"))
        assert all(math.isnan(v) for v in rows[0][1:])
        assert all(math.isfinite(v) for v in rows[1][1:])

    def test_deterministic_rendering(self):
        req = FigureRequest("nsu11-pcs-metric")
        assert render_figure(req) == render_figure(req)

    def test_jsonl_format(self):
        req = FigureRequest("su2-mean", fmt="jsonl", grid=GridSpec(0.0, 1.0, 3, (1.0,)))
        lines = render_figure(req).strip().split("\n")
        assert len(lines) == 3
        first = json.loads(lines[0])
        assert first["xbar"] == 0.0
        assert first["label_1"] == 0.0

    def test_jsonl_nan_becomes_null(self):
        req = FigureRequest(
            "su2-intcorr", fmt="jsonl", grid=GridSpec(0.0, 1.0, 2, (1.0,))
        )
        first = json.loads(render_figure(req).strip().split("\n")[0])
        assert first["label_1"] is None


class TestNormTable:
    """The curve figures of one family and deformation share one norm table."""

    @pytest.mark.parametrize("reverse", [False, True], ids=["sorted", "reversed"])
    def test_catalog_bytes_pinned_in_any_order(self, reverse):
        want = json.loads(CATALOG_SHA256.read_text())
        assert sorted(want) == sorted(FIGURE_CATALOG)
        figures._norm_table.cache_clear()
        for fid in sorted(FIGURE_CATALOG, reverse=reverse):
            text = render_figure(FigureRequest(fid))
            assert hashlib.sha256(text.encode()).hexdigest() == want[fid], fid

    @staticmethod
    def _capture_grids(monkeypatch):
        """(grid, result) of every `pfq` call the norm tables make."""
        calls = []
        original = figures.pfq

        def captured(params, *args, **kwargs):
            result = original(params, *args, **kwargs)
            calls.append((params, result))
            return result

        monkeypatch.setattr(figures, "pfq", captured)
        return calls

    def test_one_evaluation_per_state(self, monkeypatch):
        calls, solves = self._capture_grids(monkeypatch), []
        original_roots = algebra.deformation_roots

        def counted_roots(spec):
            solves.append(spec.rep_label)
            return original_roots(spec)

        monkeypatch.setattr(algebra, "deformation_roots", counted_roots)
        figures._norm_table.cache_clear()
        grid = GridSpec(0.0, 2.0, 5, (0.5, 3.0))
        for quantity in CURVES:
            render_figure(FigureRequest(f"nsu11-bgcs-{quantity}", grid=grid))
        # one grid for the table: 5 points x (2 labels x 3 shifts)
        assert [(len(g.args), len(g.numer)) for g, _ in calls] == [(5, 2 * 3)]
        assert solves == [0.5, 3.0]  # one root solve per label per table

    def test_one_debug_record_per_table(self, caplog, monkeypatch):
        calls = self._capture_grids(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="polycs.figures")
        figures._norm_table.cache_clear()
        grid = GridSpec(0.0, 0.9, 4, (0.5, 3.0))
        for quantity in CURVES:
            render_figure(FigureRequest(f"su11-pcs-{quantity}", grid=grid))
        [(_, result)] = calls
        [record] = caplog.records
        assert record.name == "polycs.figures"
        assert record.levelno == logging.DEBUG
        assert record.getMessage() == (
            f"norm table su11-pcs (1.0,): 8 cells, 24 series, "
            f"{result.cell_terms.max()} recurrence steps, {result.terms_used} terms, "
            f"{result.cell_steps} cell-steps"
        )

    def test_cell_steps_cover_every_term(self, caplog, monkeypatch):
        # the default linear su(1,1) PCS table: blocks compute every step a
        # cell takes, plus the steps past a cell's finish inside its last block
        calls = self._capture_grids(monkeypatch)
        caplog.set_level(logging.DEBUG, logger="polycs.figures")
        figures._norm_table.cache_clear()
        render_figure(FigureRequest("su11-pcs-mean"))
        [(_, result)] = calls
        assert result.cell_steps >= result.terms_used - result.cell_terms.size
        [record] = caplog.records
        assert record.getMessage().endswith(f", {result.cell_steps} cell-steps")

    def test_debug_record_silent_by_default(self, caplog):
        figures._norm_table.cache_clear()
        render_figure(FigureRequest("su2-mean", grid=GridSpec(0.0, 1.0, 3, (1.0,))))
        assert caplog.records == []

    @pytest.mark.parametrize(
        "grid",
        [GridSpec(0.0, 3.0, 5, (0.5, 3.0)), GridSpec(0.0, 2.0, 5, (1.0, 8.0))],
        ids=["other-grid", "other-labels"],
    )
    def test_no_stale_table(self, grid):
        first = GridSpec(0.0, 2.0, 5, (0.5, 3.0))
        for quantity in CURVES:
            render_figure(FigureRequest(f"nsu11-bgcs-{quantity}", grid=first))
        requests = {q: FigureRequest(f"nsu11-bgcs-{q}", grid=grid) for q in CURVES}
        cached = {q: figure_rows(req) for q, req in requests.items()}
        figures._norm_table.cache_clear()
        for quantity, req in requests.items():
            assert cached[quantity] == figure_rows(req)
        # and cell by cell against the public per-state statistics
        header, rows = cached["mean"]
        assert header[1:] == [f"label_{v:g}" for v in grid.labels]
        assert [row[0] for row in rows] == list(grid.values())
        for row in rows:
            for label, value in zip(grid.labels, row[1:]):
                spec = cs_from_xbar(CSFamily.SU11_BGCS, higgs_su11(label), row[0])
                assert value == stats.mean_photon(spec)

    @pytest.mark.parametrize("coeffs", [(1.0,), (1.0, 2.0), (0.5, -1.0, 2.0)],
                             ids=["linear", "higgs", "p3"])
    @pytest.mark.parametrize("family", list(CSFamily), ids=lambda f: f.value)
    def test_bits_match_norm_derivatives(self, family, coeffs):
        """The batched table against `norm_derivatives`, state by state."""
        top = 0.9 if family is CSFamily.SU11_PCS and coeffs == (1.0,) else 6.0
        grid = GridSpec(0.0, top, 7, (0.5, 1.0, 2.5, 8.0))
        table = figures._norm_table.__wrapped__(family, coeffs, grid)
        assert [len(row) for row in table] == [4] * 7
        for point, value in enumerate(grid.values()):
            for col, label in enumerate(grid.labels):
                spec = cs_from_xbar(family, family_deformation(family, coeffs, label),
                                    float(value))
                xbar, *norms = table[point][col]
                assert xbar == spec.xbar
                want = [v.hex() for v in stats.norm_derivatives(spec)]
                assert [v.hex() for v in norms] == want

    def test_unsettled_cell_is_named(self):
        # 1F0(1; ; z) = 1/(1-z) needs ~3e5 terms at z = 0.9999; z = 0.5 settles
        grid = GridSpec(0.5, 0.9999, 2, (0.5,))
        with pytest.raises(ConvergenceFailure, match=r"xbar=0\.9999, label=0\.5"):
            figures._norm_table.__wrapped__(CSFamily.SU11_PCS, (1.0,), grid)

    def test_non_finite_cell_is_named(self):
        # (1 + x)^400 at x = 1e4 leaves float range; x = 1 does not
        grid = GridSpec(1.0, 1e4, 2, (1.0, 200.0))
        with pytest.raises(ConvergenceFailure, match=r"not finite at xbar=10000, label=200"):
            figures._norm_table.__wrapped__(CSFamily.SU2_PCS, (1.0,), grid)


class TestWriteFigure:
    def test_write_and_byte_stability(self, tmp_path):
        out = tmp_path / "fig.csv"
        req = FigureRequest("su11-bgcs-mean", output_path=str(out))
        write_figure(req)
        first = out.read_bytes()
        write_figure(req)
        assert out.read_bytes() == first

    def test_default_filename(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_figure(FigureRequest("su2-metric"))
        assert path.name == "su2-metric.csv"
        assert path.exists()


class TestCLI:
    def test_stats_line_output(self, capsys):
        code = main(
            [
                "stats",
                "--family",
                "su2-pcs",
                "--label",
                "1",
                "--amplitude-re",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "mean=1 " in out
        assert "I=0.5" in out
        assert "Q=-0.5" in out
        assert "omega=0.5" in out

    def test_stats_zero_amplitude_undefined_correlation(self, capsys):
        code = main(
            ["stats", "--family", "su2-pcs", "--label", "1", "--amplitude-re", "0"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "I=undefined" in out
        assert "mean=0 " in out

    def test_stats_json(self, capsys):
        code = main(
            [
                "stats",
                "--family",
                "su11-pcs",
                "--label",
                "8",
                "--coeffs",
                "1,2",
                "--p",
                "2",
                "--amplitude-re",
                str(math.sqrt(10.0)),
                "--json",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["xbar"] == pytest.approx(5.0)
        assert payload["mandel_q"] < 0.0

    def test_stats_p2_defaults_to_conventional_cubic(self, capsys):
        code = main(
            [
                "stats",
                "--family",
                "su2-pcs",
                "--p",
                "2",
                "--label",
                "0.5",
                "--amplitude-re",
                str(math.sqrt(0.5)),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        # cubic (1,2) two-level state at x = 1: mean = x/(1+x), I = 0
        assert "mean=0.5 " in out
        assert "I=0 " in out

    def test_stats_p_coeffs_disagreement_exit_2(self, capsys):
        code = main(
            [
                "stats",
                "--family",
                "su2-pcs",
                "--p",
                "3",
                "--coeffs",
                "1,2",
                "--label",
                "1",
                "--amplitude-re",
                "1",
            ]
        )
        assert code == 2

    def test_stats_non_finite_norm_exit_3(self, capsys):
        code = main(
            [
                "stats",
                "--family",
                "su2-pcs",
                "--label",
                "50",
                "--coeffs",
                "1,2",
                "--amplitude-re",
                str(math.sqrt(5.0)),
            ]
        )
        assert code == 3
        assert "ConvergenceFailure" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, line",
        [
            (["--label", "1", "--coeffs=-1,0.5", "--amplitude-re", "1"], "xbar=0.5"),
            (
                [
                    "--label",
                    "0.5",
                    "--coeffs=-0.5,1",
                    "--amplitude-re",
                    "0.0001",
                    "--amplitude-im",
                    "-2",
                ],
                "xbar=4.00000001",
            ),
        ],
        ids=["j1", "j-half"],
    )
    def test_stats_ground_state_tower(self, capsys, argv, line):
        # psi_1 = 0: the state is |0>, with the xbar = 0 rules for N' = 0
        code = main(["stats", "--family", "su2-pcs", *argv])
        assert code == 0
        assert capsys.readouterr().out == f"{line} mean=0 I=undefined Q=0 omega=0\n"

    def test_stats_zero_noncompact_element_exit_3(self, capsys):
        argv = ["--label", "0.5", "--coeffs=-1,2", "--amplitude-re", "200"]
        code = main(["stats", "--family", "su11-pcs", *argv])
        assert code == 3
        assert "error: DivergentSeries: " in capsys.readouterr().err

    def test_stats_zero_element_at_a_double_root_exit_3(self, capsys):
        # phi_1 = 0 although the solve puts the double root 2e-8 off n = 1
        argv = ["--label", "1", "--coeffs=0.4,-0.4,0.1", "--amplitude-re", "0.5"]
        code = main(["stats", "--family", "su11-bgcs", *argv])
        assert code == 3
        assert capsys.readouterr().err == (
            "error: DivergentSeries: squared ladder element at index 1 is 0, "
            "a pole of the norm series\n"
        )

    def test_stats_non_unitary_exit_2(self, capsys):
        argv = ["--label", "1.5", "--coeffs=-3,0.25", "--amplitude-re", "0.5"]
        code = main(["stats", "--family", "su11-bgcs", *argv])
        assert code == 2
        assert "error: UnitarityViolation: " in capsys.readouterr().err

    def test_stats_running_norm_overflow_exit_3(self, capsys):
        # |c_1| = 1.3e154 / sqrt(phi_1 = 0.5), about 1.8e154: its square leaves float range
        argv = ["--label", "0.25", "--amplitude-re", "1.3e154"]
        code = main(["stats", "--family", "su11-bgcs", *argv])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: ConvergenceFailure: running norm") and err.count("\n") == 1

    def test_stats_non_finite_ladder_element_exit_2(self, capsys):
        # phi_1 = g(k) - g(k - 1) is inf - inf at k = 1e100
        argv = ["--label", "1e100", "--coeffs=-1,1", "--amplitude-re", "1"]
        code = main(["stats", "--family", "su11-bgcs", *argv])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: DomainError: squared ladder element at index 1 is nan\n"

    def test_stats_domain_violation_exit_2(self, capsys):
        code = main(
            ["stats", "--family", "su11-pcs", "--label", "1", "--amplitude-re", "1.2"]
        )
        assert code == 2

    def test_figure_writes_file(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["figure", "su2-mandel", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_figure_bad_id_exit_2(self, capsys):
        assert main(["figure", "not-a-figure"]) == 2
        assert main(["figure", "not-a-figure", "--grid", "0:1:5"]) == 2

    def test_figure_bad_grid_exit_2(self, capsys):
        code = main(["figure", "su11-pcs-mandel", "--grid", "0:2:10"])
        assert code == 2

    def test_figure_distribution_with_a_wide_grid(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        code = main(["figure", "su11-pcs-photdist", "--grid", "0:2:10", "--out", str(out)])
        assert code == 0
        assert out.read_text() == render_figure(FigureRequest("su11-pcs-photdist"))

    @pytest.mark.parametrize(
        "argv",
        [
            ["su2-photdist", "--nmax", "-1"],
            ["su2-photdist", "--nmax", "-2"],
            ["su2-photdist", "--xbar", "nan"],
            ["su2-photdist", "--xbar", "inf"],
            ["su2-mean", "--grid", "0:nan:5"],
            ["su2-mean", "--grid", "0:inf:5"],
            ["su2-mean", "--grid", "0:1:100000000000"],
            ["su2-mean", "--labels", "nan"],
            ["su11-bgcs-mean", "--labels", "inf"],
            ["su11-bgcs-photdist", "--eps", "nan"],
            ["su11-bgcs-photdist", "--nmax", "1000000000000"],
            ["su2-photdist", "--labels", "1e12"],
            ["su2-photdist", "--labels", "5000"],
            ["su2-mean", "--labels", "5000"],
            ["su2-mean", "--eps", "nan"],
            ["su2-mean", "--eps", "inf"],
            ["su2-mean", "--eps=-5"],
        ],
        ids=[
            "nmax-1",
            "nmax-2",
            "xbar-nan",
            "xbar-inf",
            "grid-nan",
            "grid-inf",
            "grid-points-huge",
            "labels-nan",
            "bgcs-labels-inf",
            "bgcs-eps-nan",
            "bgcs-nmax-huge",
            "su2-tower-huge",
            "su2-tower-over-cap",
            "curve-su2-tower-over-cap",
            "curve-eps-nan",
            "curve-eps-inf",
            "curve-eps-negative",
        ],
    )
    def test_figure_bad_input_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "f.csv"
        code = main(["figure", *argv, "--out", str(out)])
        assert code == 2
        assert "error: DomainError: " in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv",
        [
            ["--json", "--nmax", "-2"],
            ["--nmax", "-1"],
            ["--amplitude-re", "nan"],
            ["--amplitude-re", "1e200"],
            ["--amplitude-im", "inf"],
            ["--label", "nan"],
            ["--coeffs", "nan,2"],
            ["--family", "su11-bgcs", "--coeffs", "nan,2"],
            ["--family", "su11-bgcs", "--label", "inf"],
            ["--family", "su11-bgcs", "--eps", "nan"],
            ["--family", "su11-bgcs", "--eps", "inf"],
            ["--family", "su11-bgcs", "--eps=-1e-12"],
            ["--label", "1e12"],
            ["--label", "1e7"],
            ["--family", "su11-bgcs", "--json", "--nmax", "1000000000000"],
        ],
        ids=[
            "json-nmax-2",
            "nmax-1",
            "re-nan",
            "re-overflows",
            "im-inf",
            "label-nan",
            "coeffs-nan",
            "bgcs-coeffs-nan",
            "bgcs-label-inf",
            "bgcs-eps-nan",
            "bgcs-eps-inf",
            "bgcs-eps-negative",
            "su2-tower-huge",
            "su2-tower-long",
            "bgcs-json-nmax-huge",
        ],
    )
    def test_stats_bad_input_exit_2(self, capsys, argv):
        base = ["stats", "--family", "su2-pcs", "--label", "1", "--amplitude-re", "1"]
        code = main(base + argv)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "error: DomainError: " in captured.err

    def test_figure_list(self, capsys):
        code = main(["figure", "--list"])
        out = capsys.readouterr().out.strip().split("\n")
        assert code == 0
        assert len(out) == 30
        assert "su2-mandel" in out

    def test_figure_custom_grid_and_labels(self, tmp_path, capsys):
        out = tmp_path / "g.csv"
        code = main(
            [
                "figure",
                "su2-mean",
                "--grid",
                "0:2:5",
                "--labels",
                "1,3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "xbar,label_1,label_3"
        assert len(lines) == 6

    def test_verify_corrupted_spec_exit_1(self, capsys):
        code = main(["verify", "algebra", "--coeffs", "1,-1", "--label", "1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "UnitarityViolation" in out
        # the reported error is the size of the negative element psi_1 = -2
        assert "[FAIL] algebra/unitarity max_err=2.000e+00 (tol 0)" in out

    def test_bad_flags_exit_2(self, capsys):
        assert main(["stats", "--family", "nope", "--label", "1"]) == 2

    def test_jsonl_via_cli(self, tmp_path, capsys):
        out = tmp_path / "rec.jsonl"
        code = main(
            ["figure", "su11-bgcs-mandel", "--format", "jsonl", "--out", str(out)]
        )
        assert code == 0
        line = out.read_text().strip().split("\n")[0]
        assert json.loads(line)["xbar"] == 0.0
