"""The summary of scripts/bench_pairs.py on canned result lines."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "op_p99_norm_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1},
]


def canned(workload, pair, side, p99, rss, failed=39):
    result = {
        "correct": True,
        "attempted": 864,
        "failed": failed,
        "metrics": {
            "op_p99_norm_ms": {"value": p99, "unit": "ms"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        },
    }
    # the line as the script prints it, read back as a driver would
    line = "run " + json.dumps({"workload": workload, "pair": pair, "side": side, "result": result})
    return json.loads(line.removeprefix("run "))


def test_medians_quartiles_ratio_and_wins():
    parent = [2.0, 1.9, 2.1, 2.0, 1.8]
    change = [1.2, 1.1, 1.3, 2.2, 1.0]
    runs = []
    for pair, (old, new) in enumerate(zip(parent, change)):
        runs.append(canned("state-sweep", pair, "parent", old, 40.0))
        runs.append(canned("state-sweep", pair, "change", new, 40.0))
    lines = bench_pairs.summarize(runs, METRICS)
    assert lines[0] == "state-sweep: 5 pairs"
    assert lines[1] == "  parent: failed [(39, 864)], correct True"
    assert lines[2] == "  change: failed [(39, 864)], correct True"
    # parent 1.8 1.9 2.0 2.0 2.1: median 2, quartiles 1.9 and 2; change median 1.2
    assert lines[3] == (
        "  op_p99_norm_ms (ms, lower is better): parent 2 [1.9, 2]  change 1.2 [1.1, 1.3]  "
        "ratio 0.600 of the parent's 2  won 4/5 (ties 0)"
    )
    assert lines[4] == (
        "  peak_rss_mb (MB, lower is better): parent 40 [40, 40]  change 40 [40, 40]  "
        "ratio 1.000 of the parent's 40  won 0/5 (ties 5)"
    )


def test_gain_needs_nine_tenths_of_pairs_and_a_gap_past_the_spread():
    runs = []
    for pair in range(10):
        runs.append(canned("catalog", pair, "parent", 2.0 + 0.01 * pair, 40.0))
        runs.append(canned("catalog", pair, "change", 1.0 if pair else 3.0, 40.0))
    p99 = bench_pairs.summarize(runs, METRICS)[3]
    assert p99.endswith("won 9/10 (ties 0)  gain")
    runs[3]["result"]["metrics"]["op_p99_norm_ms"]["value"] = 3.0  # pair 1 lost too
    assert bench_pairs.summarize(runs, METRICS)[3].endswith("won 8/10 (ties 0)")


def test_worse_needs_nine_tenths_of_pairs_lost_and_a_gap_past_the_spread():
    runs = []
    for pair in range(10):
        runs.append(canned("geometry", pair, "parent", 2.0 + 0.01 * pair, 40.0))
        runs.append(canned("geometry", pair, "change", 3.0 if pair else 1.0, 40.0))
    p99 = bench_pairs.summarize(runs, METRICS)[3]
    assert p99.endswith("won 1/10 (ties 0)  worse")
    runs[3]["result"]["metrics"]["op_p99_norm_ms"]["value"] = 1.0  # pair 1 won too
    assert bench_pairs.summarize(runs, METRICS)[3].endswith("won 2/10 (ties 0)")
    # every pair lost, but by less than the parent's spread: no mark
    runs = []
    for pair in range(10):
        runs.append(canned("geometry", pair, "parent", 2.0 + 0.1 * pair, 40.0))
        runs.append(canned("geometry", pair, "change", 2.05 + 0.1 * pair, 40.0))
    assert bench_pairs.summarize(runs, METRICS)[3].endswith("won 0/10 (ties 0)")
    # a tie is not a loss
    runs = []
    for pair in range(10):
        runs.append(canned("geometry", pair, "parent", 2.0, 40.0 + 0.01 * pair))
        runs.append(canned("geometry", pair, "change", 2.0 if pair < 2 else 3.0, 40.0))
    assert bench_pairs.summarize(runs, METRICS)[3].endswith("won 0/10 (ties 2)")


def test_unpaired_runs_are_left_out():
    runs = [
        canned("geometry", 0, "parent", 0.4, 40.0),
        canned("geometry", 0, "change", 0.3, 40.0),
        canned("geometry", 1, "parent", 0.5, 40.0),
    ]
    lines = bench_pairs.summarize(runs, METRICS)
    assert lines[0] == "geometry: 1 pairs"
    assert "won 1/1" in lines[3]


def stub_checkout(root, first_run_fails):
    """A checkout whose perfbench/run.py prints one canned result line, or, on
    its first run only when asked, exits 1 with a message on stderr."""
    (root / "perfbench").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 1, "end_to_end": METRICS}))
    result = canned("geometry", 0, "parent", 0.3, 40.0)["result"]
    (root / "perfbench" / "run.py").write_text(
        "import pathlib, sys\n"
        f"if {first_run_fails} and not pathlib.Path('ran').exists():\n"
        "    pathlib.Path('ran').touch()\n"
        "    sys.exit('worker died: out of memory')\n"
        f"print({json.dumps(result)!r})\n"
    )
    return root


def test_a_failed_run_is_reported_and_the_session_carries_on(tmp_path, monkeypatch, capsys):
    parent = stub_checkout(tmp_path / "parent", False)
    change = stub_checkout(tmp_path / "change", True)
    monkeypatch.setattr(
        "sys.argv",
        ["bench_pairs.py", "--parent", str(parent), "--change", str(change),
         "--workload", "geometry", "--seed", "1", "--pairs", "2"],
    )
    assert bench_pairs.main() == 0
    out = capsys.readouterr().out.splitlines()
    [failed] = [line for line in out if line.startswith("failed ")]
    assert json.loads(failed.removeprefix("failed ")) == {
        "workload": "geometry", "pair": 0, "side": "change",
        "result": {"exit": 1, "stderr": "worker died: out of memory"},
    }
    assert sum(line.startswith("run ") for line in out) == 3
    summary = out[out.index("seed 1, 1 s per run") + 1 :]
    assert summary[:3] == [
        "geometry: 1 pairs",
        "  parent: failed [(39, 864)], correct True",
        "  change: failed [(39, 864)], correct True, 1 runs exited nonzero",
    ]
    assert "won 0/1 (ties 1)" in summary[3]


def test_no_complete_pair_gives_no_metric_lines():
    runs = [canned("catalog", 0, "parent", 0.4, 40.0)]
    runs.append({"workload": "catalog", "pair": 0, "side": "change", "result": {"exit": 1, "stderr": ""}})
    assert bench_pairs.summarize(runs, METRICS) == [
        "catalog: 0 pairs",
        "  parent: failed [], correct True",
        "  change: failed [], correct True, 1 runs exited nonzero",
    ]
