"""scripts/cli_pairs.py on stub checkouts, whose polycs echoes and exits."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).parents[1]
_spec = importlib.util.spec_from_file_location("cli_pairs", ROOT / "scripts" / "cli_pairs.py")
cli_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_pairs)


def stub(root, name, text, code):
    """A checkout whose `python -m polycs` logs its name, prints text and the
    arguments, and exits with code."""
    package = root / name / "src" / "polycs"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(
        "import sys\n"
        "from pathlib import Path\n"
        f"with open(Path.cwd().parent / 'order.log', 'a') as log:\n"
        f"    log.write({name!r} + '\\n')\n"
        f"print({text!r}, *sys.argv[1:])\n"
        f"sys.exit({code})\n"
    )
    return root / name


def pairs(tmp_path, change_text, change_code, capsys):
    parent = stub(tmp_path, "parent", "P(n)", 3)
    change = stub(tmp_path, "change", change_text, change_code)
    argv = ["--parent", str(parent), "--change", str(change), "--runs", "2", "--", "stats", "-x"]
    code = cli_pairs.main(argv)
    return code, capsys.readouterr().out.splitlines()


def test_matching_sides_alternate_and_exit_0(tmp_path, capsys):
    code, lines = pairs(tmp_path, "P(n)", 3, capsys)
    assert code == 0
    assert lines[0].startswith("parent: exit codes [3, 3], wall min ")
    assert lines[1].startswith("change: exit codes [3, 3], wall min ")
    assert lines[2] == "stdout and exit codes match"
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent"]


def test_differing_stdout_exits_1(tmp_path, capsys):
    code, lines = pairs(tmp_path, "Q(n)", 3, capsys)
    assert code == 1
    assert lines[-1] == "the two sides' stdout or exit codes differ"


def test_differing_exit_codes_exit_1(tmp_path, capsys):
    code, lines = pairs(tmp_path, "P(n)", 0, capsys)
    assert code == 1
    assert lines[1].startswith("change: exit codes [0, 0], wall min ")
