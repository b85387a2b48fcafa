"""`import polycs` needs numpy and the standard library only."""

import os
import subprocess
import sys
from pathlib import Path

import polycs


def test_import_loads_no_scipy():
    """A fresh interpreter that imports polycs has no scipy* module loaded,
    nor the figure catalog and its grid evaluator, which stay lazy so that
    the import stays cheap."""
    src = str(Path(polycs.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, polycs; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy'))); "
        "print(sorted(m for m in sys.modules if m in ('polycs.figures', 'polycs.gridseries')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    scipy_modules, lazy_modules = out.stdout.splitlines()
    assert scipy_modules == "[]"
    assert lazy_modules == "[]"


def test_stats_command_loads_no_figure_catalog():
    """`polycs stats` prints one state's record without importing the figure
    catalog or its grid evaluator."""
    src = str(Path(polycs.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys; from polycs import cli; "
        "code = cli.main(['stats', '--family', 'su11-bgcs', '--label', '1', '--amplitude-re', '0.5']); "
        "print(code, sorted(m for m in sys.modules if m in ('polycs.figures', 'polycs.gridseries')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "0 []"
