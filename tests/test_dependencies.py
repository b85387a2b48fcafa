"""`import polycs` needs numpy and the standard library only."""

import os
import subprocess
import sys
from pathlib import Path

import polycs


def test_import_loads_no_scipy():
    """A fresh interpreter that imports polycs has no scipy* module loaded."""
    src = str(Path(polycs.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    code = (
        "import sys, polycs; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
