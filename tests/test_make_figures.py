"""End-to-end smoke test of scripts/make_figures.py."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import polycs

ROOT = Path(__file__).parents[1]
CATALOG_SHA256 = ROOT / "perfbench" / "catalog_sha256.json"


def test_script_writes_the_pinned_catalog(tmp_path):
    """The script, run as a user runs it, writes all 30 CSVs with the
    catalog's pinned sha256 values."""
    src = str(Path(polycs.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "make_figures.py"), "--outdir", str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        check=True,
    )
    want = json.loads(CATALOG_SHA256.read_text())
    written = {p.name for p in tmp_path.iterdir()}
    assert written == {f"{fid}.csv" for fid in want}
    for fid, digest in want.items():
        assert hashlib.sha256((tmp_path / f"{fid}.csv").read_bytes()).hexdigest() == digest, fid
