"""The gallery's --json reports, pinned.

scripts/build_gallery.py writes each of its frameworks as JSON, and the
`analyze`, `check --sufficient` and `detect` reports of each.
tests/data/gallery_reports.json holds the sha256 of each framework's JSON
text and of each report's stdout with its exit code, so that a change
that alters any byte of either fails here.  A deliberate change
bumps `report_version` and rewrites the snapshot from gallery_reports().
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
from pathlib import Path

from isoframe.cli import main
from isoframe.core import to_json

_ROOT = Path(__file__).resolve().parents[1]
_SNAPSHOT = _ROOT / "tests" / "data" / "gallery_reports.json"


def _build_gallery():
    spec = importlib.util.spec_from_file_location(
        "build_gallery", _ROOT / "scripts" / "build_gallery.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def gallery_reports(out_dir: Path) -> dict[str, dict[str, object]]:
    """Write each gallery framework into out_dir and run every report
    command on it in process from there, as build_gallery does in a child
    interpreter: NAME.COMMAND -> exit code and sha256 of stdout, and
    NAME.json -> sha256 of the framework's JSON text."""
    build = _build_gallery()
    digests: dict[str, dict[str, object]] = {}
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        for name, f in sorted(build._gallery().items()):
            text = to_json(f)
            Path(f"{name}.json").write_text(text)
            digests[f"{name}.json"] = {"sha256": hashlib.sha256(text.encode()).hexdigest()}
            for command, args in build.REPORTS.items():
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main([*args, f"{name}.json", "--json"])
                digests[f"{name}.{command}"] = {
                    "exit": code,
                    "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest(),
                }
    finally:
        os.chdir(cwd)
    return digests


def test_gallery_reports_match_snapshot(tmp_path):
    want = json.loads(_SNAPSHOT.read_text())
    got = gallery_reports(tmp_path)
    assert len(want) == 116
    assert sorted(got) == sorted(want)
    changed = sorted(key for key in want if got[key] != want[key])
    assert not changed, f"{len(changed)} gallery reports changed: {changed}"
