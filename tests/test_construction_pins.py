"""The bytes of every construction, pinned.

tests/data/constructions.json holds the sha256 of `to_json` for each
framework built by scripts/build_gallery.py (`_gallery()`) and for each
fixture of the benchmark's workloads (bench/workloads.py
`build_fixture`, the 60-joint `icosahedron_hat_stack` included).  A
change to a construction that moves any coordinate by one bit, or
reorders a joint or a bar, fails here.  A deliberate change rewrites the
snapshot from construction_digests().
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
import json
import sys
from pathlib import Path

from isoframe.core import to_json

_ROOT = Path(__file__).resolve().parents[1]
_SNAPSHOT = _ROOT / "tests" / "data" / "constructions.json"


def _load(name: str, path: Path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _digest(f) -> str:
    return hashlib.sha256(to_json(f).encode()).hexdigest()


def construction_digests() -> dict[str, dict[str, str]]:
    """gallery NAME and bench NAME -> sha256 of the framework's JSON text."""
    gallery = _load("build_gallery", _ROOT / "scripts" / "build_gallery.py")._gallery()
    bench = str(_ROOT / "bench")
    sys.path.insert(0, bench)  # workloads imports its siblings by name
    try:
        workloads = importlib.import_module("workloads")
    finally:
        sys.path.remove(bench)
    names = sorted(set(workloads.fixture_names("screen3d")) | set(workloads.fixture_names("batch")))
    return {
        "gallery": {name: _digest(f) for name, f in sorted(gallery.items())},
        "bench": {name: _digest(workloads.build_fixture(name)) for name in names},
    }


def test_constructions_match_snapshot():
    want = json.loads(_SNAPSHOT.read_text())
    got = construction_digests()
    assert (len(want["gallery"]), len(want["bench"])) == (29, 30)
    assert "icosahedron_hat_stack" in want["bench"]
    for part in ("gallery", "bench"):
        assert sorted(got[part]) == sorted(want[part])
        changed = sorted(k for k in want[part] if got[part][k] != want[part][k])
        assert not changed, f"{len(changed)} {part} constructions changed: {changed}"
