"""A fresh run of tools/artifact_grid.py writes exactly the files and bytes
that tests/golden/artifact_grid.sha256 records.  A change that alters an
artifact on purpose rewrites the manifest with ``--manifest``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "artifact_grid.py"
spec = importlib.util.spec_from_file_location("artifact_grid", TOOL)
artifact_grid = importlib.util.module_from_spec(spec)
spec.loader.exec_module(artifact_grid)


def _digests(manifest: str) -> dict[str, str]:
    return {
        name: digest
        for digest, name in (line.split("  ", 1) for line in manifest.splitlines())
    }


def test_artifact_grid_matches_the_manifest(tmp_path):
    out = tmp_path / "grid"
    subprocess.run(
        [sys.executable, str(TOOL), str(out), "--src", str(ROOT / "src")],
        check=True, timeout=300,
    )
    expected = _digests(artifact_grid.MANIFEST.read_text())
    written = _digests(artifact_grid.manifest(out))
    differ = sorted(n for n in expected.keys() | written.keys() if expected.get(n) != written.get(n))
    assert not differ, f"files missing, added or changed against the manifest: {differ}"
