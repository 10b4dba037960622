"""A fresh run of tools/artifact_grid.py writes exactly the files and bytes
that tests/golden/artifact_grid.sha256 records, and its log breaks none of
``log_problems``'s exit-code rules.  A change that alters an artifact on
purpose rewrites the manifest with ``--manifest``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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
    done = subprocess.run(
        [sys.executable, str(TOOL), str(out)], capture_output=True, text=True, timeout=300
    )
    assert artifact_grid.log_problems((out / "log.txt").read_text()) == []
    assert done.returncode == 0, done.stdout + done.stderr
    expected = _digests(artifact_grid.MANIFEST.read_text())
    written = _digests(artifact_grid.manifest(out))
    differ = sorted(n for n in expected.keys() | written.keys() if expected.get(n) != written.get(n))
    assert not differ, f"files missing, added or changed against the manifest: {differ}"


DET_RUN = "$ blockcache run --instance r8.json --alg det -o r8.det"
OPT_RUN = "$ blockcache run --instance r32log.json --alg opt --model evict -o r32log.opt-evict"
DEFECT_VERIFY = (
    "$ blockcache verify --instance r32log.json --capacity 16"
    " --trace r32log.frac-round.trace.jsonl"
)


def _log(*commands: tuple[str, str]) -> str:
    return "".join(f"{cmd}\n{body}" for cmd, body in commands)


@pytest.mark.parametrize(
    "cmd, body, problem",
    [
        # an opt run may exit 1, but not by raising
        (OPT_RUN, "Traceback (most recent call last):\n  ...\nValueError\nexit 1\n",
         f"{OPT_RUN}: raised an exception"),
        (OPT_RUN, "usage: blockcache\nexit 2\n", f"{OPT_RUN}: exit 2"),
        (DEFECT_VERIFY, "exit 2\n", f"{DEFECT_VERIFY}: exit 2"),
        (DET_RUN, "det: cost=5 pass=False\nexit 1\n", f"{DET_RUN}: exit 1"),
        *(
            (cmd, "FAIL: trace invalid\nexit 1\n", f"{cmd}: exit 1")
            for cmd in (
                "$ blockcache verify --instance r8.json --capacity 4"
                " --trace r8.frac-round.trace.jsonl",
                "$ blockcache verify --instance r32log.json --capacity 16"
                " --trace r32log.det.trace.jsonl",
                "$ blockcache verify --instance r32log.json"
                " --increments r32log.frac-round.increments.jsonl",
                DEFECT_VERIFY + ".bak",
                DEFECT_VERIFY.replace("r32log.frac", "xr32log.frac"),
            )
        ),
    ],
    ids=[
        "traceback", "opt-exit-2", "defect-verify-exit-2", "det-run-exit-1",
        "other-frac-round-trace", "other-r32log-trace", "r32log-increments",
        "defect-name-suffixed", "defect-name-prefixed",
    ],
)
def test_log_problems_names_each_planted_fault(cmd, body, problem):
    # around the fault, the commands that may exit 1 do
    log = _log(
        (DET_RUN, "exit 0\n"), (OPT_RUN, "exit 1\n"), (cmd, body), (DEFECT_VERIFY, "exit 1\n")
    )
    assert artifact_grid.log_problems(log) == [problem]
