"""tools/long_stream.py at a tiny T: one table row with both commands' wall
time and peak memory, measured on their own child processes, and the sizes
of the artifacts; a T below 1 is a usage error."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "long_stream.py"


def test_long_stream_reports_both_commands():
    done = subprocess.run(
        [sys.executable, str(TOOL), "40"], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    header, rule, row = done.stdout.splitlines()
    assert header.startswith("| T | `run --alg det` | peak RSS | `verify --trace` |")
    assert rule.startswith("|---|")
    cells = [c.strip() for c in row.strip("|").split("|")]
    assert cells[0] == "40"
    assert all(re.fullmatch(r"\d+\.\d\d s", c) for c in (cells[1], cells[3]))
    assert all(re.fullmatch(r"\d+\.\d MB", c) and float(c.split()[0]) > 0
               for c in (cells[2], cells[4]))
    assert all(re.fullmatch(r"\d+\.\d\d MB", c) for c in cells[5:])


def test_long_stream_refuses_a_t_below_one():
    done = subprocess.run(
        [sys.executable, str(TOOL), "0"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 2 and "at least 1" in done.stderr
