"""tools/long_stream.py at a tiny T: one table row with both commands' wall
time and peak memory, measured on their own child processes, and the sizes
of the artifacts; a T below 1 is a usage error.  And det's peak memory, read
the tool's way, grows with T by less than a bound per step."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "long_stream.py"
# `run --alg det`'s peak RSS grows about 135 bytes per step from T = 3,000 to
# 24,000 (the request times and the ledger's masses; 2-core VM, Python
# 3.11).  A stored row per request in the request index made it 213, and the
# certificate built as one document before it is written 265, so this bound
# catches either with room for the few bytes per step that runs differ by
DET_RSS_BYTES_PER_STEP = 180


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


def test_det_memory_grows_less_than_the_bound_per_step():
    # the tool runs as its own process: a child's peak RSS as os.wait4
    # reports it is at least that of the process that started it
    done = subprocess.run(
        [sys.executable, str(TOOL), "3000", "24000"], capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    rows = [[c.strip() for c in row.strip("|").split("|")] for row in done.stdout.splitlines()[2:]]
    peak = {int(cells[0].replace(",", "")): float(cells[2].split()[0]) for cells in rows}
    per_step = (peak[24000] - peak[3000]) * 2**20 / (24000 - 3000)
    assert per_step < DET_RSS_BYTES_PER_STEP, f"{per_step:.0f} bytes per step, {peak}"
