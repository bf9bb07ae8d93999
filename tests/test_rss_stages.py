"""tools/rss_stages.py runs a benchmark pass and prints its stage rows.

The tool imports ``bench/child.py``'s ``SpeedProbe`` and ``bench/workloads.py``,
so it is run here in a subprocess, as a user runs it, against this tree.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "rss_stages.py"


def _run(tmp_path, *args):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, str(TOOL), *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


def test_pressure_dense_prints_every_stage(tmp_path):
    done = _run(tmp_path, "--workload", "pressure-dense", "--seed", "1")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# thermolab from ") and "workload pressure-dense, seed 1" in lines[0]
    assert lines[1].split() == ["stage", "maxrss", "arena", "hblkhd", "uordblks", "fordblks"]
    stages = [line[:26].rstrip() for line in lines[2:]]
    assert stages == ["import", "first probe", "after pressure-dense", "exit probe"]
    for line in lines[2:]:
        cells = line[26:].split()
        assert len(cells) == 5 and float(cells[0]) > 0.0
    assert list(tmp_path.iterdir()) == []


def test_unknown_workload_exits_2(tmp_path):
    done = _run(tmp_path, "--workload", "no-such-workload")
    assert done.returncode == 2
    assert "unknown workload 'no-such-workload'" in done.stderr
    assert done.stdout == ""
