"""Fail when the Tier-1 suite leaves a line of src/thermolab unexecuted.

    PYTHONPATH=src python tools/line_gate.py

Installs a line tracer (``sys.settrace`` and ``threading.settrace``) before
thermolab is imported, runs the Tier-1 suite (``pytest -q
--continue-on-collection-errors`` from the repository root, with src on the
path) in this process, then lists ``file:line source`` for every line that
the package's compiled code objects can execute (their ``co_lines()``) and
that no test ran. Code that tests run in a subprocess is not seen.

Exits with pytest's status when the suite fails, 1 when a line was missed,
0 otherwise. Standard library and pytest only; it takes no options.
"""

from __future__ import annotations

import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "thermolab"
PREFIX = str(PACKAGE) + os.sep

executed: dict[str, set[int]] = {}


def _trace(frame, event, arg):
    """Global tracer: line-trace frames of package code, ignore the rest."""
    path = frame.f_code.co_filename
    if not path.startswith(PREFIX):
        return None
    hits = executed.setdefault(path, set())
    hits.add(frame.f_lineno)

    def local(frame, event, arg):
        hits.add(frame.f_lineno)
        return local

    return local


def executable_lines(path: Path) -> set[int]:
    """Line numbers of the instructions of a module and all code it defines."""
    todo = [compile(path.read_text(), str(path), "exec")]
    lines = set()
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def main() -> int:
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    # the Tier-1 command's PYTHONPATH, for the suite's subprocesses
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    threading.settrace(_trace)
    sys.settrace(_trace)
    try:
        import pytest

        status = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        hits = executed.get(str(path), set())
        for line in sorted(executable_lines(path) - hits):
            missed.append(f"{path.relative_to(ROOT)}:{line} {source[line - 1].strip()}")
    for entry in missed:
        print(entry)
    print(f"line gate: {len(missed)} unexecuted line(s) in {PACKAGE.relative_to(ROOT)}")
    if status != 0:
        return int(status)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
