"""Executed-line counts of each src/heatode module under pytest: tools/linecov.py -q tests

Every argument goes to pytest.  A sys.settrace collector records each line of
src/heatode/ run on the main thread (not in subprocesses a test starts); the
counts print per module with their total.  Needs no coverage package.
"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = str(SRC / "heatode")
executed: dict[str, set[int]] = {}


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(PACKAGE):
        return None
    lines = executed.setdefault(frame.f_code.co_filename, set())

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace_lines
    return trace_lines


sys.path.insert(0, str(SRC))
sys.settrace(trace)
code = pytest.main(sys.argv[1:])
sys.settrace(None)
for path in sorted(executed):
    print(f"{len(executed[path]):6d}  {Path(path).relative_to(SRC)}")
print(f"{sum(map(len, executed.values())):6d}  total")
sys.exit(code)
