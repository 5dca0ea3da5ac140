"""Executed-line counts of each src/heatode module under pytest: tools/linecov.py -q tests

Every argument goes to pytest.  A sys.settrace collector records each line of
src/heatode/ run on the main thread (not in subprocesses a test starts); the
counts print per module with their total.  Then each module's lines inside
functions and class bodies (read from the code objects' co_lines()) that never
ran print as ranges, a range spanning the lines with no code between them.
Needs no coverage package.
"""

import sys
import types
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = str(SRC / "heatode")
executed: dict[str, set[int]] = {}
entered: dict[str, set[int]] = {}  # a code object's first line reports a call, not a line


def trace(frame, event, arg):
    if not frame.f_code.co_filename.startswith(PACKAGE):
        return None
    entered.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
    lines = executed.setdefault(frame.f_code.co_filename, set())

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace_lines
    return trace_lines


def nested_lines(code: types.CodeType):
    """Every line of the code objects inside `code`: functions, class bodies, comprehensions."""
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from (line for _, _, line in const.co_lines() if line is not None)
            yield from nested_lines(const)


def never_run(path: Path) -> str:
    """The unexecuted nested lines of one module as ranges, e.g. "131-154, 337"."""
    lines = sorted(set(nested_lines(compile(path.read_text(), str(path), "exec"))))
    ran = executed.get(str(path), set()) | entered.get(str(path), set())
    spans: list[list[int]] = []  # [first line, last line, position of the last in `lines`]
    for i, line in enumerate(lines):
        if line in ran:
            continue
        if spans and spans[-1][2] == i - 1:
            spans[-1][1:] = [line, i]
        else:
            spans.append([line, line, i])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b, _ in spans)


sys.path.insert(0, str(SRC))
sys.settrace(trace)
code = pytest.main(sys.argv[1:])
sys.settrace(None)
for path in sorted(executed):
    print(f"{len(executed[path]):6d}  {Path(path).relative_to(SRC)}")
print(f"{sum(map(len, executed.values())):6d}  total")
print("never run inside functions:")
for path in sorted(Path(PACKAGE).glob("*.py")):
    print(f"  {path.relative_to(SRC)}: {never_run(path) or '-'}")
sys.exit(code)
