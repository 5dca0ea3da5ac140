"""One sha256 per command-line output, to show that a change keeps every output's bytes.

    python3 tools/output_digest.py [--seeds 0-11] > digests.txt

Runs each command in this process through heatode.cli.main and prints one
line per command: the sha256 of its stdout with the `"timestamp"` line
dropped, its exit code and the command.  The commands are `verify <suite>`
for every suite and `verify all`, as text and with --json, at each seed of
--seeds (a range A-B or one seed), then every command of tests/test_golden.py's
CASES, read from that file's source.  Standard library only.

To compare two commits, run it in a `git worktree` of each and diff the
two outputs; equal lines are outputs that kept their bytes.
"""

import argparse
import ast
import contextlib
import hashlib
import io
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.dont_write_bytecode = True

from heatode import cli  # noqa: E402


def golden_cases() -> dict[str, list[str]]:
    """The CASES table of tests/test_golden.py, evaluated from its source without pytest."""
    path = ROOT / "tests" / "test_golden.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    node = next(stmt for stmt in tree.body if isinstance(stmt, ast.Assign)
                and [getattr(target, "id", None) for target in stmt.targets] == ["CASES"])
    return eval(compile(ast.Expression(node.value), str(path), "eval"), {})


def seed_range(text: str) -> range:
    first, _, last = text.partition("-")
    return range(int(first), int(last or first) + 1)


def digest(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    kept = "".join(line for line in out.getvalue().splitlines(keepends=True)
                   if not line.lstrip().startswith('"timestamp": '))
    return f"{hashlib.sha256(kept.encode()).hexdigest()} {code} {shlex.join(argv)}"


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-11"),
                        help="the seeds of the verify commands, A-B or one seed (default 0-11)")
    args = parser.parse_args(argv)
    commands = [["verify", suite, "--seed", str(seed), *form]
                for seed in args.seeds for suite in [*cli.SUITES, "all"] for form in ([], ["--json"])]
    for command in [*commands, *golden_cases().values()]:
        print(digest(command), flush=True)


if __name__ == "__main__":
    main()
