"""Source hygiene: every name the package, the tests and the tools import is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(path for folder in ("src/heatode", "tests", "tools")
               for path in (ROOT / folder).glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Each name an import binds that no expression reads, with its line.

    `import a.b` binds `a`; a read of `a.b.c` is a read of its root name `a`.
    Imports from __future__ bind nothing.
    """
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def test_unused_imports_finds_only_unread_names():
    source = ("from __future__ import annotations\nimport os.path\nimport json as j\n"
              "from math import pi, tau\nos.path.join(str(pi))\n")
    assert unused_imports(source) == ["j (line 3)", "tau (line 4)"]


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
