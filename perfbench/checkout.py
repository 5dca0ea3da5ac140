"""Locate the checkout the benchmark runs in and import heatode from its source."""

from __future__ import annotations

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"


class MissingSource(RuntimeError):
    """The checkout holds no heatode source to benchmark."""


def use_checkout_source() -> None:
    """Put the checkout's `src/` first on the import path and verify the import.

    An installed heatode elsewhere must never be measured in its place.
    """
    if not (SRC / "heatode" / "__init__.py").is_file():
        raise MissingSource(f"no heatode package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import heatode
    if Path(heatode.__file__).resolve().parent != SRC / "heatode":
        raise MissingSource(f"heatode was imported from {heatode.__file__}, not {SRC}")
