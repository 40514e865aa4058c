"""The benchmark's trace targets exist in the library.

``benchmarks/layers.py`` wraps library functions by module attribute, so a
library change that drops or renames one breaks the traced benchmark run.
This guard reads the target list without changing anything.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "benchmarks"


def _layers():
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("layers")
    finally:
        sys.path.remove(str(BENCH))


def test_every_trace_target_is_an_attribute_of_its_owner():
    targets = _layers().targets()
    assert targets
    missing = [
        f"{getattr(t.owner, '__name__', t.owner)}.{t.attr}"
        for t in targets
        if t.attr not in vars(t.owner)
    ]
    assert missing == []
