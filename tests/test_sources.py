"""Every Python file of the repository parses under the oldest Python that
pyproject.toml declares, 3.10: a best-effort guard for hosts that run only
a newer one, since ``ast`` checks the grammar but not the library."""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_file_parses_as_python_3_10():
    files = sorted(
        path for top in ("src", "tests", "benchmarks")
        for path in (ROOT / top).rglob("*.py")
    )
    assert len(files) > 20
    for path in files:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))
