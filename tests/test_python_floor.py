"""Every source file parses under the oldest Python that pyproject.toml
declares (requires-python >= 3.10), whatever interpreter runs the tests."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FLOOR = (3, 10)
SOURCES = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_parses_at_the_declared_python_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
