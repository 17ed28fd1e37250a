"""The Python floor that pyproject.toml declares (requires-python), guarded
for grammar only: every source and test file parses as that version's
Python. Library APIs newer than the floor are not caught here."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = tuple(map(int, re.search(r'requires-python = ">=(\d+)\.(\d+)"',
                                 (ROOT / "pyproject.toml").read_text()).groups()))
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_file_parses_as_the_declared_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
