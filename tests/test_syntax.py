"""Every source and test file parses as the oldest Python the package supports.

pyproject.toml declares `requires-python >=3.10`.  Checked under a newer
interpreter, syntax that 3.10 lacks, such as `except*`, would otherwise
go unnoticed until a 3.10 run.  The check is only the parser's: a library
function that 3.10 lacks is not caught.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))


def test_pyproject_declares_the_checked_version():
    assert 'requires-python = ">=3.10"' in (ROOT / "pyproject.toml").read_text(encoding="utf-8")


@pytest.mark.parametrize("path", FILES, ids=lambda path: str(path.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
