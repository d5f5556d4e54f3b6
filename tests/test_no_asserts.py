"""No check under src/borelpoints lives in an assert statement.

`python -O` strips assert statements, so a check written as one would
silently stop checking.  Checks raise instead.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "borelpoints"


def assert_statements(source: str) -> list[int]:
    """The line numbers of the assert statements in source."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_finder_sees_asserts():
    source = "def f(x):\n    if x:\n        assert x > 0, 'positive'\n    return x\n"
    assert assert_statements(source) == [3]
    assert assert_statements("x = 'assert y'\n") == []


def test_no_assert_statement_in_the_library():
    paths = sorted(SRC.glob("*.py"))
    assert paths
    found = {
        path.name: lines
        for path in paths
        if (lines := assert_statements(path.read_text()))
    }
    assert found == {}
