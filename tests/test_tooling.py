"""Source checks that hold for the package as a whole."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "germinv"


def test_no_assert_statements_in_package():
    # python -O strips assert statements, so a check that must hold in
    # production is an explicit raise
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []
