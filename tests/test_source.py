"""Checks on the package source itself."""

import ast
from pathlib import Path

import psymtest

PACKAGE = Path(psymtest.__file__).parent


def test_no_assert_statements_in_the_package():
    # invariants must be real checks: `python -O` strips assert statements
    found = []
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"assert statements in the package: {found}"
