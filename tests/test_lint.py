"""Source lint: the package states its invariants with explicit raises.

A bare `assert` vanishes under `python -O`, so an invariant written that
way stops being checked exactly when nobody is watching.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "twistver"


def test_no_assert_statements_in_the_package():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/twistver: {found}"
