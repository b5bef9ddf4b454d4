"""Source-level checks on the package."""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "codesync"


def test_no_bare_asserts_in_package():
    """``python -O`` strips ``assert``; invariants must raise InternalInvariantError."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"bare asserts: {found}"
