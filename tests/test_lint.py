"""Checks on the library's source text."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "roughmix"


def _raises_assertion_error(node: ast.AST) -> bool:
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_library_has_no_assertions():
    # library code raises the errors.py types or ValueError: an assert
    # vanishes under python -O, and AssertionError is the tests' own signal
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert) or _raises_assertion_error(node):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found
