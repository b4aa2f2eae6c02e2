"""The package promises exact integer arithmetic; this guards it at the source level."""

import ast
from pathlib import Path

import locarray

SOURCES = sorted(Path(locarray.__file__).parent.glob("*.py"))


def float_uses(tree):
    """(line, what) for every construct that brings floating point in."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division /"
        elif isinstance(node, ast.Name) and node.id == "float":
            yield node.lineno, "the name float"
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("log")
              and isinstance(node.value, ast.Name) and node.value.id == "math"):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name.startswith("log"):
                    yield node.lineno, f"from math import {alias.name}"


def test_sources_found():
    names = {path.name for path in SOURCES}
    assert {"__init__.py", "combinatorics.py", "spread_types.py", "baranyai.py"} <= names


def test_package_uses_no_floating_point():
    found = [
        f"{path.name}:{line}: {what}"
        for path in SOURCES
        for line, what in float_uses(ast.parse(path.read_text(), filename=str(path)))
    ]
    assert found == []
