"""Checks on the package source itself."""

import ast
from pathlib import Path

import netfold

SOURCES = sorted(Path(netfold.__file__).parent.glob("*.py"))


def test_package_has_no_bare_asserts():
    # `python -O` strips assert statements; a check that guards a result must
    # raise ValidationError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 10
    assert found == []
