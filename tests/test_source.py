"""Checks on the package source itself."""

import ast
import graphlib
import re
import sys
from pathlib import Path

import pytest

import netfold

SOURCES = sorted(Path(netfold.__file__).parent.glob("*.py"))
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _trees():
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path)) for path in SOURCES]


def test_package_has_no_bare_asserts():
    # `python -O` strips assert statements; a check that guards a result must
    # raise ValidationError instead
    found = [
        f"{path.name}:{node.lineno}"
        for path, tree in zip(SOURCES, _trees())
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert len(SOURCES) > 10
    assert found == []


def test_imports_match_declared_dependencies():
    # every import is the standard library, netfold itself or a declared
    # dependency, and every declared dependency is imported somewhere
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    with PYPROJECT.open("rb") as fh:
        declared = {
            re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
            for req in tomllib.load(fh)["project"]["dependencies"]
        }
    imported = set()
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and not node.level:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"netfold"}
    assert third_party <= declared
    assert declared <= third_party


def test_module_imports_form_no_cycle():
    # the module-level relative imports inside the package must order the
    # modules, so no module needs another that is still half imported
    graph = {}
    for path, tree in zip(SOURCES, _trees()):
        needs = graph.setdefault(path.stem, set())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.level:
                if node.module is None:  # from . import io
                    needs.update(alias.name for alias in node.names)
                else:
                    needs.add(node.module.split(".")[0])
    assert "holes" in graph["mlst"]  # the imports were read
    graphlib.TopologicalSorter(graph).prepare()  # raises CycleError on a cycle
