"""Checks on the package source itself."""

import argparse
import ast
import graphlib
import re
import sys
from pathlib import Path

import pytest

import netfold
from netfold.cli import _COMMANDS, build_parser

README = Path(__file__).resolve().parents[1] / "README.md"
SOURCES = sorted(Path(netfold.__file__).parent.glob("*.py"))
CLI = Path(netfold.__file__).parent / "cli.py"
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


def _calls_by_scope(tree, callee):
    """The dotted scope (class and function names) of every call to `callee`."""

    def is_call(node):
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == callee

    return _scopes_of(tree, is_call)


def _scopes_of(tree, wanted):
    """The dotted scope (class and function names) of every node for which
    `wanted(node)` holds."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if wanted(child):
                found.append(".".join(scope))
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, scope + (child.name,) if inner else scope)

    visit(tree, ())
    return found


def test_geometry_holds_one_pair_screen():
    # the crossing and parity tests are written once, in `_screen_pairs`,
    # which a block of nets and a lone net both go through: no other code
    # in geometry.py forms a crossing's determinant or folds a ray's
    # crossings by exclusive or
    (tree,) = [tree for path, tree in zip(SOURCES, _trees()) if path.name == "geometry.py"]
    found = _scopes_of(tree, lambda node: isinstance(node, ast.Attribute) and node.attr == "logical_xor"
                       or isinstance(node, ast.Name) and node.id == "denom")
    assert len(found) >= 3  # the determinant, its two uses and the parity fold were read
    assert set(found) == {"_screen_pairs"}


def test_only_the_builders_construct_shell_graphs():
    # a graph made from a shell must pass every shell check, so only
    # build_shell_graph, which runs them, and from_edges, which makes a bare
    # graph without faces, may call the constructor
    found = sorted(
        f"{path.stem}.{scope}"
        for path, tree in zip(SOURCES, _trees())
        for scope in _calls_by_scope(tree, "ShellGraph")
    )
    assert found == ["shellgraph.ShellGraph.from_edges", "shellgraph.build_shell_graph"]


def test_only_symmetry_applies_the_group():
    # `AutomorphismGroup` owns its action (`edge_perms`, `orbit`) and
    # `symmetry` alone forms groups, the cut group among them; no other
    # module reads a group's perms or builds a group of its own
    found = []
    for path, tree in zip(SOURCES, _trees()):
        uses = [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr == "perms"]
        uses += [f"{path.stem}.{scope}" for scope in _calls_by_scope(tree, "AutomorphismGroup")]
        if path.stem == "symmetry":
            assert uses  # the source was read
        else:
            found += uses
    assert found == []


def test_only_shellgraph_converts_sets_and_words():
    # sets become uint64 words and back only in `shellgraph.set_words` and
    # `word_sets`, so the word layout is written down once; no other module
    # turns an int into bytes or bytes into an int
    found = []
    for path, tree in zip(SOURCES, _trees()):
        uses = [f"{path.stem}:{node.lineno}" for node in ast.walk(tree)
                if isinstance(node, ast.Attribute) and node.attr in ("to_bytes", "from_bytes")]
        if path.stem == "shellgraph":
            assert uses  # the source was read
        else:
            found += uses
    assert found == []


def test_mlst_has_no_recursive_function():
    # the search expands blocks from an explicit stack, so its depth is not
    # bounded by Python's recursion limit; no function of mlst.py may call
    # itself
    (tree,) = [tree for path, tree in zip(SOURCES, _trees()) if path.name == "mlst.py"]
    functions = [node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]
    assert "_search" in {f.name for f in functions}  # the module was read
    recursive = [
        f.name for f in functions
        for node in ast.walk(f)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == f.name
    ]
    assert recursive == []


# flags the README gives to other tools: pip, and perfbench/run.py
OTHER_TOOLS_FLAGS = {
    "--no-build-isolation",  # pip install
    "--workload", "--seed", "--seconds", "--trace",  # perfbench/run.py
}


def test_readme_flags_exist():
    # every flag the README names is an option of the netfold CLI or of one
    # of the other tools it shows
    options = set()
    parsers = [build_parser()]
    while parsers:
        parser = parsers.pop()
        for action in parser._actions:
            options.update(action.option_strings)
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
    named = set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", README.read_text(encoding="utf-8")))
    assert {"--budget-nodes", "--hole", "--trace"} <= named  # the README was read
    assert sorted(named - options - OTHER_TOOLS_FLAGS) == []


# options no command reads, kept because perfbench/workloads.py passes them
UNREAD_OPTIONS = {"workers"}


def test_every_subcommand_option_is_read():
    # a subcommand's option must reach its cmd_* function, which reads it as
    # `args.<dest>` itself or in a cli.py helper it calls
    functions = {
        node.name: node
        for node in ast.parse(CLI.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }

    def reads(name, seen):
        if name in seen or name not in functions:
            return set()
        seen.add(name)
        found = set()
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args":
                found.add(node.attr)
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                found |= reads(node.func.id, seen)
        return found

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    assert set(sub.choices) == set(_COMMANDS)
    unread = {}
    for command, parser in sub.choices.items():
        options = {a.dest for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)}
        read = reads(_COMMANDS[command].__name__, set())
        assert "budget_nodes" in read  # the helpers were followed
        unread[command] = sorted(options - read - UNREAD_OPTIONS)
    assert unread == dict.fromkeys(_COMMANDS, [])
