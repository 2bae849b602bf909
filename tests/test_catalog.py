"""Built-in shell catalog: every entry builds, validates, and is findable."""

import pytest

from netfold.catalog import CATALOG, builtin, catalog_entry, catalog_names
from netfold.errors import ValidationError
from netfold.shellgraph import build_shell_graph


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_entry_builds_and_matches_counts(entry):
    # building the graph runs every shell check, face planarity included
    graph = build_shell_graph(builtin(entry.name))
    assert graph.n == entry.n_vertices
    assert graph.m == entry.n_edges
    assert len(graph.faces) == entry.n_faces
    assert not graph.boundary_edges
    # Euler characteristic of a closed genus-0 shell.
    assert entry.n_vertices - entry.n_edges + entry.n_faces == 2


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_entry_graph_is_connected(entry):
    graph = build_shell_graph(builtin(entry.name))
    assert graph.n == entry.n_vertices
    assert graph.m == entry.n_edges
    assert graph.is_connected()
    assert not graph.boundary_edges


def test_catalog_has_21_entries():
    assert len(CATALOG) == 21
    assert len(set(e.name for e in CATALOG)) == 21


@pytest.mark.parametrize(
    "alias, canonical",
    [
        ("snub-cube", "snub_cube"),
        ("Snub Cube", "snub_cube"),
        ("OCTAGONAL-PYRAMID", "octagonal_pyramid"),
        ("  cube ", "cube"),
        ("Truncated Icosahedron", "truncated_icosahedron"),
    ],
)
def test_name_normalization(alias, canonical):
    assert catalog_entry(alias).name == canonical
    assert builtin(alias) is builtin(canonical)


def test_unknown_name_lists_catalog():
    with pytest.raises(ValidationError) as exc:
        builtin("hexagonal_prism")
    message = str(exc.value)
    assert "hexagonal_prism" in message
    for name in catalog_names():
        assert name in message


def test_builtin_specs_are_cached_and_deterministic():
    a = builtin("dodecahedron")
    b = builtin("dodecahedron")
    assert a is b
    assert a.faces == b.faces


def test_long_run_flags():
    flagged = {e.name for e in CATALOG if e.long_run}
    assert flagged == {
        "icosidodecahedron",
        "truncated_icosahedron",
        "truncated_dodecahedron",
        "rhombicosidodecahedron",
        "snub_dodecahedron",
        "triakis_icosahedron",
        "pentakis_dodecahedron",
    }


def test_face_cycles_are_canonical():
    for entry in CATALOG:
        spec = builtin(entry.name)
        for face in spec.faces:
            assert face[0] == min(face)
        assert list(spec.faces) == sorted(spec.faces)
