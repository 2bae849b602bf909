import json
import warnings

import numpy as np
import pytest

from netfold.catalog import builtin
from netfold.cli import EXIT_USAGE, main
from netfold.errors import MissingGeometryError, NonManifoldError, ValidationError
from netfold.io import save_polyhedron
from netfold.polyhedra import (
    PolyhedronSpec,
    canon_edge,
    edge_face_table,
)
from netfold.shellgraph import build_shell_graph

TETRA_FACES = ((0, 1, 2), (0, 2, 3), (0, 3, 1), (1, 3, 2))


def test_canon_edge_orders_endpoints():
    assert canon_edge(3, 1) == (1, 3)
    assert canon_edge(1, 3) == (1, 3)


def test_faces_only_spec_supports_combinatorics():
    spec = PolyhedronSpec(name="t", faces=TETRA_FACES)
    assert spec.n_vertices == 4
    assert spec.edge_list() == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert not spec.has_geometry
    with pytest.raises(MissingGeometryError):
        spec.require_geometry()


def test_closed_tetrahedron_graph():
    graph = build_shell_graph(builtin("tetrahedron"))
    assert not graph.boundary_edges
    assert (graph.n, graph.m, len(graph.faces)) == (4, 6, 4)


def test_edge_face_table_pairs_every_edge_twice_on_closed_shell():
    spec = builtin("cube")
    table = edge_face_table(spec)
    assert len(table) == 12
    assert all(len(faces) == 2 for faces in table.values())


def test_open_shell_graph_has_its_boundary():
    graph = build_shell_graph(PolyhedronSpec(name="t-open", faces=TETRA_FACES[:3]))
    assert graph.n - graph.m + len(graph.faces) == 1
    assert [graph.edges[e] for e in graph.boundary_edges] == [(1, 2), (1, 3), (2, 3)]


def test_face_index_out_of_range_rejected():
    with pytest.raises(ValidationError, match="^bad: face index 5 out of range for 4 vertices$"):
        PolyhedronSpec(name="bad", faces=((0, 1, 5),), vertices=np.zeros((4, 3)))


def test_negative_face_index_rejected():
    with pytest.raises(ValidationError, match="^bad: face index -1 is negative$"):
        PolyhedronSpec(name="bad", faces=TETRA_FACES[:3] + ((1, 3, -1),))


def test_faces_only_spec_has_a_vertex_per_index():
    assert PolyhedronSpec(name="t", faces=((0, 1, 5),)).n_vertices == 6


def test_empty_faces_rejected():
    with pytest.raises(ValidationError):
        PolyhedronSpec(name="bad", faces=())


def test_vertices_shape_enforced():
    with pytest.raises(ValidationError, match="shape"):
        PolyhedronSpec(name="bad", faces=TETRA_FACES, vertices=np.zeros((4, 2)))


def test_edge_in_three_faces_is_non_manifold():
    faces = ((0, 1, 2), (0, 1, 3), (0, 1, 4), (1, 2, 3), (2, 3, 4), (0, 2, 4), (1, 3, 4), (0, 3, 4))
    with pytest.raises(NonManifoldError):
        build_shell_graph(PolyhedronSpec(name="book", faces=faces[:3]))


def test_repeated_vertex_in_face_rejected():
    with pytest.raises(ValidationError):
        build_shell_graph(PolyhedronSpec(name="bad", faces=((0, 1, 1),)))


def test_nonplanar_face_rejected():
    vertices = np.array([
        [0.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
        [1.0, 1.0, 0.4],
        [0.0, 1.0, 0.0],
        [0.5, 0.5, -1.0],
    ])
    faces = ((0, 3, 2, 1), (0, 1, 4), (1, 2, 4), (2, 3, 4), (3, 0, 4))
    with pytest.raises(ValidationError, match="planar"):
        build_shell_graph(PolyhedronSpec(name="bent", faces=faces, vertices=vertices))


def _bad_shells():
    cube = builtin("cube")
    bent = cube.vertices.copy()
    bent[0] *= 1.2
    other = {0: 0, 3: 3, 1: 8, 2: 9, 4: 10, 5: 11, 6: 12, 7: 13}
    torus = tuple(
        (3 * i + j, 3 * ((i + 1) % 3) + j, 3 * ((i + 1) % 3) + (j + 1) % 3, 3 * i + (j + 1) % 3)
        for i in range(3) for j in range(3)
    )
    return {
        "torus": (torus, None, "Euler characteristic 0 != 2 (V=9, E=18, F=9, holes=0)"),
        "repeat": (TETRA_FACES[:3] + ((1, 3, 2, 2),), None, "face 3 repeats a vertex"),
        "bent": (cube.faces, bent, "face planarity residual 2.406e-02 exceeds 1e-09"),
        "apart": (TETRA_FACES + tuple(tuple(v + 4 for v in f) for f in TETRA_FACES), None,
                  "shell graph is disconnected"),
        # two whole cubes sharing vertices 0 and 3
        "pinched": (cube.faces + tuple(tuple(other[v] for v in f) for f in cube.faces), None,
                    "the faces around vertex 0 do not close into one fan"),
    }


@pytest.mark.parametrize("name", ["torus", "repeat", "bent", "apart", "pinched"])
def test_building_the_graph_runs_every_shell_check(tmp_path, capsys, name):
    # each of these shells once built a graph that the search answered on,
    # or that failed only deep in the search or the symmetry group
    faces, vertices, message = _bad_shells()[name]
    spec = PolyhedronSpec(name=name, faces=faces, vertices=vertices)
    with pytest.raises(ValidationError) as exc:
        build_shell_graph(spec)
    assert str(exc.value) == f"{name}: {message}"
    path = tmp_path / f"{name}.json"
    save_polyhedron(spec, path)
    assert main(["count", "--input", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {name}: {message}\n")


@pytest.mark.parametrize("command", ["count", "rank"])
@pytest.mark.parametrize("literal", ["1e400", "NaN", "-Infinity"])
def test_a_non_finite_coordinate_is_rejected_first(tmp_path, capsys, command, literal):
    # JSON reads 1e400 as infinity and accepts NaN; an infinite coordinate
    # once passed every check, so `count` answered and `rank` failed later on
    # a hinge "changing length", with a numpy warning
    tetra = builtin("tetrahedron")
    rows = tetra.vertices.tolist()
    rows[3][2] = "z"
    text = json.dumps({"name": "tet", "faces": [list(f) for f in tetra.faces], "vertices": rows})
    text = text.replace('"z"', literal)
    path = tmp_path / "tet.json"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([command, "--input", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: tet: vertex 3 has a non-finite coordinate\n")
    vertices = tetra.vertices.copy()
    vertices[3, 2] = float(literal)
    with pytest.raises(ValidationError, match="^tet: vertex 3 has a non-finite coordinate$"):
        build_shell_graph(PolyhedronSpec(name="tet", faces=tetra.faces, vertices=vertices))
