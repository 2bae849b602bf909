import numpy as np
import pytest

from netfold.catalog import builtin
from netfold.cli import main
from netfold.errors import ValidationError
from netfold.holes import (
    boundary_edge_ids,
    check_hole_cut,
    enumerate_hole_cuts,
    hole_spec,
    remove_faces,
)
from netfold.mlst import enumerate_interiors, enumerate_mlsts
from netfold.shellgraph import build_shell_graph, cut_leaves
from netfold.symmetry import dedupe_cuts, edge_set_stabilizer, find_automorphisms


def brute_force_hole_cuts(graph, boundary):
    """Oracle: test every edge subset of size V containing the boundary."""
    from itertools import combinations

    best = -1
    cuts = []
    others = [e for e in range(graph.m) if e not in set(boundary)]
    need = graph.n - len(boundary)
    for extra in combinations(others, need):
        cut = tuple(sorted(boundary + tuple(extra)))
        try:
            check_hole_cut(graph, cut, boundary)
        except (ValidationError, AssertionError):
            continue
        leaves = len(cut_leaves(graph, cut))
        if leaves > best:
            best, cuts = leaves, [cut]
        elif leaves == best:
            cuts.append(cut)
    return best, sorted(cuts)


def test_remove_faces_reindexes_and_names():
    open_cube = remove_faces(builtin("cube"), [0])
    assert open_cube.name == "cube-open1"
    assert open_cube.n_faces == 5
    hole = hole_spec(open_cube)
    assert len(hole.boundary_vertices) == 4
    assert len(hole.boundary_edges) == 4


def test_remove_all_faces_rejected():
    with pytest.raises(ValidationError):
        remove_faces(builtin("cube"), range(6))


def test_removed_patch_must_be_edge_connected():
    # two opposite faces of the cube leave two separate holes
    with pytest.raises(ValidationError):
        remove_faces(builtin("cube"), [0, 5])


def test_open_cube_has_one_optimal_cut():
    open_cube = remove_faces(builtin("cube"), [0])
    g = build_shell_graph(open_cube, require_closed=False)
    result = enumerate_hole_cuts(g)
    assert result.leaf_count == 4
    assert result.labeled_count == 1
    boundary = boundary_edge_ids(g)
    assert brute_force_hole_cuts(g, boundary) == (4, list(result.cut_tuples()))


def test_open_cube_cut_is_boundary_plus_verticals():
    open_cube = remove_faces(builtin("cube"), [0])
    g = build_shell_graph(open_cube, require_closed=False)
    result = enumerate_hole_cuts(g)
    (cut,) = list(result.cut_tuples())
    assert len(cut) == g.n
    assert set(boundary_edge_ids(g)) <= set(cut)
    # no hole-boundary vertex may be a leaf
    hole_vertices = {v for e in boundary_edge_ids(g) for v in g.edges[e]}
    assert not (set(cut_leaves(g, cut)) & hole_vertices)


def test_wheel_with_rim_hole():
    # pyramid shell minus its base: cuts are the rim plus one spoke
    pyramid = builtin("octagonal_pyramid")
    base = max(range(pyramid.n_faces), key=lambda f: len(pyramid.faces[f]))
    open_pyr = remove_faces(pyramid, [base])
    g = build_shell_graph(open_pyr, require_closed=False)
    result = enumerate_hole_cuts(g)
    assert result.leaf_count == 1
    assert result.labeled_count == 8
    boundary = boundary_edge_ids(g)
    assert brute_force_hole_cuts(g, boundary)[1] == sorted(result.cut_tuples())


def test_nine_face_cap_hole_counts():
    spec = builtin("rhombicuboctahedron")
    cap = [f for f in range(spec.n_faces)
           if all(spec.vertices[v][2] > 0.9 for v in spec.faces[f])]
    assert len(cap) == 9
    open_spec = remove_faces(spec, cap)
    g = build_shell_graph(open_spec, require_closed=False)
    result = enumerate_hole_cuts(g)
    assert result.leaf_count == 9
    assert result.labeled_count == 720
    group = find_automorphisms(g)
    stabilizer = edge_set_stabilizer(g, group, boundary_edge_ids(g))
    classes = dedupe_cuts(g, result.cuts, stabilizer)
    assert len(classes) == 90


def test_hole_cut_checker_rejects_bad_cuts():
    open_cube = remove_faces(builtin("cube"), [0])
    g = build_shell_graph(open_cube, require_closed=False)
    boundary = boundary_edge_ids(g)
    (good,) = list(enumerate_hole_cuts(g).cut_tuples())
    # drop a required boundary edge
    bad = tuple(sorted((set(good) - {boundary[0]}) | {next(
        e for e in range(g.m) if e not in good)}))
    with pytest.raises((ValidationError, AssertionError)):
        check_hole_cut(g, bad, boundary)
    # wrong size
    with pytest.raises((ValidationError, AssertionError)):
        check_hole_cut(g, good[:-1], boundary)
    # repeated edge
    with pytest.raises((ValidationError, AssertionError)):
        check_hole_cut(g, good[:-1] + (good[0],), boundary)


# The kernel's popcount multiplies past 2**63 and relies on int64 wrapping,
# which numpy scalars report when the kernel runs uncompiled.
@pytest.mark.filterwarnings("ignore:overflow encountered in scalar multiply:RuntimeWarning")
def test_backend_parity_on_hole_search(kernel_backend):
    spec = builtin("rhombicuboctahedron")
    cap = [f for f in range(spec.n_faces)
           if all(spec.vertices[v][2] > 0.9 for v in spec.faces[f])]
    g = build_shell_graph(remove_faces(spec, cap), require_closed=False)
    py = enumerate_hole_cuts(g, backend="python")
    nb = enumerate_hole_cuts(g, backend=kernel_backend)
    assert (py.backend, nb.backend) == ("python", "numba")
    assert np.array_equal(py.cuts, nb.cuts)
    assert py.nodes_visited == nb.nodes_visited
    py_int = enumerate_interiors(g, backend="python")
    nb_int = enumerate_interiors(g, backend=kernel_backend)
    assert py_int.interiors == nb_int.interiors
    assert py_int.level_reports == nb_int.level_reports


@pytest.mark.parametrize("name,hole", [
    ("cube", [0]), ("cube", [0, 1]), ("octahedron", [0]), ("dodecahedron", [0]),
    ("truncated_cube", [0]),
])
def test_open_graph_mlsts_are_its_hole_cuts(name, hole):
    g = build_shell_graph(remove_faces(builtin(name), hole), require_closed=False)
    assert np.array_equal(enumerate_mlsts(g).cuts, enumerate_hole_cuts(g).cuts)


def test_hole_cut_search_needs_a_boundary(shell_graph):
    with pytest.raises(ValidationError):
        enumerate_hole_cuts(shell_graph("cube"))


def test_count_open_shell_prints_product_and_burnside_counts(capsys):
    rc = main(["count", "--builtin", "truncated_cube", "--hole", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "labeled optimal cuts: 3280\n" in out
    assert "optimal net classes: 420\n" in out
