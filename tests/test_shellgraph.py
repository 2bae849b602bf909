import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netfold.catalog import builtin
from netfold.errors import BudgetExceededError, ValidationError
from netfold.polyhedra import edge_face_table
from netfold.shellgraph import (
    ShellGraph,
    build_shell_graph,
    count_spanning_trees,
    cut_leaves,
    enumerate_spanning_trees,
    is_spanning_tree,
)


def complete_graph(n):
    return ShellGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def test_cube_graph_shape(shell_graph):
    g = shell_graph("cube")
    assert g.n == 8 and g.m == 12
    assert all(g.degree(v) == 3 for v in range(8))
    assert g.edges == tuple(sorted(g.edges))


def test_face_graph_of_cube():
    # every shell edge links two of the six faces, in canonical edge order
    spec = builtin("cube")
    table = edge_face_table(spec)
    assert sorted(table) == list(build_shell_graph(spec).edges)
    assert {f for faces in table.values() for f in faces} == set(range(6))
    assert all(len(faces) == 2 for faces in table.values())


def test_open_shell_needs_flag():
    from netfold.holes import remove_faces

    open_cube = remove_faces(builtin("cube"), [0])
    with pytest.raises(ValidationError):
        build_shell_graph(open_cube)
    g = build_shell_graph(open_cube, require_closed=False)
    assert len(g.boundary_edges) == 4


def test_k4_has_16_spanning_trees():
    g = complete_graph(4)
    assert count_spanning_trees(g) == 16
    trees = enumerate_spanning_trees(g)
    assert len(trees) == 16
    assert all(is_spanning_tree(g, t) for t in trees)


def test_cayley_formula_small():
    for n in range(2, 7):
        assert count_spanning_trees(complete_graph(n)) == n ** (n - 2)


def test_catalog_tree_counts():
    # published spanning-tree counts for these solids
    expected = {
        "tetrahedron": 16,
        "cube": 384,
        "octahedron": 384,
        "icosahedron": 5_184_000,
        "dodecahedron": 5_184_000,
    }
    for name, count in expected.items():
        assert count_spanning_trees(build_shell_graph(builtin(name))) == count


def test_enumeration_matches_determinant_on_catalog(shell_graph):
    for name in ("tetrahedron", "cube", "octahedron", "octagonal_pyramid"):
        g = shell_graph(name)
        trees = enumerate_spanning_trees(g)
        assert len(trees) == count_spanning_trees(g)
        assert len(set(trees)) == len(trees)


def test_enumeration_cap_raises_with_partial():
    g = shell_graph_cube = build_shell_graph(builtin("cube"))
    with pytest.raises(BudgetExceededError) as exc:
        enumerate_spanning_trees(g, cap=10)
    assert len(exc.value.partial) == 10


def test_disconnected_graph_rejected():
    g = ShellGraph.from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(ValidationError):
        enumerate_spanning_trees(g)
    assert count_spanning_trees(g) == 0


def test_cut_leaves_on_path():
    g = ShellGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    path = [g.edge_index[e] for e in [(0, 1), (1, 2), (2, 3)]]
    assert cut_leaves(g, path) == (0, 3)
    assert is_spanning_tree(g, path)
    assert not is_spanning_tree(g, path[:2])


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    # random spanning tree first, then extra edges: always connected
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    extra = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
        max_size=5,
    ))
    edges |= extra
    return ShellGraph.from_edges(n, sorted(edges))


@settings(max_examples=60)
@given(connected_graphs())
def test_determinant_equals_enumeration(g):
    trees = enumerate_spanning_trees(g)
    assert count_spanning_trees(g) == len(trees)
    assert all(is_spanning_tree(g, t) for t in trees)
