import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netfold import shellgraph
from netfold.catalog import builtin
from netfold.errors import BudgetExceededError, ValidationError
from netfold.holes import remove_faces
from netfold.polyhedra import PolyhedronSpec, edge_face_table
from netfold.shellgraph import (
    ShellGraph,
    build_shell_graph,
    count_interior_trees,
    count_merged_trees,
    count_spanning_trees,
    cut_leaves,
    enumerate_spanning_trees,
    is_spanning_tree,
    merged_spanning_trees,
    set_words,
    word_sets,
)


def complete_graph(n):
    return ShellGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_word_sets_inverts_set_words(n):
    full = (1 << n) - 1
    masks = [0, full, 1, 1 << (n - 1), full // 3, full ^ (full // 5)]
    rows = set_words(masks, n)
    assert rows.dtype == np.uint64 and rows.shape == (len(masks), -(-n // 64))
    assert word_sets(rows) == masks
    # bit b is bit b % 64 of word b // 64, lowest word first
    for b in range(n):
        (row,) = set_words([1 << b], n).tolist()
        assert row == [1 << (b % 64) if w == b // 64 else 0 for w in range(len(row))]


@pytest.mark.parametrize("n", [1, 63, 64, 65, 130])
def test_set_words_rejects_a_set_outside_its_bits(n):
    for mask in (-1, 1 << n, ((1 << n) - 1) | (1 << (n + 7))):
        with pytest.raises(ValidationError, match=f"is not a set of bits below {n}$"):
            set_words([0, mask], n)


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


def test_open_shell_boundary_is_its_hole():
    open_cube = remove_faces(builtin("cube"), [0])
    g = build_shell_graph(open_cube)
    assert [g.edges[e] for e in g.boundary_edges] == [(0, 1), (0, 2), (1, 3), (2, 3)]
    assert g.boundary_mask == 0b1111


def test_shell_with_two_holes_is_rejected():
    # the cube without two opposite faces: its boundary is two 4-cycles
    tube = PolyhedronSpec(
        name="tube", faces=((0, 2, 6, 4), (0, 4, 5, 1), (1, 5, 7, 3), (2, 3, 7, 6)),
    )
    with pytest.raises(ValidationError, match=r"^tube: 2 holes; a shell may have at most one hole$"):
        build_shell_graph(tube)


def test_pinched_hole_is_rejected():
    # the octahedron without two faces that share only vertex 0: four
    # boundary edges meet there
    octahedron = builtin("octahedron")
    at_zero = [f for f, face in enumerate(octahedron.faces) if 0 in face]
    pair = next(
        (a, b) for a in at_zero for b in at_zero
        if len(set(octahedron.faces[a]) & set(octahedron.faces[b])) == 1
    )
    pinched = PolyhedronSpec(
        name="pinched",
        faces=tuple(face for f, face in enumerate(octahedron.faces) if f not in pair),
    )
    with pytest.raises(ValidationError, match="^pinched: hole boundary vertex 0 has 4"):
        build_shell_graph(pinched)


def test_a_graph_built_directly_keeps_the_hole_rule():
    # the 8 edges of two opposite cube faces are two holes, which gave a
    # leaf count of 0 and one labeled cut when the constructor took them
    cube = build_shell_graph(builtin("cube"))
    two_rings = tuple(sorted(
        cube.edges.index((min(a, b), max(a, b)))
        for face in ((0, 1, 3, 2), (4, 6, 7, 5)) for a, b in zip(face, face[1:] + face[:1])
    ))
    with pytest.raises(ValidationError, match=r"^2 holes; a shell may have at most one hole$"):
        ShellGraph(n=8, edges=cube.edges, boundary_edges=two_rings)


def test_inconsistent_orientation_is_rejected():
    cube = builtin("cube")
    flipped = PolyhedronSpec(name="flipped", faces=(cube.faces[0][::-1],) + cube.faces[1:])
    message = r"^flipped: faces 0 and 1 traverse edge \(0, 2\) in the same direction"
    with pytest.raises(ValidationError, match=message):
        build_shell_graph(flipped)


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
    path = [g.edges.index(e) for e in [(0, 1), (1, 2), (2, 3)]]
    assert cut_leaves(g, path) == (0, 3)
    assert is_spanning_tree(g, path)
    assert not is_spanning_tree(g, path[:2])


def test_a_spanning_tree_joins_every_vertex():
    # K4 plus a pendant vertex: V - 1 distinct edges that hold a triangle
    # leave a vertex out, and a repeated edge does not count twice
    g = ShellGraph.from_edges(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    ids = [g.edges.index(e) for e in [(0, 1), (1, 2), (0, 2), (3, 4)]]
    assert not is_spanning_tree(g, ids)
    ids[2] = g.edges.index((2, 3))
    assert is_spanning_tree(g, ids)
    assert not is_spanning_tree(g, ids[:3] + ids[:1])


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


def test_spanning_tree_enumeration_rejects_a_cut_that_is_not_a_tree(monkeypatch):
    # the constructor does not check for self-loops; the lister drops an edge
    # whose ends are merged, so a loop never enters a tree
    g = ShellGraph(n=2, edges=((0, 0), (0, 1)))
    assert enumerate_spanning_trees(g) == ((1,),)
    # a lister that emitted the loop as the whole "tree" would be caught
    monkeypatch.setattr(shellgraph, "merged_spanning_trees", lambda *args: ((0,),))
    with pytest.raises(ValidationError, match="not a spanning tree"):
        enumerate_spanning_trees(g)


@settings(max_examples=60)
@given(connected_graphs(), st.data())
def test_merged_determinant_equals_merged_enumeration(g, data):
    # any vertex set and any nonempty seed inside it, connected or not
    vt = data.draw(st.integers(1, (1 << g.n) - 1))
    members = [v for v in range(g.n) if (vt >> v) & 1]
    seed = sum(1 << v for v in data.draw(st.sets(st.sampled_from(members), min_size=1)))
    trees = merged_spanning_trees(g, vt, seed)
    assert count_merged_trees(g, vt, seed) == len(trees)
    rest = vt & ~seed
    for tree in trees:
        # a tree joins every non-seed vertex to the seed, using no edge
        # inside the seed or leaving the set
        assert len(tree) == rest.bit_count()
        ends = [g.edges[e] for e in tree]
        assert all((vt >> u) & 1 and (vt >> v) & 1 for u, v in ends)
        assert not any((seed >> u) & 1 and (seed >> v) & 1 for u, v in ends)


@settings(max_examples=60)
@given(connected_graphs(), st.data())
def test_interior_tree_count_shortcut_equals_the_determinant(g, data):
    # grow a connected set from a random vertex; its trees merge its lowest vertex
    vt = 1 << data.draw(st.integers(0, g.n - 1))
    for _ in range(data.draw(st.integers(0, g.n - 1))):
        ext = [v for v in range(g.n) if not (vt >> v) & 1 and g.neighbor_masks[v] & vt]
        if not ext:
            break
        vt |= 1 << data.draw(st.sampled_from(ext))
    assert count_interior_trees(g, vt) == count_merged_trees(g, vt, vt & -vt)
