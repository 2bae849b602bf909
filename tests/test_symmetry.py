import json
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    canonical_cut,
    cut_tuples,
    face_preserving,
    graph_automorphisms,
    relabeled_spec,
)
from netfold import symmetry
from netfold.catalog import CATALOG, builtin
from netfold.cli import EXIT_OK, main
from netfold.errors import ValidationError
from netfold.holes import remove_faces
from netfold.mlst import enumerate_interiors, enumerate_mlsts
from netfold.polyhedra import PolyhedronSpec
from netfold.shellgraph import (
    ShellGraph,
    build_shell_graph,
    count_spanning_trees,
    enumerate_spanning_trees,
)
from netfold.symmetry import (
    AutomorphismGroup,
    CanonicalCut,
    CutClasses,
    _check_group_axioms,
    count_net_classes,
    dedupe_cuts,
    edge_set_stabilizer,
    find_automorphisms,
)

GROUP_ORDERS = [
    ("tetrahedron", 24),
    ("cube", 48),
    ("octahedron", 48),
    ("icosahedron", 120),
    ("dodecahedron", 120),
    ("octagonal_dipyramid", 32),
    ("snub_cube", 24),  # rotations only: the mirror image is the other enantiomorph
]


@pytest.mark.parametrize("name,order", GROUP_ORDERS)
def test_group_orders(name, order, shell_graph):
    assert find_automorphisms(shell_graph(name)).order == order


CLASS_COUNTS = [
    ("tetrahedron", 1),
    ("cube", 4),
    ("octahedron", 2),
    ("icosahedron", 21),
    ("dodecahedron", 21),
    ("octagonal_dipyramid", 3),
]


@pytest.mark.parametrize("name,classes", CLASS_COUNTS)
def test_class_counts(name, classes, shell_graph):
    g = shell_graph(name)
    result = enumerate_mlsts(g)
    group = find_automorphisms(g)
    reps = dedupe_cuts(g, result.cuts, group)
    assert len(reps) == classes
    assert sum(c.orbit_size for c in reps) == result.labeled_count
    assert all(group.order % c.orbit_size == 0 for c in reps)


def test_canonical_cut_is_idempotent_and_orbit_invariant(shell_graph):
    g = shell_graph("cube")
    group = find_automorphisms(g)
    result = enumerate_mlsts(g)
    for cut in cut_tuples(result)[:20]:
        canon = canonical_cut(g, cut, group)
        again = canonical_cut(g, canon.edges, group)
        assert again.edges == canon.edges
        assert again.orbit_size == canon.orbit_size


def test_all_cuts_in_one_orbit_share_canonical_form(shell_graph):
    g = shell_graph("octahedron")
    group = find_automorphisms(g)
    result = enumerate_mlsts(g)
    forms = {canonical_cut(g, c, group).edges for c in cut_tuples(result)}
    assert len(forms) == 2


def test_dedupe_rejects_non_group_closed_input(shell_graph):
    g = shell_graph("cube")
    group = find_automorphisms(g)
    result = enumerate_mlsts(g)
    with pytest.raises(ValidationError):
        dedupe_cuts(g, result.cuts[:-1], group)


def test_burnside_count_matches_explicit_dedupe(shell_graph):
    for name in ("tetrahedron", "cube", "octahedron", "icosahedron",
                 "octagonal_dipyramid", "truncated_tetrahedron", "cuboctahedron"):
        g = shell_graph(name)
        group = find_automorphisms(g)
        explicit = len(dedupe_cuts(g, enumerate_mlsts(g).cuts, group))
        counted = count_net_classes(g, enumerate_interiors(g).sets, group)
        assert counted == explicit, name


@pytest.mark.parametrize("name,pairs", [
    # (set, g ≠ id) pairs where g fixes a set with several trees; the trees
    # on such a set are listed and tested one by one.  No such pair exists on
    # icosahedron or pentakis_dodecahedron, whose sets with several trees
    # (pentakis: 120 sets with 3) are fixed by the identity alone.
    ("icosahedron", 0),
    ("cube", 42),
    ("dodecahedron", 114),
    ("truncated_octahedron", 44),
    ("truncated_cube", 72),
])
def test_burnside_tests_fixed_trees_on_sets_with_several_trees(monkeypatch, shell_graph,
                                                                name, pairs):
    g = shell_graph(name)
    group = find_automorphisms(g)
    result = enumerate_interiors(g)
    listed = []
    lister = symmetry.merged_spanning_trees

    def spy(graph, vt_mask, seed_mask):
        listed.append(vt_mask)
        return lister(graph, vt_mask, seed_mask)

    monkeypatch.setattr(symmetry, "merged_spanning_trees", spy)
    counted = count_net_classes(g, result.sets, group)
    assert counted == len(dedupe_cuts(g, enumerate_mlsts(g).cuts, group))
    several = {vt for vt, n_trees in result.sets if n_trees > 1}
    assert set(listed) <= several and len(listed) == len(set(listed))
    fixing = sum(
        1 for vt in several for p in group.perms[1:]
        if sum(1 << p[v] for v in range(g.n) if (vt >> v) & 1) == vt
    )
    assert fixing == pairs
    assert bool(listed) == bool(pairs)


def test_hole_stabilizer_subgroup():
    open_cube = remove_faces(builtin("cube"), [0])
    g = build_shell_graph(open_cube)
    group = find_automorphisms(g)
    stab = edge_set_stabilizer(g, group, g.boundary_edges)
    assert group.order == 48
    assert stab.order == 8  # symmetries of the kept square ring
    assert group.order % stab.order == 0


def test_estimate_net_count_values(shell_graph):
    # spanning trees per automorphism: a lower bound on the net count
    def estimate_net_count(g):
        return Fraction(count_spanning_trees(g), find_automorphisms(g).order)

    assert estimate_net_count(shell_graph("tetrahedron")) == Fraction(16, 24)
    assert estimate_net_count(shell_graph("cube")) == Fraction(384, 48)
    assert estimate_net_count(shell_graph("icosahedron")) == Fraction(5_184_000, 120)
    assert estimate_net_count(shell_graph("dodecahedron")) == 43_200


def test_distinct_spanning_trees_of_small_solids(shell_graph):
    # estimate vs exact unlabeled spanning-tree counts
    g = shell_graph("tetrahedron")
    group = find_automorphisms(g)
    assert len(dedupe_cuts(g, enumerate_spanning_trees(g), group)) == 2
    g = shell_graph("cube")
    group = find_automorphisms(g)
    assert len(dedupe_cuts(g, enumerate_spanning_trees(g), group)) == 11


def test_asymmetric_graph_has_trivial_group():
    # spider tree with arms of lengths 1, 2, 3: no nontrivial automorphism
    g = ShellGraph.from_edges(7, [
        (0, 1), (0, 2), (2, 3), (0, 4), (4, 5), (5, 6),
    ])
    group = find_automorphisms(g)
    assert group.order == 1


def _forged(n, *perms):
    return AutomorphismGroup(n=n, perms=tuple(sorted(perms)))


@pytest.mark.parametrize("edges,group,message", [
    # a transposition of K3 with no identity
    ([(0, 1), (0, 2), (1, 2)], _forged(3, (1, 0, 2)), "missing the identity"),
    # swapping the ends of a path's first edge moves its second edge
    ([(0, 1), (1, 2)], _forged(3, (0, 1, 2), (1, 0, 2)), "does not preserve the edge set"),
    # a quarter turn of a 4-cycle without the three-quarter turn
    ([(0, 1), (1, 2), (2, 3), (0, 3)], _forged(4, (0, 1, 2, 3), (1, 2, 3, 0)),
     "missing the inverse"),
    # two transpositions of K3 without the 3-cycles they compose to
    ([(0, 1), (0, 2), (1, 2)], _forged(3, (0, 1, 2), (1, 0, 2), (0, 2, 1)),
     "not closed under composition"),
])
def test_group_axioms_reject_a_forged_group(edges, group, message):
    g = ShellGraph.from_edges(group.n, edges)
    with pytest.raises(ValidationError, match=message):
        _check_group_axioms(g, group)


def test_group_axioms_catch_a_product_of_later_generators():
    # the generators are picked in lexicographic order: (0 2 1 3) is picked
    # first, and the missing product only appears after (1 0 2 3) is picked
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    group = _forged(4, (0, 1, 2, 3), (0, 2, 1, 3), (1, 0, 2, 3))
    with pytest.raises(ValidationError, match="not closed under composition"):
        _check_group_axioms(ShellGraph.from_edges(4, edges), group)


def test_star_with_a_factorial_group_is_searched_quickly():
    # K1,7 has 7! = 5040 automorphisms; testing closure pair by pair took ~24 s
    g = ShellGraph.from_edges(8, [(0, i) for i in range(1, 8)])
    start = time.monotonic()
    group = graph_automorphisms(g)  # runs the group axioms
    result = enumerate_interiors(g)
    assert time.monotonic() - start < 2.0
    assert group.order == 5040
    assert result.sets == ((0b1, 1),)
    assert count_net_classes(g, result.sets, group) == 1


def test_fixed_point_count_rejects_inconsistent_interiors():
    k4 = ShellGraph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    group = graph_automorphisms(k4)
    # the optimal cuts of one shell all have interiors of one size
    with pytest.raises(ValidationError, match="interior sets have mixed sizes"):
        count_net_classes(k4, [(0b0001, 1), (0b0011, 1)], group)
    # the star at vertex 0 alone is not closed under the group: only the 6
    # automorphisms fixing vertex 0 fix a cut, and 6 does not divide by 24
    with pytest.raises(ValidationError, match="must divide by the group order"):
        count_net_classes(k4, [(0b0001, 1)], group)


def test_a_graph_without_faces_gets_the_trivial_group():
    k4 = ShellGraph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert find_automorphisms(k4).perms == ((0, 1, 2, 3),)


TETRAHEDRON = builtin("tetrahedron")
SQUARE = ((0, 1), (0, 3), (1, 2), (2, 3))


@pytest.mark.parametrize("edges,faces", [
    (TETRAHEDRON.edge_list(), TETRAHEDRON.faces[:3]),  # one face missing
    (TETRAHEDRON.edge_list(), (TETRAHEDRON.faces[0][::-1],) + TETRAHEDRON.faces[1:]),
    (SQUARE, ((0, 1, 2), (0, 3, 2, 1))),  # (2, 0) is no edge
])
def test_faces_that_do_not_fit_the_edges_are_rejected(edges, faces):
    g = ShellGraph(n=4, edges=edges, faces=faces)
    with pytest.raises(ValidationError, match="faces do not run every edge once each way"):
        find_automorphisms(g)


def test_a_square_with_two_faces_has_the_dihedral_group():
    g = ShellGraph(n=4, edges=SQUARE, faces=((0, 1, 2, 3), (0, 3, 2, 1)))
    assert find_automorphisms(g).perms == graph_automorphisms(g).perms
    assert find_automorphisms(g).order == 8


@pytest.mark.parametrize("name", [entry.name for entry in CATALOG])
def test_face_map_group_is_the_graph_group(name, shell_graph):
    # convex shells have 3-connected graphs, whose automorphisms all map
    # faces to faces (Whitney); a map automorphism is fixed by one dart and
    # its orientation, so there are at most 4E of them
    g = shell_graph(name)
    group = find_automorphisms(g)
    assert group.perms == graph_automorphisms(g).perms
    assert group.order <= 4 * g.m


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["truncated_cube", "truncated_cuboctahedron"])
def test_face_map_group_on_relabelled_specs(name, seed):
    spec, _ = relabeled_spec(builtin(name), seed)
    g = build_shell_graph(spec)
    assert find_automorphisms(g).perms == graph_automorphisms(g).perms


@pytest.mark.parametrize("name", ["snub_cube", "truncated_cube", "dodecahedron"])
def test_hole_stabilizer_matches_the_graph_group(name):
    g = build_shell_graph(remove_faces(builtin(name), [0]))
    face_map = edge_set_stabilizer(g, find_automorphisms(g), g.boundary_edges)
    graph = edge_set_stabilizer(g, graph_automorphisms(g), g.boundary_edges)
    assert face_map.perms == graph.perms


# two cubes glued at two opposite corners of a face (vertices 0 and 3), a
# 2-vertex separator: the graph has automorphisms that map no face to a face
TWO_CUBES = {
    "name": "two-cubes",
    "vertices": None,
    "faces": [[0, 2, 6, 4], [0, 4, 5, 1], [1, 5, 7, 3], [2, 3, 7, 6], [4, 6, 7, 5],
              [0, 9, 12, 10], [0, 10, 11, 8], [8, 11, 13, 3], [9, 3, 13, 12],
              [10, 12, 13, 11], [8, 3, 2, 0], [1, 3, 9, 0]],
}


def test_two_cubes_are_counted_under_their_face_symmetries(tmp_path, capsys):
    spec = PolyhedronSpec(name="two-cubes", faces=TWO_CUBES["faces"])
    g = build_shell_graph(spec)
    graph_group = graph_automorphisms(g)
    faces_group = face_preserving(spec, graph_group)
    assert (graph_group.order, faces_group.order) == (16, 8)
    assert find_automorphisms(g).perms == faces_group.perms
    cuts = cut_tuples(enumerate_mlsts(g))
    assert len(cuts) == 320
    assert len({canonical_cut(g, cut, faces_group).edges for cut in cuts}) == 40

    path = tmp_path / "two-cubes.json"
    path.write_text(json.dumps(TWO_CUBES), encoding="utf-8")
    assert main(["count", "--input", str(path)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "automorphisms: 8\n" in out and "optimal net classes: 40\n" in out
    assert main(["enumerate", "--input", str(path)]) == EXIT_OK
    assert "classes under 8 automorphisms: 40\n" in capsys.readouterr().out


def test_a_shell_pinched_at_two_vertices_is_rejected(tmp_path, capsys):
    # two whole cubes sharing vertices 0 and 3, which two-cubes joins into
    # one sphere: here each shared vertex has two separate fans of faces
    cube = builtin("cube").faces
    other = {0: 0, 3: 3, 1: 8, 2: 9, 4: 10, 5: 11, 6: 12, 7: 13}
    faces = cube + tuple(tuple(other[v] for v in f) for f in cube)
    spec = PolyhedronSpec(name="pinched", faces=faces)
    message = "the faces around vertex 0 do not close into one fan"
    with pytest.raises(ValidationError, match=f"^pinched: {message}$"):
        build_shell_graph(spec)
    # find_automorphisms checks the fans itself, for graphs built directly
    edges = spec.edge_list()
    graph = ShellGraph(spec.n_vertices, edges, (), spec.faces)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        find_automorphisms(graph)
    path = tmp_path / "pinched.json"
    path.write_text(json.dumps({"name": "pinched", "vertices": None, "faces": faces}), encoding="utf-8")
    assert main(["count", "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: pinched: {message}\n"


def _trivial_group(g):
    return AutomorphismGroup(n=g.n, perms=(tuple(range(g.n)),))


def test_cut_classes_read_as_a_sequence_of_canonical_cuts():
    classes = CutClasses(np.array([[0, 1, 2], [0, 1, 5], [1, 3, 4]]), np.array([6, 3, 2]))
    assert len(classes) == 3
    assert classes[0] == CanonicalCut(edges=(0, 1, 2), orbit_size=6)
    assert classes[-1] == CanonicalCut(edges=(1, 3, 4), orbit_size=2)
    assert type(classes[0].edges[0]) is int and type(classes[0].orbit_size) is int
    with pytest.raises(IndexError):
        classes[3]
    tail = classes[1:]
    assert isinstance(tail, CutClasses)
    assert tail.cuts.tolist() == [[0, 1, 5], [1, 3, 4]] and tail.orbit_sizes.tolist() == [3, 2]
    assert [c.edges for c in classes[::-1]] == [(1, 3, 4), (0, 1, 5), (0, 1, 2)]
    assert list(classes) == [classes[0], classes[1], classes[2]]
    assert sum(c.orbit_size for c in classes) == 11
    with pytest.raises(ValidationError, match="one orbit size per row"):
        CutClasses(np.array([[0, 1, 2]]), np.array([1, 1]))


def test_dedupe_under_a_trivial_group_returns_the_rows_as_given(shell_graph):
    g = shell_graph("cube")
    cuts = enumerate_mlsts(g).cuts
    classes = dedupe_cuts(g, cuts, _trivial_group(g))
    assert np.array_equal(classes.cuts, cuts) and classes.cuts.dtype == cuts.dtype
    assert classes.orbit_sizes.tolist() == [1] * len(cuts)


@pytest.mark.parametrize("trivial", [True, False])
def test_dedupe_sorts_unsorted_input_and_rejects_duplicates(shell_graph, trivial):
    g = shell_graph("cube")
    group = _trivial_group(g) if trivial else find_automorphisms(g)
    cuts = enumerate_mlsts(g).cuts
    want = dedupe_cuts(g, cuts, group)
    shuffled = cuts[np.random.default_rng(0).permutation(len(cuts))]
    got = dedupe_cuts(g, shuffled, group)
    assert np.array_equal(got.cuts, want.cuts)
    assert np.array_equal(got.orbit_sizes, want.orbit_sizes)
    with pytest.raises(ValidationError, match="duplicate labeled cuts"):
        dedupe_cuts(g, np.concatenate([shuffled, cuts[5:6]]), group)
