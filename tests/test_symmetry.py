import dataclasses
import functools
import gc
import json
import time
import weakref
from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    DESK_SHELLS,
    canonical_cut,
    cut_tuples,
    face_preserving,
    flat_sets,
    give_graph_group,
    graph_automorphisms,
    prism_spec,
    reference_edge_perms,
    reference_map_automorphisms,
    reference_orbit,
    reference_stabilizer,
    relabeled_spec,
    truncated_octahedron_minus_edge,
)
from netfold import symmetry
from netfold.catalog import CATALOG, builtin
from netfold.cli import EXIT_OK, main
from netfold.errors import ValidationError
from netfold.holes import remove_faces
from netfold.mlst import InteriorResult, enumerate_interiors, enumerate_mlsts
from netfold.polyhedra import PolyhedronSpec, edge_face_table
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
    cut_group,
    dedupe_cuts,
    find_automorphisms,
)

TETRAHEDRON = builtin("tetrahedron")

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
    assert sum(c.orbit_size for c in reps) == len(result.cuts)
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
        counted = count_net_classes(enumerate_interiors(g))
        assert counted == explicit, name


@pytest.mark.parametrize("name,pairs", [
    # (set, g ≠ id) pairs where g fixes a set with several trees; the trees
    # on the first member of such a set's orbit are listed once and tested
    # one by one.  No such pair exists on icosahedron or
    # pentakis_dodecahedron, whose sets with several trees (pentakis: 120
    # sets with 3) are fixed by the identity alone.
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
    counted = count_net_classes(result)
    assert counted == len(dedupe_cuts(g, enumerate_mlsts(g).cuts, group))

    def fixers(vt):
        return [p for p in group.perms[1:] if sum(1 << p[v] for v in range(g.n) if (vt >> v) & 1) == vt]

    several = {vt for vt, n_trees in flat_sets(result) if n_trees > 1}
    assert sum(len(fixers(vt)) for vt in several) == pairs
    # one listing per orbit, on its first member, where a g ≠ id fixes it
    assert listed == [orbit[0] for orbit, n_trees in result.orbits if n_trees > 1 and fixers(orbit[0])]
    assert bool(listed) == bool(pairs)


def test_hole_stabilizer_subgroup():
    open_cube = remove_faces(builtin("cube"), [0])
    g = build_shell_graph(open_cube)
    group = find_automorphisms(g)
    stab = cut_group(g)
    assert group.order == 48
    assert stab.order == 8  # symmetries of the kept square ring
    assert group.order % stab.order == 0


def test_cut_group_fixes_the_hole_and_is_found_once(shell_graph):
    g = build_shell_graph(remove_faces(builtin("cube"), [0]))
    assert cut_group(g).perms == reference_stabilizer(g, find_automorphisms(g), g.boundary_edges).perms
    assert cut_group(g) is cut_group(g)
    closed = shell_graph("cube")
    assert cut_group(closed) is find_automorphisms(closed)


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
    """A group of `perms`, on no edges until `_on` gives it a graph's."""
    return AutomorphismGroup(n=n, edges=(), perms=tuple(sorted(perms)))


def _on(edges, group):
    return dataclasses.replace(group, edges=ShellGraph.from_edges(group.n, edges).edges)


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
    with pytest.raises(ValidationError, match=message):
        _check_group_axioms(_on(edges, group))


def test_group_axioms_catch_a_product_of_later_generators():
    # the generators are picked in lexicographic order: (0 2 1 3) is picked
    # first, and the missing product only appears after (1 0 2 3) is picked
    edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
    group = _forged(4, (0, 1, 2, 3), (0, 2, 1, 3), (1, 0, 2, 3))
    with pytest.raises(ValidationError, match="not closed under composition"):
        _check_group_axioms(_on(edges, group))


def test_star_with_a_factorial_group_is_searched_quickly():
    # K1,7 has 7! = 5040 automorphisms; testing closure pair by pair took ~24 s
    g = ShellGraph.from_edges(8, [(0, i) for i in range(1, 8)])
    start = time.monotonic()
    give_graph_group(g)  # runs the group axioms
    result = enumerate_interiors(g)
    assert time.monotonic() - start < 2.0
    assert cut_group(g).order == 5040
    assert result.orbits == (((0b1,), 1),)
    assert count_net_classes(result) == 1


def _tetrahedron_interiors(orbits):
    g = build_shell_graph(TETRAHEDRON)
    return InteriorResult(graph=g, leaf_count=3, n_interior=1, orbits=orbits, nodes_visited=0, level_reports=())


def test_fixed_point_count_rejects_inconsistent_interiors():
    singles = (0b0001, 0b0010, 0b0100, 0b1000)
    assert count_net_classes(_tetrahedron_interiors(((singles, 1),))) == 1
    # the optimal cuts of one shell all have interiors of one size
    with pytest.raises(ValidationError, match="interior sets have mixed sizes"):
        count_net_classes(_tetrahedron_interiors(((singles, 1), ((0b0011,), 1))))
    # {0} with two trees: its stabilizer's 6 elements fix 2 + 5 cuts, and 7
    # does not divide by 6
    with pytest.raises(ValidationError, match="must divide by its stabilizer order"):
        count_net_classes(_tetrahedron_interiors(((singles, 2),)))
    # {0} alone, or without {3}, is not its orbit under the 24 symmetries,
    # which move it onto every vertex
    for orbit in ((0b0001,), (0b0001, 0b0010, 0b0100)):
        with pytest.raises(ValidationError, match="is not its orbit under the cut group"):
            count_net_classes(_tetrahedron_interiors(((orbit, 1),)))


def test_a_graph_without_faces_gets_the_trivial_group():
    k4 = ShellGraph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert find_automorphisms(k4).perms == ((0, 1, 2, 3),)


SQUARE = ((0, 1), (0, 3), (1, 2), (2, 3))


@pytest.mark.parametrize("edges,faces", [
    (tuple(sorted(edge_face_table(TETRAHEDRON))), TETRAHEDRON.faces[:3]),  # one face missing
    (tuple(sorted(edge_face_table(TETRAHEDRON))), (TETRAHEDRON.faces[0][::-1],) + TETRAHEDRON.faces[1:]),
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


def _spread_case(case):
    if case == "truncated_octahedron_minus_edge":
        return truncated_octahedron_minus_edge()
    if case == "disc":
        return build_shell_graph(PolyhedronSpec(name="disc", faces=((0, 1, 2), (0, 2, 3))))
    if case.startswith("prism"):
        return build_shell_graph(prism_spec(int(case[5:])))
    name, _, hole = case.partition("-")
    spec = builtin(name)
    return build_shell_graph(remove_faces(spec, [0]) if hole else spec)


# every catalog shell, closed and with face 0 removed (which each shell
# accepts), a shell whose group has order 2, prisms of 6, 16 and 80
# vertices, the last taking two words per vertex set, and a disc of two
# triangles, on which maps that keep reversal but not face succession are
# one to one
SPREAD_CASES = ([entry.name for entry in CATALOG] + [f"{entry.name}-hole0" for entry in CATALOG]
                + ["truncated_octahedron_minus_edge", "prism3", "prism8", "prism40", "disc"])


@pytest.mark.parametrize("case", SPREAD_CASES)
def test_the_dart_table_finds_the_group_of_the_per_dart_spread(case):
    g = _spread_case(case)
    assert find_automorphisms(g).perms == reference_map_automorphisms(g).perms


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["truncated_cube", "truncated_cuboctahedron"])
def test_face_map_group_on_relabelled_specs(name, seed):
    spec, _ = relabeled_spec(builtin(name), seed)
    g = build_shell_graph(spec)
    assert find_automorphisms(g).perms == graph_automorphisms(g).perms


@pytest.mark.parametrize("name", ["snub_cube", "truncated_cube", "dodecahedron"])
def test_hole_stabilizer_matches_the_graph_group(name):
    g = build_shell_graph(remove_faces(builtin(name), [0]))
    assert cut_group(g).perms == reference_stabilizer(g, graph_automorphisms(g), g.boundary_edges).perms


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
    edges = tuple(sorted(edge_face_table(spec)))
    graph = ShellGraph(spec.n_vertices, edges, (), spec.faces)
    with pytest.raises(ValidationError, match=f"^{message}$"):
        find_automorphisms(graph)
    path = tmp_path / "pinched.json"
    path.write_text(json.dumps({"name": "pinched", "vertices": None, "faces": faces}), encoding="utf-8")
    assert main(["count", "--input", str(path)]) == 1
    assert capsys.readouterr().err == f"error: pinched: {message}\n"


def _trivial_group(g):
    return AutomorphismGroup(n=g.n, edges=g.edges, perms=(tuple(range(g.n)),))


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


def _open_or_closed(name, hole):
    spec = builtin(name)
    return build_shell_graph(spec if hole is None else remove_faces(spec, [hole]))


@pytest.mark.parametrize("hole", [None, 0])
@pytest.mark.parametrize("name", DESK_SHELLS)
def test_edge_perms_equal_the_reference_loop(name, hole):
    g = _open_or_closed(name, hole)
    for group in (find_automorphisms(g), cut_group(g)):
        assert group.edge_perms.dtype == np.int32
        assert np.array_equal(group.edge_perms, reference_edge_perms(g, group))


@pytest.mark.parametrize("n,edges", [
    (4, [(i, j) for i in range(4) for j in range(i + 1, 4)]),  # K4
    (8, [(0, i) for i in range(1, 8)]),  # K1,7
    (6, [(i, (i + 1) % 6) for i in range(6)] + [(0, 3)]),  # a hexagon with one chord
    (1, []),
])
def test_edge_perms_of_a_graph_group_equal_the_reference_loop(n, edges):
    g = ShellGraph.from_edges(n, edges)
    group = graph_automorphisms(g)
    assert np.array_equal(group.edge_perms, reference_edge_perms(g, group))


def test_a_perm_that_moves_an_edge_off_the_graph_is_rejected(shell_graph):
    g = shell_graph("cube")
    u, v = g.edges[0]  # swapping the ends of an edge moves the cube's other edges at them
    swap = tuple(u if w == v else v if w == u else w for w in range(g.n))
    group = AutomorphismGroup(n=g.n, edges=g.edges, perms=(tuple(range(g.n)), swap))
    with pytest.raises(ValidationError, match=r"permutation \(.*\) does not preserve the edge set"):
        group.edge_perms
    with pytest.raises(ValidationError, match="does not preserve the edge set"):
        _check_group_axioms(group)


@pytest.mark.parametrize("name,hole", [(name, hole) for hole in (None, 0) for name in DESK_SHELLS])
def test_orbit_gives_the_image_set_and_the_perms_that_fix_it(name, hole):
    # the numpy orbit equals the Python loop it replaced, on every found set
    # and on every single vertex (the phase seeds' orbits)
    g = _open_or_closed(name, hole)
    group = cut_group(g)
    masks = [vt for vt, _ in flat_sets(enumerate_interiors(g))] + [1 << v for v in range(g.n)]
    for vt in masks:
        members, stab, reps = group.orbit(vt)
        assert (members, stab, reps) == reference_orbit(group, vt)
        assert len(members) * len(stab) == group.order


@pytest.mark.parametrize("hole", [None, 0])
def test_orbit_of_a_set_of_more_than_64_vertices(hole):
    # the 40-gonal prism's 80 vertices take two uint64 words per set
    spec = prism_spec(40)
    g = build_shell_graph(spec if hole is None else remove_faces(spec, [hole]))
    group = cut_group(g)
    assert (g.n, group.order) == (80, 160 if hole is None else 80)
    rng = np.random.default_rng(80)
    for size in (1, 2, 30, 79):
        vt = sum(1 << int(v) for v in rng.choice(g.n, size=size, replace=False))
        assert group.orbit(vt) == reference_orbit(group, vt)


@pytest.mark.parametrize("mask", [1 << 63, 1 << 8, -1, 1 << 64], ids=["bit63", "bit8", "negative", "bit64"])
def test_orbit_rejects_a_mask_outside_the_graph(shell_graph, mask):
    # on the 8-vertex cube, 1 << 63 once gave (0xffffffffffffff00,) and
    # 1 << 8 gave (0,), and -1 and 1 << 64 raised OverflowError
    group = cut_group(shell_graph("cube"))
    with pytest.raises(ValidationError, match="is not a set of bits below 8"):
        group.orbit(mask)


def test_dedupe_rejects_the_group_of_another_graph(shell_graph):
    g = shell_graph("cube")
    cuts = enumerate_mlsts(g).cuts
    relabeled = build_shell_graph(relabeled_spec(builtin("cube"), 1)[0])
    assert (relabeled.n, relabeled.m) == (g.n, g.m) and relabeled.edges != g.edges
    for other in (shell_graph("octahedron"), relabeled):
        with pytest.raises(ValidationError, match="acts on the edges of another graph"):
            dedupe_cuts(g, cuts, find_automorphisms(other))


@pytest.mark.parametrize("hole", [None, 0])
def test_the_face_map_is_built_once_per_graph(monkeypatch, hole):
    built = []
    face_map = ShellGraph.face_map.func

    def spy(graph):
        built.append(graph)
        return face_map(graph)

    counted = functools.cached_property(spy)
    counted.__set_name__(ShellGraph, "face_map")
    monkeypatch.setattr(ShellGraph, "face_map", counted)
    g = _open_or_closed("cube", hole)
    assert built == [g]  # the fan check of build_shell_graph
    find_automorphisms(g)
    cut_group(g)
    assert built == [g]


def test_a_graph_is_collected_with_its_cached_groups():
    g = _open_or_closed("cube", 0)
    assert cut_group(g).edge_perms.shape == (8, g.m)
    assert find_automorphisms(g).order == 48
    graph = weakref.ref(g)
    del g
    gc.collect()
    assert graph() is None


# closed shells and holes, one of them (truncated_cuboctahedron, E = 72)
# with two key words
DEDUPE_SHELLS = [
    ("cube", None), ("dodecahedron", None), ("cuboctahedron", None), ("truncated_cube", None),
    ("truncated_cuboctahedron", None), ("truncated_cube", 0), ("truncated_octahedron", 3), ("dodecahedron", 0),
]


@pytest.mark.parametrize("name,hole", DEDUPE_SHELLS)
def test_dedupe_equals_the_orbit_minima_of_every_row(name, hole):
    # the per-orbit walk against each row's largest image key
    g = _open_or_closed(name, hole)
    cuts = enumerate_mlsts(g).cuts
    group = cut_group(g)
    want = CutClasses.from_cuts(group, cuts)
    got = dedupe_cuts(g, cuts, group)
    assert np.array_equal(got.cuts, want.cuts) and got.cuts.dtype == want.cuts.dtype
    assert np.array_equal(got.orbit_sizes, want.orbit_sizes)


@pytest.mark.parametrize("name,hole", [("cube", None), ("truncated_cube", 0), ("truncated_cuboctahedron", None)])
@pytest.mark.parametrize("drop", ["an orbit minimum", "a later member", "all but one row", "faults that balance"])
def test_dedupe_rejects_a_listing_not_closed_under_the_group(name, hole, drop):
    # a missing minimum leaves rows whose minimum is not a row; a missing
    # later member leaves its class's orbit size above the rows it has; and
    # the two together can leave the orbit sizes summing to the row count
    g = _open_or_closed(name, hole)
    cuts = enumerate_mlsts(g).cuts
    group = cut_group(g)
    classes = dedupe_cuts(g, cuts, group)
    table = reference_edge_perms(g, group)

    def members(k):
        images = np.unique(np.sort(table[:, classes.cuts[k]], axis=1), axis=0)
        return images[(images != classes.cuts[k]).any(axis=1)]

    # the smallest class of several cuts, and another at least as large
    sizes = np.where(classes.orbit_sizes > 1, classes.orbit_sizes, np.inf)
    k = int(sizes.argmin())
    other = int(np.flatnonzero((sizes >= sizes[k]) & (np.arange(len(sizes)) != k))[0])
    dropped = {
        "an orbit minimum": classes.cuts[k:k + 1],
        "a later member": members(k)[:1],
        # class k keeps size - 1 rows and no minimum, and the other class
        # loses as many rows but keeps its minimum
        "faults that balance": np.concatenate([classes.cuts[k:k + 1], members(other)[:int(sizes[k]) - 1]]),
    }
    if drop == "all but one row":
        kept = classes.cuts[k:k + 1]
    else:
        gone = (cuts[:, None] == dropped[drop][None]).all(axis=2).any(axis=1)
        assert gone.sum() == len(dropped[drop])
        kept = cuts[~gone]
    with pytest.raises(ValidationError, match="not closed under the automorphism group"):
        dedupe_cuts(g, kept, group)


def test_dedupe_rejects_rows_that_are_not_cuts(shell_graph):
    # descending rows, an edge id past the last edge and a negative one
    g = shell_graph("truncated_cube")
    group = cut_group(g)
    cuts = enumerate_mlsts(g).cuts
    for bad in (cuts[:, ::-1], np.where(cuts == cuts.max(), g.m, cuts), cuts - 1):
        with pytest.raises(ValidationError, match="ascending, distinct edge ids below 36"):
            dedupe_cuts(g, bad, group)


@pytest.mark.parametrize("name", ["cube", "truncated_cube", "truncated_cuboctahedron", "snub_cube"])
def test_cut_orbits_give_each_cuts_minimum_and_orbit_size(name, shell_graph, monkeypatch):
    # every row against the whole-group canonical form, with blocks of one
    # row, of a few rows and of all of them: the minimum's key has bit
    # E - 1 - e set for each of its edges e, bit b in word b // 64
    g = shell_graph(name)
    group = cut_group(g)
    cuts = enumerate_mlsts(g).cuts[::97]
    want = [canonical_cut(g, row, group) for row in cuts.tolist()]
    for block in (1, 7 * group.order, symmetry._KEY_BLOCK):
        monkeypatch.setattr(symmetry, "_KEY_BLOCK", block)
        minima, sizes, reach = group.cut_orbits(cuts)
        assert minima.dtype == np.uint64 and minima.shape == (len(cuts), -(-g.m // 64))
        assert sizes.tolist() == [c.orbit_size for c in want]
        for key, k, row, c in zip(minima.tolist(), reach.tolist(), cuts, want):
            assert sum(word << (64 * w) for w, word in enumerate(key)) == sum(1 << (g.m - 1 - e) for e in c.edges)
            assert np.sort(group.edge_perms[k][row]).tolist() == list(c.edges)


@pytest.mark.parametrize("block", [None, 5 * 48 * 2])
def test_classes_from_cuts_are_distinct_in_lexicographic_order(shell_graph, monkeypatch, block):
    # two key words; with the smaller block the keys are built 5 rows at a time
    g = shell_graph("truncated_cuboctahedron")
    group = cut_group(g)
    if block is not None:
        monkeypatch.setattr(symmetry, "_KEY_BLOCK", block)
    cuts = enumerate_mlsts(g).cuts
    shuffled = cuts[np.random.default_rng(3).permutation(len(cuts))]
    classes = CutClasses.from_cuts(group, shuffled)
    want = dedupe_cuts(g, cuts, group)
    assert classes.cuts.dtype == np.int32
    assert np.array_equal(classes.cuts, want.cuts) and np.array_equal(classes.orbit_sizes, want.orbit_sizes)
    orbits = AutomorphismGroup.cut_orbits

    def one_size_off(self, rows):
        minima, sizes, reach = orbits(self, rows)
        sizes[np.flatnonzero((minima == minima[0]).all(axis=1))[-1]] += 1
        return minima, sizes, reach

    monkeypatch.setattr(AutomorphismGroup, "cut_orbits", one_size_off)
    with pytest.raises(ValidationError, match="cuts of one class have different orbit sizes"):
        CutClasses.from_cuts(group, shuffled)
