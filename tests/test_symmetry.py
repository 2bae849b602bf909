from fractions import Fraction

import pytest

from helpers import canonical_cut
from netfold.catalog import builtin
from netfold.errors import ValidationError
from netfold.holes import boundary_edge_ids, remove_faces
from netfold.mlst import enumerate_interiors, enumerate_mlsts
from netfold.shellgraph import (
    ShellGraph,
    build_shell_graph,
    count_spanning_trees,
    enumerate_spanning_trees,
)
from netfold.symmetry import (
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
    for cut in list(result.cut_tuples())[:20]:
        canon = canonical_cut(g, cut, group)
        again = canonical_cut(g, canon.edges, group)
        assert again.edges == canon.edges
        assert again.orbit_size == canon.orbit_size


def test_all_cuts_in_one_orbit_share_canonical_form(shell_graph):
    g = shell_graph("octahedron")
    group = find_automorphisms(g)
    result = enumerate_mlsts(g)
    forms = {canonical_cut(g, c, group).edges for c in result.cut_tuples()}
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
        counted = count_net_classes(g, enumerate_interiors(g).interiors, group)
        assert counted == explicit, name


def test_hole_stabilizer_subgroup():
    open_cube = remove_faces(builtin("cube"), [0])
    g = build_shell_graph(open_cube, require_closed=False)
    group = find_automorphisms(g)
    stab = edge_set_stabilizer(g, group, boundary_edge_ids(g))
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
