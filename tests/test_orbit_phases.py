"""Orbit-rooted phases of the closed-shell set search against the root-set
searches.

`enumerate_interiors` runs one phase per vertex orbit of the root set and
rebuilds the sets from their orbits; `helpers.tree_search_interiors` grows
trees in one phase per root-set vertex with no symmetry, and
`helpers.root_set_set_search` runs the set search that way.  All must give
the same interiors, and the orbit phases may only visit fewer nodes than the
root-set set search.  Open shells, whose one phase is seeded with the hole
boundary, and shells whose interiors are single vertices are checked against
the tree search too.
"""

import functools

import pytest
from hypothesis import given, settings

from helpers import (
    DESK_SHELLS,
    classes_from_interiors,
    expand_sets,
    frucht_graph,
    give_graph_group,
    labeled_from_interiors,
    relabeled_spec,
    root_set_set_search,
    tree_search_interiors,
)
from netfold import mlst
from netfold.catalog import builtin, catalog_entry
from netfold.holes import remove_faces
from netfold.cli import EXIT_OK, main
from netfold.mlst import count_labeled_cuts, enumerate_interiors
from netfold.polyhedra import PolyhedronSpec, edge_face_table
from netfold.shellgraph import build_shell_graph
from netfold.symmetry import count_net_classes, edge_set_stabilizer, find_automorphisms
from test_mlst import connected_graphs


@functools.lru_cache(maxsize=None)
def catalog_graph(name):
    return build_shell_graph(builtin(name))


@functools.lru_cache(maxsize=None)
def oracle(name):
    return tree_search_interiors(catalog_graph(name))


@functools.lru_cache(maxsize=None)
def root_set_nodes(name):
    return root_set_set_search(catalog_graph(name))[1]


def boundary_group(graph):
    """The automorphisms that fix the hole boundary (all of them on a closed
    shell): the group the cuts are counted under."""
    return edge_set_stabilizer(graph, find_automorphisms(graph), graph.boundary_edges)


def counts(graph, interiors):
    """Labeled cut count and class count of explicit interiors."""
    group = boundary_group(graph)
    return labeled_from_interiors(graph, interiors), classes_from_interiors(graph, interiors, group)


def result_counts(result):
    """Labeled cut count and class count of an `enumerate_interiors` result."""
    group = boundary_group(result.graph)
    return count_labeled_cuts(result), count_net_classes(result.graph, result.sets, group)


def map_interiors(graph, image, perm, interiors):
    """Interiors of `graph` renamed into `image`, its graph with vertex v
    renamed perm[v]."""
    out = []
    for vt, edges in interiors:
        mapped_vt = sum(1 << perm[v] for v in range(graph.n) if (vt >> v) & 1)
        mapped = []
        for e in edges:
            a, b = perm[graph.edges[e][0]], perm[graph.edges[e][1]]
            mapped.append(image.edge_index[(min(a, b), max(a, b))])
        out.append((mapped_vt, tuple(sorted(mapped))))
    return tuple(sorted(out, key=lambda it: (it[1], it[0])))


@functools.lru_cache(maxsize=None)
def truncated_octahedron_minus_edge():
    """truncated_octahedron without its first square-hexagon edge, the two
    faces merged into one octagon: a shell whose group has order 2."""
    spec = builtin("truncated_octahedron")
    edge, (i, j) = next(
        (e, faces) for e, faces in sorted(edge_face_table(spec).items())
        if sorted(len(spec.faces[f]) for f in faces) == [4, 6]
    )
    fi, fj = spec.faces[i], spec.faces[j]
    # fi runs the edge from x to y and fj from y to x
    x, y = edge if edge in zip(fi, fi[1:] + fi[:1]) else edge[::-1]

    def walk(face, start):
        k = face.index(start)
        return face[k:] + face[:k]

    merged = walk(fi, y) + walk(fj, x)[1:-1]
    faces = tuple(f for k, f in enumerate(spec.faces) if k not in (i, j)) + (merged,)
    return build_shell_graph(PolyhedronSpec(name="merged", faces=faces))


@pytest.fixture
def phases(monkeypatch):
    """Distinct seeds `enumerate_interiors` ran phases from, per call."""
    seen = []
    search = mlst._search

    def spy(graph, seeds, *args):
        seen.extend(st for st in seeds if st not in seen)
        return search(graph, seeds, *args)

    monkeypatch.setattr(mlst, "_search", spy)
    return seen


def n_orbits_in_root_set(graph):
    group = find_automorphisms(graph)
    return len({min(p[r] for p in group.perms) for r in mlst.root_set(graph)})


@pytest.mark.parametrize("name", DESK_SHELLS)
def test_orbit_phases_match_root_set_search(name):
    g = catalog_graph(name)
    leaf_count, interiors, _ = oracle(name)
    result = enumerate_interiors(g)
    assert result.leaf_count == leaf_count == catalog_entry(name).leaf_count
    assert expand_sets(result) == interiors
    assert result.interior_count == len(interiors)
    assert result.nodes_visited <= root_set_nodes(name)
    labeled, classes = counts(g, interiors)
    assert result_counts(result) == (labeled, classes)
    assert classes == catalog_entry(name).optimal_nets


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["truncated_cube", "truncated_cuboctahedron"])
def test_orbit_phases_on_relabelled_shells(name, seed):
    g = catalog_graph(name)
    spec, perm = relabeled_spec(builtin(name), seed)
    h = build_shell_graph(spec)
    leaf_count, interiors, _ = oracle(name)
    result = enumerate_interiors(h)
    assert result.leaf_count == leaf_count
    assert expand_sets(result) == map_interiors(g, h, perm, interiors)
    assert result_counts(result) == counts(g, interiors)


@pytest.mark.parametrize("name", ["octagonal_pyramid", "octagonal_dipyramid"])
def test_two_orbit_shells_run_two_phases(name, phases):
    g = catalog_graph(name)
    assert n_orbits_in_root_set(g) == 2
    assert expand_sets(enumerate_interiors(g)) == oracle(name)[1]
    assert len(phases) == 2


@pytest.mark.parametrize("name", ["cube", "dodecahedron", "truncated_cube", "snub_cube"])
def test_vertex_transitive_shell_runs_one_phase(name, phases):
    enumerate_interiors(catalog_graph(name))
    assert len(phases) == 1


def test_orbit_phases_with_a_group_of_order_two(phases):
    g = truncated_octahedron_minus_edge()
    assert find_automorphisms(g).order == 2
    leaf_count, interiors, _ = tree_search_interiors(g)
    result = enumerate_interiors(g)
    assert (result.leaf_count, expand_sets(result)) == (leaf_count, interiors)
    # the root set meets three orbits, but the first phase's orbit also holds
    # the far end of the removed edge, which the later phases bar
    assert len(phases) == n_orbits_in_root_set(g) == len(mlst.root_set(g)) == 3
    assert result.nodes_visited < root_set_set_search(g)[1]


def test_trivial_group_searches_node_for_node_like_the_root_set(phases):
    # with no symmetry the orbit phases are the root-set phases, and the
    # orbit closure adds nothing
    g = frucht_graph()
    assert find_automorphisms(g).order == 1
    leaf_count, interiors, _ = tree_search_interiors(g)
    sets, nodes = root_set_set_search(g)
    result = enumerate_interiors(g)
    assert (result.leaf_count, expand_sets(result)) == (leaf_count, interiors)
    assert tuple(vt for vt, _ in result.sets) == sets
    assert result.nodes_visited == nodes
    assert len(phases) == len(mlst.root_set(g))


@settings(max_examples=50)
@given(connected_graphs())
def test_orbit_phases_on_random_graphs(g):
    # a graph without faces is searched under its whole graph group here
    give_graph_group(g)
    leaf_count, interiors, _ = tree_search_interiors(g)
    sets, nodes = root_set_set_search(g)
    result = enumerate_interiors(g)
    assert (result.leaf_count, expand_sets(result)) == (leaf_count, interiors)
    assert {vt for vt, _ in interiors} == {vt for vt, _ in result.sets}
    assert result_counts(result) == counts(g, interiors)
    assert result.nodes_visited <= nodes
    if find_automorphisms(g).order == 1:
        assert tuple(vt for vt, _ in result.sets) == sets
        assert result.nodes_visited == nodes


@pytest.mark.parametrize("name,labeled,classes", [
    ("truncated_cube", 3280, 420),
    ("dodecahedron", 240, 24),
    ("snub_cube", 113436, 113436),
])
def test_open_shells_match_the_tree_search(name, labeled, classes):
    # the counts `count --hole 0` printed when the search grew trees
    g = build_shell_graph(remove_faces(builtin(name), [0]))
    leaf_count, interiors, _ = tree_search_interiors(g)
    result = enumerate_interiors(g)
    assert result.leaf_count == leaf_count
    assert expand_sets(result) == interiors
    assert result_counts(result) == counts(g, interiors) == (labeled, classes)


def wheel(k):
    """A pyramid over a k-gon: hub 0 joined to the cycle 1..k."""
    faces = tuple((0, i, i % k + 1) for i in range(1, k + 1)) + (tuple(range(k, 0, -1)),)
    return build_shell_graph(PolyhedronSpec(name=f"wheel{k}", faces=faces))


@pytest.mark.parametrize("k", [3, 4, 5, 8])
def test_single_vertex_interiors_match_the_tree_search(k):
    # the wheel over a triangle is K4, where every vertex is an interior
    g = wheel(k)
    leaf_count, interiors, _ = tree_search_interiors(g)
    result = enumerate_interiors(g)
    assert result.n_interior == 1 and leaf_count == k
    assert result.sets == tuple((1 << v, 1) for v in range(g.n if k == 3 else 1))
    assert expand_sets(result) == interiors
    assert result_counts(result) == counts(g, interiors) == (len(interiors), 1)


def test_worker_counts_agree_on_several_phases(tmp_path, capsys):
    blobs = []
    for workers in ("1", "4"):
        d = tmp_path / workers
        for command in ("enumerate", "count"):
            argv = [command, "--builtin", "octagonal_dipyramid", "--workers", workers]
            assert main(argv + (["--out-dir", str(d)] if command == "enumerate" else [])) == EXIT_OK
        blobs.append((capsys.readouterr().out.replace(str(d), "DIR"),
                      (d / "enumeration.json").read_bytes(), (d / "classes.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_group_is_found_once_per_graph(monkeypatch, capsys):
    from netfold import symmetry

    calls = []
    search = symmetry._map_automorphisms

    def spy(graph):
        calls.append(graph)
        return search(graph)

    monkeypatch.setattr(symmetry, "_map_automorphisms", spy)
    for command in ("enumerate", "rank", "count"):
        calls.clear()
        assert main([command, "--builtin", "cube", "--workers", "1"]) == EXIT_OK
        assert len(calls) == 1, command
    g = catalog_graph("cube")
    assert find_automorphisms(g) is find_automorphisms(g)


@pytest.mark.parametrize("name, hole", [
    ("truncated_cube", None), ("snub_cube", None), ("truncated_cuboctahedron", None),
    ("octagonal_dipyramid", None), ("truncated_cube", 0),
])
def test_trees_are_counted_once_per_orbit_of_sets(monkeypatch, name, hole):
    # a closed shell's sets of one orbit have equal tree counts, so only the
    # first member the search finds is counted; an open shell counts each set
    g = catalog_graph(name) if hole is None else build_shell_graph(remove_faces(builtin(name), [hole]))
    counted = []
    count_trees = mlst.count_interior_trees

    def spy(graph, vt_mask):
        counted.append(vt_mask)
        return count_trees(graph, vt_mask)

    monkeypatch.setattr(mlst, "count_interior_trees", spy)
    result = enumerate_interiors(g)
    assert len(set(counted)) == len(counted)
    assert dict(result.sets) == {vt: count_trees(g, vt) for vt, _ in result.sets}
    if hole is None:
        perms = find_automorphisms(g).perms
        orbits = {min(sum(1 << p[v] for v in range(g.n) if (vt >> v) & 1) for p in perms)
                  for vt, _ in result.sets}
        assert len(counted) == len(orbits) < len(result.sets)
    else:
        assert sorted(counted) == [vt for vt, _ in result.sets]
