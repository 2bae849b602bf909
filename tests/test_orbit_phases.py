"""Orbit-rooted phases of the closed-shell search against the root-set search.

`enumerate_interiors` runs one phase per vertex orbit of the root set and
rebuilds the interiors from their orbits; `helpers.root_set_interiors` runs
one phase per root-set vertex with no symmetry.  Both must give the same
interiors, and the orbit phases may only visit fewer nodes.
"""

import functools
import random

import pytest
from hypothesis import given, settings

from helpers import frucht_graph, root_set_interiors
from netfold import mlst
from netfold.catalog import CATALOG, builtin, catalog_entry
from netfold.cli import EXIT_OK, main
from netfold.mlst import InteriorResult, count_labeled_cuts, enumerate_interiors
from netfold.shellgraph import ShellGraph, build_shell_graph
from netfold.symmetry import count_net_classes, find_automorphisms
from test_mlst import connected_graphs

DESK_SHELLS = [entry.name for entry in CATALOG if not entry.long_run]


@functools.lru_cache(maxsize=None)
def catalog_graph(name):
    return build_shell_graph(builtin(name))


@functools.lru_cache(maxsize=None)
def oracle(name):
    return root_set_interiors(catalog_graph(name))


def counts(graph, leaf_count, interiors):
    """Labeled cut count and class count of an interior set."""
    result = InteriorResult(
        graph=graph, leaf_count=leaf_count, n_interior=graph.n - leaf_count,
        interiors=interiors, nodes_visited=0, level_reports=(),
    )
    group = find_automorphisms(graph)
    return count_labeled_cuts(result), count_net_classes(graph, interiors, group)


def relabeled(graph, perm):
    """The graph with vertex v renamed perm[v]."""
    return ShellGraph.from_edges(graph.n, [(perm[u], perm[v]) for u, v in graph.edges])


def map_interiors(graph, image, perm, interiors):
    """Interiors of `graph` renamed into `image` = relabeled(graph, perm)."""
    out = []
    for vt, edges in interiors:
        mapped_vt = sum(1 << perm[v] for v in range(graph.n) if (vt >> v) & 1)
        mapped = []
        for e in edges:
            a, b = perm[graph.edges[e][0]], perm[graph.edges[e][1]]
            mapped.append(image.edge_index[(min(a, b), max(a, b))])
        out.append((mapped_vt, tuple(sorted(mapped))))
    return tuple(sorted(out, key=lambda it: (it[1], it[0])))


def truncated_octahedron_minus_edge():
    """truncated_octahedron without its first edge whose removal leaves a
    group of order 2 (a square-hexagon edge)."""
    g = catalog_graph("truncated_octahedron")
    for k in range(g.m):
        h = ShellGraph.from_edges(g.n, g.edges[:k] + g.edges[k + 1:])
        if find_automorphisms(h).order == 2:
            return h
    raise AssertionError("no edge of truncated_octahedron leaves a group of order 2")


@pytest.fixture
def phases(monkeypatch):
    """Distinct seeds `enumerate_interiors` ran phases from, per call."""
    seen = []
    grow = mlst._grow

    def spy(graph, state, *args):
        if state not in seen:
            seen.append(state)
        return grow(graph, state, *args)

    monkeypatch.setattr(mlst, "_grow", spy)
    return seen


def n_orbits_in_root_set(graph):
    group = find_automorphisms(graph)
    return len({min(p[r] for p in group.perms) for r in mlst.root_set(graph)})


@pytest.mark.parametrize("name", DESK_SHELLS)
def test_orbit_phases_match_root_set_search(name):
    g = catalog_graph(name)
    leaf_count, interiors, nodes = oracle(name)
    result = enumerate_interiors(g, workers=1)
    assert result.leaf_count == leaf_count == catalog_entry(name).leaf_count
    assert result.interiors == interiors
    assert result.nodes_visited <= nodes
    labeled, classes = counts(g, leaf_count, interiors)
    assert count_labeled_cuts(result) == labeled
    assert count_net_classes(g, result.interiors, find_automorphisms(g)) == classes
    assert classes == catalog_entry(name).optimal_nets


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", ["truncated_cube", "truncated_cuboctahedron"])
def test_orbit_phases_on_relabelled_shells(name, seed):
    g = catalog_graph(name)
    perm = list(range(g.n))
    random.Random(seed).shuffle(perm)
    h = relabeled(g, perm)
    leaf_count, interiors, _ = oracle(name)
    result = enumerate_interiors(h, workers=1)
    assert result.leaf_count == leaf_count
    assert result.interiors == map_interiors(g, h, perm, interiors)
    assert counts(h, result.leaf_count, result.interiors) == counts(g, leaf_count, interiors)


@pytest.mark.parametrize("name", ["octagonal_pyramid", "octagonal_dipyramid"])
def test_two_orbit_shells_run_two_phases(name, phases):
    g = catalog_graph(name)
    assert n_orbits_in_root_set(g) == 2
    assert enumerate_interiors(g, workers=1).interiors == oracle(name)[1]
    assert len(phases) == 2


@pytest.mark.parametrize("name", ["cube", "dodecahedron", "truncated_cube", "snub_cube"])
def test_vertex_transitive_shell_runs_one_phase(name, phases):
    enumerate_interiors(catalog_graph(name), workers=1)
    assert len(phases) == 1


def test_orbit_phases_with_a_group_of_order_two(phases):
    g = truncated_octahedron_minus_edge()
    leaf_count, interiors, nodes = root_set_interiors(g)
    result = enumerate_interiors(g, workers=1)
    assert (result.leaf_count, result.interiors) == (leaf_count, interiors)
    # the root set meets three orbits, but the first phase's orbit also holds
    # the far end of the removed edge, which the later phases bar
    assert len(phases) == n_orbits_in_root_set(g) == len(mlst.root_set(g)) == 3
    assert result.nodes_visited < nodes


def test_trivial_group_searches_node_for_node_like_the_root_set(phases):
    g = frucht_graph()
    assert find_automorphisms(g).order == 1
    leaf_count, interiors, nodes = root_set_interiors(g)
    result = enumerate_interiors(g, workers=1)
    assert (result.leaf_count, result.interiors) == (leaf_count, interiors)
    assert result.nodes_visited == nodes
    assert len(phases) == len(mlst.root_set(g))


@settings(max_examples=50)
@given(connected_graphs())
def test_orbit_phases_on_random_graphs(g):
    leaf_count, interiors, nodes = root_set_interiors(g)
    result = enumerate_interiors(g)
    assert (result.leaf_count, result.interiors) == (leaf_count, interiors)
    assert result.nodes_visited <= nodes
    if find_automorphisms(g).order == 1:
        assert result.nodes_visited == nodes


def test_worker_counts_agree_on_several_phases(tmp_path, capsys):
    g = truncated_octahedron_minus_edge()
    one, four = (enumerate_interiors(g, workers=w) for w in (1, 4))
    assert one.interiors == four.interiors
    assert one.level_reports == four.level_reports
    blobs = []
    for workers in ("1", "4"):
        d = tmp_path / workers
        for command in ("enumerate", "count"):
            argv = [command, "--builtin", "octagonal_dipyramid", "--workers", workers]
            assert main(argv + ["--out-dir", str(d)]) == EXIT_OK
        blobs.append((capsys.readouterr().out.replace(str(d), "DIR"),
                      (d / "enumeration.json").read_bytes(), (d / "classes.json").read_bytes()))
    assert blobs[0] == blobs[1]


def test_group_is_found_once_per_graph(monkeypatch, capsys):
    from netfold import symmetry

    calls = []
    search = symmetry._search_automorphisms

    def spy(graph):
        calls.append(graph)
        return search(graph)

    monkeypatch.setattr(symmetry, "_search_automorphisms", spy)
    for command in ("enumerate", "rank", "count"):
        calls.clear()
        assert main([command, "--builtin", "cube", "--workers", "1"]) == EXIT_OK
        assert len(calls) == 1, command
    g = catalog_graph("cube")
    assert find_automorphisms(g) is find_automorphisms(g)
