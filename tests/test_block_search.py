"""The block search of `netfold.mlst._search` against the recursive search it
replaced, `helpers.recursive_search`.

Every level must give the same sets, the same node count and the same stop
reason: on the desk catalog shells, closed and with face 0 removed, and on
graphs of 65 to 130 vertices, whose masks take two or three words.  The
comparisons run again with `_CHUNK` set to 1 and 7 states, so that nearly
every block is split.  A search as deep as its interiors are large must not
hit Python's recursion limit.  On five larger shells the nodes of every
level and the number of sets and orbits are pinned to recorded values, so
that a change to the block kernel cannot alter the traversal unnoticed.
"""

import functools
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import DESK_SHELLS, flat_sets, prism_spec, recursive_search
from netfold import mlst
from netfold.catalog import builtin
from netfold.errors import BudgetExceededError
from netfold.holes import remove_faces
from netfold.mlst import enumerate_interiors
from netfold.shellgraph import ShellGraph, build_shell_graph


@functools.lru_cache(maxsize=None)
def shell(name, hole):
    spec = builtin(name)
    return build_shell_graph(remove_faces(spec, [0]) if hole else spec)


def cycle(n):
    return ShellGraph.from_edges(n, [(v, (v + 1) % n) for v in range(n)])


def prism(k):
    """Two k-cycles joined by k rungs."""
    return ShellGraph.from_edges(2 * k, [
        e for v in range(k) for e in ((v, (v + 1) % k), (k + v, k + (v + 1) % k), (v, k + v))
    ])


def compare_levels(graph, budget=10**12):
    """Runs the levels of `enumerate_interiors` through both searches, which
    must agree, up to the first level that finds sets or overruns; returns
    the nodes of every level."""
    seeds = mlst._seeds(graph)
    seed_size = seeds[0][0].bit_count()
    levels = []
    for n_s in range(seed_size, graph.n + 1):
        args = (graph, seeds, n_s - seed_size, budget - sum(levels))
        found, nodes, stop = mlst._search(*args)
        want, want_nodes, want_stop = recursive_search(*args)
        assert (nodes, stop) == (want_nodes, want_stop)
        if stop is None:
            # sets found before an overrun depend on the order of the search
            assert sorted(found) == sorted(want)
        levels.append(nodes)
        if found or stop:
            return levels
    raise AssertionError("no level found a set")


@pytest.mark.parametrize("hole", [False, True], ids=["closed", "hole0"])
@pytest.mark.parametrize("name", DESK_SHELLS)
def test_block_search_matches_the_recursion_on_desk_shells(name, hole):
    g = shell(name, hole)
    levels = compare_levels(g)
    assert [r.nodes for r in enumerate_interiors(g).level_reports] == levels


@st.composite
def long_graphs(draw):
    """Connected graphs of 65 to 130 vertices, randomly labelled: a path or
    a cycle through every vertex, plus up to three chords."""
    n = draw(st.integers(min_value=65, max_value=130))
    label = draw(st.permutations(range(n)))
    edges = [(v, v + 1) for v in range(n - 1)]
    if draw(st.booleans()):
        edges.append((n - 1, 0))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] != e[1])
    edges += draw(st.lists(pairs, max_size=3))
    return ShellGraph.from_edges(n, [(label[u], label[v]) for u, v in edges])


@settings(max_examples=15)
@given(long_graphs())
@example(prism(33))
@example(cycle(70))
def test_block_search_matches_the_recursion_on_multiword_graphs(g):
    # a budget keeps the chorded graphs, whose searches grow fast, cheap;
    # the levels before an overrun are still compared in full
    compare_levels(g, budget=30_000)


@pytest.mark.parametrize("chunk", [1, 7])
def test_split_blocks_match_the_recursion(monkeypatch, chunk):
    monkeypatch.setattr(mlst, "_CHUNK", chunk)
    for g in (shell("dodecahedron", False), shell("cuboctahedron", True), shell("truncated_cube", True),
              cycle(70), prism(33)):
        compare_levels(g, budget=20_000)


def test_every_budget_holds_on_a_two_word_graph():
    g = prism(33)
    full = sum(compare_levels(g))
    for budget_nodes in (1, 2, 63, 4096, 4097, 50_000, full - 1):
        with pytest.raises(BudgetExceededError, match=f"^node budget {budget_nodes} exceeded") as exc:
            enumerate_interiors(g, budget_nodes=budget_nodes)
        assert budget_nodes <= sum(r.nodes for r in exc.value.partial) <= budget_nodes + 1
    assert enumerate_interiors(g, budget_nodes=full).nodes_visited == full


def _stack_depth():
    frame, depth = sys._getframe(), 0
    while frame is not None:
        frame, depth = frame.f_back, depth + 1
    return depth


def test_a_deep_search_does_not_recurse():
    # a 300-cycle's interiors are its 298-vertex paths: a search recursing
    # once per vertex taken would need some 300 frames more than it is given
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(_stack_depth() + 100)
    try:
        result = enumerate_interiors(cycle(300))
    finally:
        sys.setrecursionlimit(limit)
    assert (result.n_interior, len(flat_sets(result))) == (298, 300)


# (spec, hole) -> first interior size, nodes of each level from it, sets
# and orbits of sets, as the search visited them when this test was added
RECORDED = {
    ("truncated_cuboctahedron", False): (1, (0,) + (3,) * 21 + (6483, 1752395), 2928, 61),
    ("pentakis_dodecahedron", False): (1, (0, 8, 8, 8, 8, 8, 116, 1799, 24488, 267152), 1620, 17),
    ("icosidodecahedron", False): (1, (0,) + (4,) * 8 + (66, 1439, 24501, 248764, 1490643), 6360, 53),
    ("prism40", False): (1, (0,) + (3,) * 37 + (19800, 489065), 3202, 22),
    ("snub_cube", True): (3, (0, 7, 7, 7, 40, 672, 6815), 105, 105),
}


@pytest.mark.parametrize("name, hole", RECORDED, ids=[f"{n}-hole0" if h else n for n, h in RECORDED])
def test_the_traversal_keeps_its_recorded_counts(name, hole):
    # the 40-gonal prism's 80 vertices take two words per set
    spec = prism_spec(40) if name == "prism40" else builtin(name)
    result = enumerate_interiors(build_shell_graph(remove_faces(spec, [0]) if hole else spec))
    first, nodes, n_sets, n_orbits = RECORDED[name, hole]
    assert [(r.n_interior, r.nodes) for r in result.level_reports] == list(enumerate(nodes, first))
    assert result.nodes_visited == sum(nodes)
    assert (len(flat_sets(result)), len(result.orbits)) == (n_sets, n_orbits)
