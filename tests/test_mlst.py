import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cut_tuples,
    expand_sets,
    frucht_graph,
    interiors_from_cuts,
    max_leaf_brute_force,
)
from netfold import mlst
from netfold.cli import EXIT_BUDGET, main
from netfold.errors import BudgetExceededError, ValidationError
from netfold.mlst import LevelReport, count_labeled_cuts, enumerate_interiors, enumerate_mlsts
from netfold.shellgraph import (
    ShellGraph,
    cut_leaves,
    enumerate_spanning_trees,
    is_spanning_tree,
)

# (name, leaf count, labeled optimal cut count)
SMALL_REFERENCE = [
    ("tetrahedron", 3, 4),
    ("cube", 4, 120),
    ("octahedron", 4, 48),
    ("octagonal_pyramid", 8, 1),
    ("octagonal_dipyramid", 8, 64),
    ("icosahedron", 8, 2160),
    ("dodecahedron", 10, 1980),
]


@pytest.mark.parametrize("name,leaves,labeled", SMALL_REFERENCE)
def test_small_solid_counts(name, leaves, labeled, shell_graph):
    result = enumerate_mlsts(shell_graph(name))
    assert result.leaf_count == leaves
    assert len(result.cuts) == count_labeled_cuts(result) == labeled


def test_every_cut_is_a_spanning_tree_with_stated_leaves(shell_graph):
    g = shell_graph("cube")
    result = enumerate_mlsts(g)
    for cut in cut_tuples(result):
        assert is_spanning_tree(g, cut)
        assert len(cut_leaves(g, cut)) == result.leaf_count


def test_matches_brute_force_filter(shell_graph):
    for name in ("tetrahedron", "cube", "octahedron", "octagonal_pyramid",
                 "octagonal_dipyramid"):
        g = shell_graph(name)
        trees = enumerate_spanning_trees(g)
        best, filtered = max_leaf_brute_force(g, trees)
        result = enumerate_mlsts(g)
        assert result.leaf_count == best
        assert cut_tuples(result) == sorted(filtered)


def test_rows_sorted_and_unique(shell_graph):
    result = enumerate_mlsts(shell_graph("icosahedron"))
    rows = [tuple(int(e) for e in row) for row in result.cuts]
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)
    assert all(list(row) == sorted(row) for row in rows)


def test_budget_error_carries_partial_stats(shell_graph):
    # pentakis_dodecahedron runs two phases a level, dodecahedron one
    for name in ("dodecahedron", "pentakis_dodecahedron"):
        for budget_nodes in (50, 200):
            for workers in (1, 2):
                with pytest.raises(BudgetExceededError) as exc:
                    enumerate_mlsts(shell_graph(name), budget_nodes=budget_nodes,
                                    workers=workers)
                partial = exc.value.partial
                assert all(isinstance(r, LevelReport) for r in partial)
                assert budget_nodes < sum(r.nodes for r in partial) <= budget_nodes + 1


def test_every_budget_holds_across_phases():
    # four phases a level; each one runs on what the earlier ones left
    g = frucht_graph()
    full = enumerate_interiors(g).nodes_visited
    for budget_nodes in range(1, full):
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_interiors(g, budget_nodes=budget_nodes)
        assert budget_nodes <= sum(r.nodes for r in exc.value.partial) <= budget_nodes + 1
    assert enumerate_interiors(g, budget_nodes=full).nodes_visited == full


def test_a_budget_spent_at_a_level_boundary_overruns_on_the_next_levels_first_node(shell_graph):
    # dodecahedron runs one phase: level 1 visits no node, level 2 the
    # seed's three neighbors, and the budget is gone when level 3 starts
    with pytest.raises(BudgetExceededError, match=r"^node budget 3 exceeded at interior size 3$") as exc:
        enumerate_interiors(shell_graph("dodecahedron"), budget_nodes=3)
    assert [(r.n_interior, r.nodes) for r in exc.value.partial] == [(1, 0), (2, 3), (3, 1)]


def test_a_passed_deadline_stops_a_level_before_its_first_block(shell_graph):
    # the clock is read before a block's nodes are counted, so level 2 (the
    # seed's three neighbors, one block) stops having visited no node
    with pytest.raises(BudgetExceededError, match=r"^time limit 1e-09s exceeded at interior size 2$") as exc:
        enumerate_interiors(shell_graph("dodecahedron"), time_limit=1e-9)
    assert [(r.n_interior, r.nodes) for r in exc.value.partial] == [(1, 0), (2, 0)]


def test_time_limit_holds_inside_a_level(shell_graph):
    # truncated_icosahedron's levels 1-28 visit 3 nodes each, and levels 29
    # and 30 millions (about a second of search at the default budget)
    g = shell_graph("truncated_icosahedron")
    start = time.monotonic()
    with pytest.raises(BudgetExceededError, match=r"time limit 0\.2s exceeded at interior size") as exc:
        enumerate_interiors(g, time_limit=0.2)
    assert time.monotonic() - start < 1.2
    assert exc.value.partial[-1].nodes > 0


@pytest.mark.parametrize("step", ["empty", "lexsort"])
def test_listing_out_of_memory_is_a_budget_error(shell_graph, monkeypatch, capsys, step):
    # the cube lists 120 cuts of 7 edges; a listing that does not fit in
    # memory (triakis_icosahedron's would take 9.2 GiB) must end as a budget
    # overrun that names its size, which the CLI reports with exit code 3
    real = getattr(np, step)
    # np.empty gets the listing's shape, np.lexsort its 7 columns as keys
    listing = (120, 7) if step == "empty" else (7, 120)

    def short_of_memory(first, *args, **kwargs):
        if (first if step == "empty" else np.shape(first)) == listing:
            raise MemoryError
        return real(first, *args, **kwargs)

    monkeypatch.setattr(np, step, short_of_memory)
    with pytest.raises(BudgetExceededError, match=r"120 x 7 x 4 = 3360 bytes") as exc:
        enumerate_mlsts(shell_graph("cube"))
    assert exc.value.partial[-1].n_interior == 4
    assert main(["enumerate", "--builtin", "cube"]) == EXIT_BUDGET
    assert "120 x 7 x 4 = 3360 bytes" in capsys.readouterr().err


def test_listing_larger_than_memory_is_refused_before_allocation(tmp_path, monkeypatch, capsys):
    # truncated_cube lists 18,144 cuts of 23 edges: 1,669,248 bytes, twice
    # that with the sorted copy, which a 1 MiB machine cannot hold
    entered = []
    monkeypatch.setattr(mlst, "_physical_memory", lambda: 2**20)
    monkeypatch.setattr(mlst, "_listing", lambda *args: entered.append(args))
    out = tmp_path / "out"
    assert main(["enumerate", "--builtin", "truncated_cube", "--out-dir", str(out)]) == EXIT_BUDGET
    captured = capsys.readouterr()
    assert "18144 x 23 x 4 = 1669248 bytes" in captured.err
    assert "more than the 1048576 bytes of physical memory" in captured.err
    assert entered == []
    assert not out.exists() or not any(out.iterdir())


def test_listing_gate_counts_the_sorted_copy(shell_graph, monkeypatch):
    # the cube's listing is 120 x 7 x 4 = 3360 bytes and its sorted copy as
    # much again: it fits in 6720 bytes and not in one byte fewer
    monkeypatch.setattr(mlst, "_physical_memory", lambda: 6719)
    with pytest.raises(BudgetExceededError, match=r"120 x 7 x 4 = 3360 bytes .* 6719 bytes"):
        enumerate_mlsts(shell_graph("cube"))
    monkeypatch.setattr(mlst, "_physical_memory", lambda: 6720)
    assert len(enumerate_mlsts(shell_graph("cube")).cuts) == 120


@pytest.mark.parametrize("files,limit", [
    ({}, None),
    ({"memory.max": "max\n"}, None),
    ({"memory.max": "1048576\n"}, 1048576),
    ({"memory/memory.limit_in_bytes": "9223372036854771712\n"}, None),
    ({"memory/memory.limit_in_bytes": "2097152\n"}, 2097152),
    ({"memory.max": "1048576\n", "memory/memory.limit_in_bytes": "2097152\n"}, 1048576),
])
def test_listing_gate_sees_a_cgroup_memory_limit(tmp_path, monkeypatch, files, limit):
    # a readable, numeric cgroup v2 or v1 limit below physical memory is the
    # memory a listing may take; "max", v1's unlimited value or no file is
    # no limit
    machine = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(mlst, "_CGROUP", tmp_path)
    assert mlst._physical_memory() == (machine if limit is None else limit)


def test_listed_trees_must_match_their_count(shell_graph, monkeypatch):
    # each set's listed trees are checked against its determinant count, so
    # a listing that loses a tree fails instead of coming out short
    merged = mlst.merged_spanning_trees
    monkeypatch.setattr(mlst, "merged_spanning_trees", lambda *args: merged(*args)[1:])
    with pytest.raises(ValidationError, match=r"lists \d+ trees but counts \d+"):
        enumerate_mlsts(shell_graph("cube"))


def test_worker_count_does_not_change_output(shell_graph):
    g = shell_graph("cuboctahedron")
    one = enumerate_mlsts(g, workers=1)
    four = enumerate_mlsts(g, workers=4)
    assert np.array_equal(one.cuts, four.cuts)
    assert one.nodes_visited == four.nodes_visited


def test_interiors_count_equals_materialized(shell_graph):
    for name in ("cube", "octahedron", "icosahedron", "truncated_tetrahedron"):
        g = shell_graph(name)
        materialized = enumerate_mlsts(g)
        interiors = enumerate_interiors(g)
        assert interiors.leaf_count == materialized.leaf_count
        assert count_labeled_cuts(interiors) == len(materialized.cuts)
        # interiors recovered from the cut list are the same set
        assert expand_sets(interiors) == interiors_from_cuts(g, materialized.cuts)


def test_k4_interiors_are_single_vertices():
    g = ShellGraph.from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    interiors = enumerate_interiors(g)
    assert interiors.n_interior == 1
    assert interiors.interior_count == 4
    assert count_labeled_cuts(interiors) == 4  # the 4 stars of K4


@st.composite
def connected_graphs(draw):
    n = draw(st.integers(min_value=3, max_value=7))
    edges = set()
    for v in range(1, n):
        u = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((u, v))
    extra = draw(st.sets(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda e: e[0] < e[1]),
        max_size=6,
    ))
    edges |= extra
    return ShellGraph.from_edges(n, sorted(edges))


@settings(max_examples=50)
@given(connected_graphs())
def test_search_equals_filter_on_random_graphs(g):
    trees = enumerate_spanning_trees(g)
    best, filtered = max_leaf_brute_force(g, trees)
    result = enumerate_mlsts(g)
    assert result.leaf_count == best
    assert cut_tuples(result) == sorted(filtered)
