import itertools
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
    per_member_listing,
)
from netfold import mlst
from netfold.catalog import builtin
from netfold.cli import EXIT_BUDGET, EXIT_OK, main
from netfold.errors import BudgetExceededError, ValidationError
from netfold.holes import remove_faces
from netfold.mlst import LevelReport, count_labeled_cuts, enumerate_interiors, enumerate_mlsts, list_classes
from netfold.shellgraph import (
    ShellGraph,
    build_shell_graph,
    cut_leaves,
    enumerate_spanning_trees,
    is_spanning_tree,
)
from netfold.symmetry import cut_group, dedupe_cuts

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


def test_rank_runs_where_the_listing_is_refused(tmp_path, monkeypatch, capsys):
    # on a 1 MiB machine truncated_cube's listing is refused (above), while
    # its class listing, 528 cuts on first members, takes 118,272 bytes
    monkeypatch.setattr(mlst, "_physical_memory", lambda: 2**20)
    out = tmp_path / "out"
    assert main(["rank", "--builtin", "truncated_cube", "--out-dir", str(out)]) == EXIT_OK
    assert "399 nets ranked" in capsys.readouterr().out
    assert len((out / "ranking.csv").read_text().splitlines()) == 400
    assert main(["enumerate", "--builtin", "truncated_cube"]) == EXIT_BUDGET


@pytest.mark.parametrize("command", ["rank", "export-svg"])
def test_class_listing_larger_than_memory_is_refused_before_allocation(tmp_path, monkeypatch, capsys, command):
    # truncated_cube's 11 first members hold 528 cuts of 23 edges, each
    # listed and sorted (2 x 23 x 4 bytes) with a one-word key and four
    # int64: 118,272 bytes
    entered = []
    monkeypatch.setattr(mlst, "_physical_memory", lambda: 118_271)
    monkeypatch.setattr(mlst, "_listing", lambda *args: entered.append(args))
    out = tmp_path / "out"
    assert main([command, "--builtin", "truncated_cube", "--out-dir", str(out)]) == EXIT_BUDGET
    err = capsys.readouterr().err
    assert "budget exhausted: the class listing needs" in err
    assert "528 x (2 x 23 x 4 + 8 x 1 + 32) = 118272 bytes" in err
    assert "more than the 118271 bytes of physical memory" in err
    assert entered == []
    assert not any(out.iterdir())


def test_class_listing_gate_is_what_it_allocates(shell_graph, monkeypatch):
    # the cube's 2 first members hold 8 cuts of 7 edges: 8 x 96 = 768 bytes
    result = enumerate_interiors(shell_graph("cube"))
    monkeypatch.setattr(mlst, "_physical_memory", lambda: 767)
    with pytest.raises(BudgetExceededError, match=r"8 x \(2 x 7 x 4 \+ 8 x 1 \+ 32\) = 768 bytes .* 767 bytes") as exc:
        list_classes(result)
    assert exc.value.partial == result.level_reports
    monkeypatch.setattr(mlst, "_physical_memory", lambda: 768)
    assert len(list_classes(result)) == 4


def test_class_listing_out_of_memory_is_a_budget_error(shell_graph, monkeypatch):
    def short_of_memory(*args):
        raise MemoryError

    monkeypatch.setattr(mlst, "_listing", short_of_memory)
    with pytest.raises(BudgetExceededError, match=r"= 768 bytes .* which could not be allocated"):
        list_classes(enumerate_interiors(shell_graph("cube")))


# closed shells, truncated_cuboctahedron with E = 72 and two key words, and
# holes
CLASS_SHELLS = [
    ("cube", None), ("dodecahedron", None), ("cuboctahedron", None), ("truncated_cube", None),
    ("rhombicuboctahedron", None), ("truncated_octahedron", None), ("snub_cube", None),
    ("truncated_cuboctahedron", None), ("truncated_cube", 0), ("truncated_octahedron", 3), ("dodecahedron", 0),
]


@pytest.mark.parametrize("name,hole", CLASS_SHELLS)
def test_class_listing_equals_the_full_route(name, hole):
    spec = builtin(name)
    g = build_shell_graph(spec if hole is None else remove_faces(spec, [hole]))
    want = dedupe_cuts(g, enumerate_mlsts(g).cuts, cut_group(g))
    got = list_classes(enumerate_interiors(g))
    assert got.cuts.dtype == want.cuts.dtype == np.int32
    assert np.array_equal(got.cuts, want.cuts)
    assert np.array_equal(got.orbit_sizes, want.orbit_sizes)


def test_class_listing_checks_each_first_members_trees_and_hole_cuts(monkeypatch):
    # the class listing lists trees only on first members and checks them as
    # the full listing does: a lost tree fails, and every cut it lists goes
    # through the hole-cut check
    g = build_shell_graph(remove_faces(builtin("truncated_cube"), [0]))
    result = enumerate_interiors(g)
    merged = mlst.merged_spanning_trees
    monkeypatch.setattr(mlst, "merged_spanning_trees", lambda *args: merged(*args)[1:])
    with pytest.raises(ValidationError, match=r"lists \d+ trees but counts \d+"):
        list_classes(result)
    monkeypatch.setattr(mlst, "merged_spanning_trees", merged)
    checked = []
    monkeypatch.setattr(mlst, "check_hole_cuts", lambda graph, cuts: checked.append(len(cuts)))
    list_classes(result)
    assert checked == [sum(mlst._first_member_cuts(result))]


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


@pytest.mark.parametrize("name,hole,order,n_sets,n_orbits", [
    ("truncated_cube", None, 48, 384, 11), ("truncated_octahedron", None, 48, 580, 16),
    ("cuboctahedron", None, 48, 72, 2), ("truncated_cube", 0, 8, 45, 8),
])
def test_trees_mapped_from_each_orbit_equal_the_per_member_listing(name, hole, order, n_sets, n_orbits, monkeypatch):
    # trees are listed on the first member of each orbit of sets only and
    # mapped onto the others by the cut group; the listing must equal the
    # one that listed every member's own trees
    spec = builtin(name)
    g = build_shell_graph(spec if hole is None else remove_faces(spec, [hole]))
    assert cut_group(g).order == order
    listed = []
    merged = mlst.merged_spanning_trees

    def spy(graph, vt, seed):
        listed.append(vt)
        return merged(graph, vt, seed)

    monkeypatch.setattr(mlst, "merged_spanning_trees", spy)
    result = enumerate_mlsts(g)
    assert sum(len(members) for members, _ in result.orbits) == n_sets
    assert listed == [members[0] for members, _ in result.orbits] and len(listed) == n_orbits
    assert cut_tuples(result) == per_member_listing(result)


def test_a_tree_mapped_off_its_set_is_rejected(monkeypatch):
    # a group table row that does not take the first member's trees onto the
    # member it stands for fails the listing; a fresh graph, so that no
    # other test sees the patched table
    g = build_shell_graph(builtin("cube"))
    group = cut_group(g)
    members = next(members for members, _ in enumerate_interiors(g).orbits if len(members) > 1)
    k = group.orbit(members[0])[2][1]  # the perm taking members[0] to members[1]
    table = group.edge_perms.copy()
    table[k] = np.arange(g.m)  # leaves the trees on members[0]
    monkeypatch.setitem(group.__dict__, "edge_perms", table)
    with pytest.raises(ValidationError, match=rf"set {members[1]:#x}: a tree mapped from set {members[0]:#x} leaves it"):
        enumerate_mlsts(g)


@pytest.mark.parametrize("m", [200, 256, 257, 1000, 70_000])
def test_listing_sorts_with_keys_of_any_width(m):
    # the sort keys are uint8 up to 256 edges, uint16 up to 65536 and
    # uint32 beyond; every width gives the rows an int32 lexsort gives
    rng = np.random.default_rng(m)
    plans = []
    for _ in range(6):
        trees = rng.choice(m - 20, size=(3, 2), replace=False).astype(np.int32) + 20
        choices = [(2 + rng.choice(18, size=int(rng.integers(1, 4)), replace=False)).tolist() for _ in range(3)]
        plans.append((trees, choices))
    n_cuts = sum(len(trees) * np.prod([len(c) for c in choices]) for trees, choices in plans)
    cuts = mlst._listing(plans, (0, 1), int(n_cuts), 4, 7, m)
    rows = np.sort(np.concatenate([
        np.array([(0, 1, *tree, *combo) for tree in trees.tolist() for combo in itertools.product(*choices)])
        for trees, choices in plans
    ]), axis=1)
    assert cuts.dtype == np.int32
    assert np.array_equal(cuts, rows[np.lexsort(rows.T[::-1].astype(np.int32))])


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
