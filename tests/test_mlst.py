import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import interiors_from_cuts, max_leaf_brute_force
from netfold.errors import BudgetExceededError
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
    assert result.labeled_count == labeled


def test_every_cut_is_a_spanning_tree_with_stated_leaves(shell_graph):
    g = shell_graph("cube")
    result = enumerate_mlsts(g)
    for cut in result.cut_tuples():
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
        assert list(result.cut_tuples()) == sorted(filtered)


# The kernel's popcount multiplies past 2**63 and relies on int64 wrapping,
# which numpy scalars report when the kernel runs uncompiled.
@pytest.mark.filterwarnings("ignore:overflow encountered in scalar multiply:RuntimeWarning")
def test_backend_parity_including_node_counts(shell_graph, kernel_backend):
    for name in ("cube", "truncated_tetrahedron", "cuboctahedron"):
        g = shell_graph(name)
        py = enumerate_mlsts(g, backend="python")
        nb = enumerate_mlsts(g, backend=kernel_backend)
        assert (py.backend, nb.backend) == ("python", "numba")
        assert py.leaf_count == nb.leaf_count
        assert np.array_equal(py.cuts, nb.cuts)
        assert py.nodes_visited == nb.nodes_visited
        py_int = enumerate_interiors(g, backend="python")
        nb_int = enumerate_interiors(g, backend=kernel_backend)
        assert py_int.interiors == nb_int.interiors
        assert py_int.level_reports == nb_int.level_reports


def test_rows_sorted_and_unique(shell_graph):
    result = enumerate_mlsts(shell_graph("icosahedron"))
    rows = [tuple(int(e) for e in row) for row in result.cuts]
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)
    assert all(list(row) == sorted(row) for row in rows)


def test_budget_error_carries_partial_stats(shell_graph):
    for budget_nodes in (50, 200):
        for workers in (1, 2):
            with pytest.raises(BudgetExceededError) as exc:
                enumerate_mlsts(shell_graph("dodecahedron"), budget_nodes=budget_nodes,
                                workers=workers)
            partial = exc.value.partial
            assert all(isinstance(r, LevelReport) for r in partial)
            assert sum(r.nodes for r in partial) > budget_nodes


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
        assert count_labeled_cuts(interiors) == materialized.labeled_count
        # interiors recovered from the cut list are the same set
        assert interiors.interiors == interiors_from_cuts(g, materialized.cuts)


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
    result = enumerate_mlsts(g, backend="python")
    assert result.leaf_count == best
    assert list(result.cut_tuples()) == sorted(filtered)
