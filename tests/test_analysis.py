import math
from fractions import Fraction

import pytest

from helpers import DESK_SHELLS, ratio_rank_correlation, ratio_trend_envelope, reference_stabilizer
from netfold.analysis import (
    build_statistics_table,
    compute_statistics,
    estimate_comparison,
    leaf_estimate,
    leaf_estimate_v,
    mlst_ratio_estimate,
    plot_data,
    vertex_estimate,
)
from netfold.catalog import builtin, catalog_entry
from netfold.errors import BudgetExceededError, ValidationError
from netfold.holes import remove_faces
from netfold.mlst import enumerate_interiors, enumerate_mlsts
from netfold.shellgraph import build_shell_graph
from netfold.symmetry import dedupe_cuts, find_automorphisms


@pytest.fixture(scope="module")
def fast_rows():
    return build_statistics_table(names=DESK_SHELLS)


def test_leaf_estimate_examples():
    assert leaf_estimate(12) == Fraction(5)
    assert leaf_estimate(90) == Fraction(49, 2)
    with pytest.raises(ValidationError):
        leaf_estimate(0)


def test_leaf_estimate_v_examples():
    assert leaf_estimate_v(8) == Fraction(11, 2)
    assert leaf_estimate_v(4) == Fraction(7, 2)
    assert leaf_estimate_v(60) == Fraction(63, 2)
    with pytest.raises(ValidationError):
        leaf_estimate_v(3)


def test_vertex_estimate_examples():
    assert vertex_estimate(12) == Fraction(7)
    assert vertex_estimate(30) == Fraction(16)
    assert vertex_estimate(90) == Fraction(46)


def test_ratio_estimate_examples():
    r12 = mlst_ratio_estimate(12)
    assert r12.log2 == Fraction(-9, 2)
    assert math.isclose(r12.value, 2.0 ** -4.5)
    assert mlst_ratio_estimate(3).value == 1.0
    r30 = mlst_ratio_estimate(30)
    assert math.isclose(r30.value, 2.0 ** -13.5)


def test_cube_statistics_row():
    row = compute_statistics(builtin("cube"))
    assert (row.n_vertices, row.n_edges, row.n_faces) == (8, 12, 6)
    assert row.n_spanning_trees == 384
    assert row.n_automorphisms == 48
    assert row.leaf_count == 4
    assert row.n_optimal_cuts == 120
    assert row.n_optimal_nets == 4
    assert row.status == "complete" and row.note == ""
    assert row.optimal_ratio == Fraction(120, 384)


def test_open_shell_statistics_row():
    row = compute_statistics(remove_faces(builtin("cube"), [0]))
    assert not row.closed
    assert row.n_optimal_cuts == 1 and row.n_optimal_nets == 1
    assert row.optimal_ratio is None


# (shell, removed faces, labeled optimal cuts, net classes)
OPEN_SHELLS = [
    ("truncated_cube", [0], 3280, 420),
    ("rhombicuboctahedron", [0], 2784, 354),
    ("icosahedron", [0], 1224, 204),
    ("dodecahedron", [0], 240, 24),
    ("truncated_octahedron", [0], 96, 16),
    ("cuboctahedron", [0], 36, 6),
    ("octahedron", [0], 8, 2),
    ("cube", [0, 1], 4, 2),
    ("cube", [0], 1, 1),
]


@pytest.mark.parametrize("name,hole,labeled,classes", OPEN_SHELLS)
def test_open_shell_counts_match_listing_and_dedupe(name, hole, labeled, classes):
    spec = remove_faces(builtin(name), hole)
    row = compute_statistics(spec)
    graph = build_shell_graph(spec)
    cuts = enumerate_mlsts(graph).cuts
    stab = reference_stabilizer(graph, find_automorphisms(graph), graph.boundary_edges)
    assert (row.n_optimal_cuts, row.n_optimal_nets) == (labeled, classes)
    assert row.n_optimal_cuts == len(cuts)
    assert row.n_optimal_nets == len(dedupe_cuts(graph, cuts, stab))


def test_catalog_rows_match_reference(fast_rows):
    assert [row.name for row in fast_rows] == list(DESK_SHELLS)
    for row in fast_rows:
        entry = catalog_entry(row.name)
        assert row.status == "complete"
        assert row.note == ""  # any reference mismatch would be recorded here
        assert row.leaf_count == entry.leaf_count
        assert row.n_optimal_nets == entry.optimal_nets
        assert (row.n_vertices, row.n_edges, row.n_faces) == (
            entry.n_vertices, entry.n_edges, entry.n_faces,
        )


def test_a_shell_past_its_budget_keeps_its_cheap_columns():
    # every shell is searched within the budget; one it cannot finish gets
    # a partial row that still counts its spanning trees and automorphisms
    rows = build_statistics_table(names=["icosidodecahedron"], budget_nodes=1000)
    (row,) = rows
    assert row.status == "partial"
    assert "node budget 1000 exceeded" in row.note
    assert row.leaf_count is None and row.n_optimal_nets is None
    assert row.n_spanning_trees > 0 and row.n_automorphisms == 120


def test_partial_row_on_budget_exhaustion(shell_graph):
    for budget_nodes in (50, 200):
        rows = build_statistics_table(names=["dodecahedron"], budget_nodes=budget_nodes)
        (row,) = rows
        assert row.status == "partial"
        assert "allowance" in row.note or "exceeded" in row.note
        assert row.n_optimal_nets is None
        with pytest.raises(BudgetExceededError) as exc:
            enumerate_interiors(shell_graph("dodecahedron"), budget_nodes=budget_nodes)
        assert row.nodes_visited == sum(r.nodes for r in exc.value.partial) > budget_nodes


def test_ratio_trend_envelope(fast_rows):
    # The trend is an order-of-magnitude scatter line: the bulk of the
    # catalog sits within a factor 8, and even the worst outliers
    # (truncated cube 51.9x, rhombicuboctahedron 33.0x) stay within 60x.
    factors = dict(ratio_trend_envelope(fast_rows))
    within_60 = [f for name, f in factors.items()
                 if next(r for r in fast_rows if r.name == name).n_edges <= 60]
    assert all(f <= 60.0 for f in within_60), factors
    assert sum(f <= 8.0 for f in within_60) >= len(within_60) // 2
    assert factors["truncated_cube"] == pytest.approx(51.9, abs=0.1)


def test_ratio_rank_correlation_is_strictly_negative(fast_rows):
    assert ratio_rank_correlation(fast_rows) < 0.0


def test_plot_data_series(fast_rows):
    series = plot_data(fast_rows)
    n = len(fast_rows)
    assert len(series["leaves_vs_edges"]) == n
    assert len(series["optimal_ratio_vs_edges"]) == n
    assert len(series["trees_per_automorphism_vs_edges"]) == n
    xs = [x for x, _ in series["leaves_vs_edges"]]
    assert xs == sorted(xs)


def test_estimate_comparison_rows(fast_rows):
    rows = estimate_comparison(fast_rows)
    cube = next(r for r in rows if r.name == "cube")
    assert cube.leaf_trend == Fraction(5)
    assert cube.leaf_residual == Fraction(-1)
    assert cube.ratio_trend_log2 == Fraction(-9, 2)
    assert math.isclose(cube.ratio_log2, math.log2(120 / 384))
