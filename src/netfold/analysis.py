"""Closed-form size estimates and the catalog-wide statistics table.

The estimates are trend lines over the whole shell family, not per-shell
predictions; the statistics table therefore always reports the exact values
next to them so residuals stay visible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .catalog import CATALOG, builtin, catalog_entry
from .errors import BudgetExceededError, ValidationError
from .mlst import (
    DEFAULT_NODE_BUDGET,
    count_labeled_cuts,
    enumerate_interiors,
)
from .polyhedra import PolyhedronSpec
from .shellgraph import build_shell_graph, count_spanning_trees
from .symmetry import count_net_classes, edge_set_stabilizer, find_automorphisms


def leaf_estimate(n_edges: int) -> Fraction:
    """Trend for the leaf count of an optimal cut: E/4 + 2."""
    if n_edges <= 0:
        raise ValidationError("edge count must be positive")
    return Fraction(n_edges, 4) + 2


def leaf_estimate_v(n_vertices: int) -> Fraction:
    """Leaf-count trend in vertex form: (V + 3)/2."""
    if n_vertices < 4:
        raise ValidationError("a shell has at least 4 vertices")
    return Fraction(n_vertices + 3, 2)


def vertex_estimate(n_edges: int) -> Fraction:
    """Trend for the vertex count of a shell with E edges: E/2 + 1."""
    if n_edges <= 0:
        raise ValidationError("edge count must be positive")
    return Fraction(n_edges, 2) + 1


@dataclass(frozen=True)
class RatioEstimate:
    """Trend for the optimal-cut share of spanning trees, 2^((3-E)/2)."""

    value: float
    log2: Fraction


def mlst_ratio_estimate(n_edges: int) -> RatioEstimate:
    if n_edges <= 0:
        raise ValidationError("edge count must be positive")
    exponent = Fraction(3 - n_edges, 2)
    return RatioEstimate(value=2.0 ** float(exponent), log2=exponent)


@dataclass(frozen=True)
class ShellStatistics:
    """One row of the catalog statistics table.

    `status` is "complete", "partial" (search hit its budget; note says how
    far it got), or "skipped" (a long-run shell without the long-run flag).
    Counts that depend on the search are None unless complete.
    """

    name: str
    n_vertices: int
    n_edges: int
    n_faces: int
    closed: bool
    n_spanning_trees: int
    n_automorphisms: int
    leaf_count: Optional[int]
    n_optimal_cuts: Optional[int]
    n_optimal_nets: Optional[int]
    nodes_visited: int
    status: str
    note: str = ""

    @property
    def optimal_ratio(self) -> Optional[Fraction]:
        """Exact share of spanning trees that are optimal cuts."""
        if self.n_optimal_cuts is None or not self.closed:
            return None
        return Fraction(self.n_optimal_cuts, self.n_spanning_trees)


def compute_statistics(
    spec: PolyhedronSpec,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    time_limit: Optional[float] = None,
    search: bool = True,
    skip_note: str = "",
) -> ShellStatistics:
    """Exact per-shell statistics, within a node budget.

    Counts come without materializing the cut list: interior enumeration,
    then product counting and fixed-point counting under the subgroup that
    preserves the hole boundary (the whole group for a closed shell).  A
    partial row's `nodes_visited` sums the search's level reports.
    """
    graph = build_shell_graph(spec)
    n_st = count_spanning_trees(graph)
    group = find_automorphisms(graph)
    base = dict(
        name=spec.name,
        n_vertices=graph.n,
        n_edges=graph.m,
        n_faces=len(graph.faces),
        closed=not graph.boundary_edges,
        n_spanning_trees=n_st,
        n_automorphisms=group.order,
    )
    if not search:
        return ShellStatistics(
            **base, leaf_count=None, n_optimal_cuts=None, n_optimal_nets=None,
            nodes_visited=0, status="skipped", note=skip_note,
        )
    try:
        interiors = enumerate_interiors(graph, budget_nodes=budget_nodes, time_limit=time_limit)
    except BudgetExceededError as exc:
        return ShellStatistics(
            **base, leaf_count=None, n_optimal_cuts=None, n_optimal_nets=None,
            nodes_visited=sum(r.nodes for r in exc.partial),
            status="partial", note=str(exc),
        )
    stab = edge_set_stabilizer(graph, group, graph.boundary_edges)
    return ShellStatistics(
        **base, leaf_count=interiors.leaf_count,
        n_optimal_cuts=count_labeled_cuts(interiors),
        n_optimal_nets=count_net_classes(graph, interiors.sets, stab),
        nodes_visited=interiors.nodes_visited, status="complete",
    )


def build_statistics_table(
    names: Optional[Sequence[str]] = None,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    long_run: bool = False,
    time_limit: Optional[float] = None,
) -> list[ShellStatistics]:
    """Statistics rows for catalog shells (all of them by default).

    Shells marked long-run are fully computed only when `long_run` is set;
    otherwise their row carries the cheap exact columns (counts of spanning
    trees and automorphisms) and is marked skipped.
    """
    if names is None:
        names = [entry.name for entry in CATALOG]
    rows = []
    for name in names:
        entry = catalog_entry(name)
        run = long_run or not entry.long_run
        row = compute_statistics(
            builtin(name), budget_nodes=budget_nodes, time_limit=time_limit, search=run,
            skip_note="" if run else "long-run shell; pass the long-run flag to compute",
        )
        if row.status == "complete":
            note = row.note
            if row.leaf_count != entry.leaf_count:
                note = f"leaf count {row.leaf_count} differs from reference {entry.leaf_count}"
            elif row.n_optimal_nets != entry.optimal_nets:
                note = f"net count {row.n_optimal_nets} differs from reference {entry.optimal_nets}"
            if note != row.note:
                row = ShellStatistics(**{**row.__dict__, "note": note})
        rows.append(row)
    return rows


@dataclass(frozen=True)
class EstimateRow:
    """Exact values next to every trend estimate, with residuals."""

    name: str
    n_vertices: int
    n_edges: int
    leaf_count: Optional[int]
    leaf_trend: Fraction
    leaf_trend_v: Fraction
    vertex_trend: Fraction
    ratio_log2: Optional[float]
    ratio_trend_log2: Fraction

    @property
    def leaf_residual(self) -> Optional[Fraction]:
        if self.leaf_count is None:
            return None
        return self.leaf_count - self.leaf_trend

    @property
    def ratio_log2_residual(self) -> Optional[float]:
        if self.ratio_log2 is None:
            return None
        return self.ratio_log2 - float(self.ratio_trend_log2)


def estimate_comparison(rows: Sequence[ShellStatistics]) -> list[EstimateRow]:
    out = []
    for row in rows:
        ratio = row.optimal_ratio
        out.append(EstimateRow(
            name=row.name,
            n_vertices=row.n_vertices,
            n_edges=row.n_edges,
            leaf_count=row.leaf_count,
            leaf_trend=leaf_estimate(row.n_edges),
            leaf_trend_v=leaf_estimate_v(row.n_vertices),
            vertex_trend=vertex_estimate(row.n_edges),
            ratio_log2=None if ratio is None else math.log2(ratio),
            ratio_trend_log2=mlst_ratio_estimate(row.n_edges).log2,
        ))
    return out


def plot_data(rows: Sequence[ShellStatistics]) -> dict[str, list[tuple[float, float]]]:
    """Plot-ready (x, y) series: leaf counts, optimal-cut share, and
    spanning trees per automorphism, each against edge count."""
    leaves = []
    ratios = []
    trees_per_aut = []
    for row in sorted(rows, key=lambda r: (r.n_edges, r.name)):
        trees_per_aut.append((float(row.n_edges), row.n_spanning_trees / row.n_automorphisms))
        if row.leaf_count is not None:
            leaves.append((float(row.n_edges), float(row.leaf_count)))
        ratio = row.optimal_ratio
        if ratio is not None:
            ratios.append((float(row.n_edges), float(ratio)))
    return {
        "leaves_vs_edges": leaves,
        "optimal_ratio_vs_edges": ratios,
        "trees_per_automorphism_vs_edges": trees_per_aut,
    }
