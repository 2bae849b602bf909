"""Reference implementations the tests compare netfold against.

Each one is deliberately simple and independent of the code it checks:
brute-force filters, recovery of interiors from explicit cut lists, a
whole-group canonical form for a single cut, and trend statistics over the
catalog table.
"""

import math
from typing import Sequence

import numpy as np
from scipy.stats import spearmanr

from netfold.analysis import ShellStatistics, mlst_ratio_estimate
from netfold.errors import ValidationError
from netfold.shellgraph import ShellGraph, cut_leaves
from netfold.symmetry import AutomorphismGroup, CanonicalCut, edge_permutations


def max_leaf_brute_force(graph: ShellGraph, trees):
    """Filter an explicit spanning-tree list down to the maximum-leaf ones.

    Feed it the output of `enumerate_spanning_trees` and compare sets with
    `enumerate_mlsts`.
    """
    best = -1
    keep = []
    for t in trees:
        leaves = len(cut_leaves(graph, t))
        if leaves > best:
            best = leaves
            keep = [t]
        elif leaves == best:
            keep.append(t)
    keep.sort()
    return best, keep


def interiors_from_cuts(graph: ShellGraph, cuts: np.ndarray, base_edges: Sequence[int] = ()):
    """Recover the distinct interiors behind expanded cuts.

    The interior of a cut is its set of non-leaf vertices together with the
    cut edges joining two such vertices (plus any forced base edges, which
    sit inside the interior by construction).  Lets counting formulas be
    cross-checked against explicitly enumerated cuts.
    """
    base = tuple(sorted(int(e) for e in base_edges))
    seen = set()
    for row in np.asarray(cuts):
        degree = [0] * graph.n
        for e in row:
            u, v = graph.edges[int(e)]
            degree[u] += 1
            degree[v] += 1
        vt = 0
        for v in range(graph.n):
            if degree[v] >= 2:
                vt |= 1 << v
        edges = tuple(sorted(
            int(e) for e in row
            if (vt >> graph.edges[int(e)][0]) & 1 and (vt >> graph.edges[int(e)][1]) & 1
        ))
        assert set(base) <= set(edges), "base edges must lie inside the interior"
        seen.add((vt, edges))
    return tuple(sorted(seen, key=lambda it: (it[1], it[0])))


def canonical_cut(graph: ShellGraph, cut: Sequence[int], group: AutomorphismGroup) -> CanonicalCut:
    """Smallest labeled image of a cut over the whole group, with orbit size."""
    table = edge_permutations(graph, group)
    arr = np.asarray(sorted(int(e) for e in cut), dtype=np.int32)
    images = {tuple(np.sort(table[k][arr]).tolist()) for k in range(group.order)}
    return CanonicalCut(edges=min(images), orbit_size=len(images))


def ratio_trend_envelope(rows: Sequence[ShellStatistics]) -> list[tuple[str, float]]:
    """Multiplicative distance of each exact optimal-cut share from the
    trend line, as max(exact/trend, trend/exact) per completed row."""
    out = []
    for row in rows:
        ratio = row.optimal_ratio
        if ratio is None:
            continue
        trend = mlst_ratio_estimate(row.n_edges).value
        exact = float(ratio)
        out.append((row.name, max(exact / trend, trend / exact)))
    return out


def ratio_rank_correlation(rows: Sequence[ShellStatistics]) -> float:
    """Spearman rank correlation of log2 optimal-cut share against edge
    count over completed rows; the downward trend makes it negative."""
    points = [
        (row.n_edges, math.log2(row.optimal_ratio))
        for row in rows
        if row.optimal_ratio is not None
    ]
    if len(points) < 3:
        raise ValidationError("need at least 3 completed rows for a trend")
    xs, ys = zip(*points)
    return float(spearmanr(xs, ys).statistic)
