"""Maximum leaf spanning tree enumeration.

A cut is a spanning tree of the shell graph; maximizing its leaves minimizes
vertex connections in the unfolded net.  Every optimal cut is an interior (a
connected dominating subtree of n_S vertices) plus one leaf edge per outside
vertex, so one search serves both listing and counting cuts: it grows
interiors of n_S = 1, 2, ... vertices and stops at the first size that yields
dominating ones.  A closed shell is searched in one phase per vertex orbit of
the root set (a minimum-degree vertex and its neighbors), rooted at the
orbit's first root and barring every vertex of the earlier orbits; the
phases find at least one member of every orbit of interiors, and mapping the
found interiors under the automorphism group rebuilds the whole set.  An open
shell is searched in one phase seeded with its hole boundary: the boundary
cycle is forced into every cut, and its vertices, which carry two cycle
edges, are never leaves.  The phases of a level run in order and share its
node allowance.  Node counts are the nodes the search visited.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from typing import ClassVar, Iterator, Optional

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .shellgraph import ShellGraph, leaf_choices
from .symmetry import edge_permutations, find_automorphisms

Cut = tuple[int, ...]

DEFAULT_NODE_BUDGET = 10_000_000_000


@dataclass(frozen=True)
class SearchState:
    """Seed of one interior growth phase.

    vt_mask holds the seed vertices, cov_mask the union of their closed
    neighborhoods, frontier the ascending ids of the edges leaving the seed,
    and excl_mask the vertices barred from growth (those of earlier root
    orbits).
    """

    vt_mask: int
    cov_mask: int
    frontier: tuple[int, ...]
    excl_mask: int


@dataclass(frozen=True)
class LevelReport:
    """Deterministic statistics for one interior size: the nodes the search
    visited and the interiors it found, before the orbit expansion."""

    n_interior: int
    nodes: int
    interiors: int


@dataclass(frozen=True, eq=False)
class MlstResult:
    """Outcome of a full enumeration.

    `cuts` is an (N, k) int32 array; every row is an ascending list of
    canonical edge ids and rows are in lexicographic order, so the result is
    identical for every worker count.
    """

    # name of the search that ran, for callers that record it; there is one
    backend: ClassVar[str] = "python"

    graph: ShellGraph
    leaf_count: int
    n_interior: int
    cuts: np.ndarray
    interior_count: int
    nodes_visited: int
    level_reports: tuple[LevelReport, ...]

    @property
    def labeled_count(self) -> int:
        return int(self.cuts.shape[0])

    def cut_tuples(self) -> Iterator[Cut]:
        for row in self.cuts:
            yield tuple(int(e) for e in row)


@dataclass(frozen=True, eq=False)
class InteriorResult:
    """All optimal interiors, without expanding leaf attachments.

    Each interior is (vertex mask, ascending edge ids of its tree plus any
    forced boundary edges).  The labeled cut count is the sum over interiors
    of the product of per-leaf attachment choices, so counting never needs
    the cuts themselves; see `count_labeled_cuts`.
    """

    backend: ClassVar[str] = "python"

    graph: ShellGraph
    leaf_count: int
    n_interior: int
    interiors: tuple[tuple[int, tuple[int, ...]], ...]
    nodes_visited: int
    level_reports: tuple[LevelReport, ...]

    @property
    def interior_count(self) -> int:
        return len(self.interiors)


def count_labeled_cuts(result: InteriorResult) -> int:
    """Exact labeled cut count: Σ over interiors Π per-leaf choice counts."""
    return sum(
        math.prod(len(choices) for choices in leaf_choices(result.graph, vt_mask))
        for vt_mask, _ in result.interiors
    )


def root_set(graph: ShellGraph) -> tuple[int, ...]:
    """A minimum-degree vertex (ties: lowest index) plus its neighbors."""
    v0 = min(range(graph.n), key=lambda v: (graph.degree(v), v))
    return (v0,) + tuple(graph.adjacency[v0])


def closed_neighborhood_masks(graph: ShellGraph) -> tuple[int, ...]:
    return tuple(m | (1 << v) for v, m in enumerate(graph.neighbor_masks))


def max_cover_step(graph: ShellGraph) -> int:
    """Most vertices one more interior vertex can newly cover.

    A vertex entering the interior comes off the frontier, so it and its
    attachment neighbor are covered already; at most degree - 1 neighbors are
    new.  Growth branches whose remaining vertex quota cannot close the
    coverage gap at this rate are dead and the search drops them.
    """
    return max(graph.degree(v) for v in range(graph.n)) - 1


def _seed(graph: ShellGraph, vt_mask: int, excl_mask: int = 0) -> SearchState:
    """Phase seed growing from the vertices of `vt_mask`; its frontier is
    every edge leaving them toward a vertex outside `excl_mask`."""
    cov_masks = closed_neighborhood_masks(graph)
    cov = 0
    for v in range(graph.n):
        if (vt_mask >> v) & 1:
            cov |= cov_masks[v]
    frontier = tuple(
        e for e, (u, v) in enumerate(graph.edges)
        if ((vt_mask >> u) & 1) != ((vt_mask >> v) & 1)
        and not (excl_mask >> u) & 1 and not (excl_mask >> v) & 1
    )
    return SearchState(vt_mask=vt_mask, cov_mask=cov, frontier=frontier, excl_mask=excl_mask)


def _seeds(graph: ShellGraph) -> list[SearchState]:
    """Phase seeds; with `_orbit_closure`, the only place the search tells
    closed from open shells.

    A closed shell gets one phase per vertex orbit the root set meets, in
    root-set order, rooted at the orbit's first root and barring every vertex
    of the earlier orbits.  Every interior dominates the first root, so it
    meets the root set; an automorphism maps it onto a tree holding the root
    of the first orbit it meets and missing the earlier orbits, so the phases
    find a member of every interior orbit.
    """
    if not graph.boundary_edges:
        group = find_automorphisms(graph)
        seeds = []
        excl = 0
        for r in root_set(graph):
            if not (excl >> r) & 1:
                seeds.append(_seed(graph, 1 << r, excl))
                excl |= sum(1 << v for v in {p[r] for p in group.perms})
        return seeds
    vt = 0
    for e in graph.boundary_edges:
        u, v = graph.edges[e]
        vt |= (1 << u) | (1 << v)
    if len(graph.boundary_edges) != vt.bit_count():
        raise ValidationError(
            "hole boundary is not a cycle: "
            f"{len(graph.boundary_edges)} edges on {vt.bit_count()} vertices"
        )
    return [_seed(graph, vt)]


def _orbit_closure(
    graph: ShellGraph, found: list[tuple[int, tuple[int, ...]]],
) -> list[tuple[int, tuple[int, ...]]]:
    """Every image of the found interiors under the automorphism group.

    A found interior already among the images of an earlier one adds nothing,
    so each orbit is mapped once, from its first member found.
    """
    group = find_automorphisms(graph)
    table = edge_permutations(graph, group)
    ends = [(1 << u) | (1 << v) for u, v in graph.edges]
    closure: set[tuple[int, tuple[int, ...]]] = set()
    for vt, edges in found:
        if (vt, edges) in closure:
            continue
        if not edges:  # a one-vertex interior maps through the vertex permutation
            v = vt.bit_length() - 1
            closure.update((1 << p[v], ()) for p in group.perms)
            continue
        for row in np.unique(np.sort(table[:, list(edges)], axis=1), axis=0).tolist():
            image = 0
            for e in row:
                image |= ends[e]
            closure.add((image, tuple(row)))
    return list(closure)


class _Stop(Exception):
    """Unwinds the recursive search at its node allowance or its deadline."""


# nodes between two clock reads of a search with a deadline
_CHECKPOINT = 1 << 14


def _grow(
    graph: ShellGraph, state: SearchState, n_grow: int, allowance: int,
    deadline: Optional[float] = None,
):
    """Grown edge tuples of one phase, the nodes it visited and whether it
    stopped at the deadline.

    A phase stops once it visits more than `allowance` nodes, or at the first
    checkpoint (every `_CHECKPOINT` nodes) past `deadline` on the
    `time.monotonic` clock.
    """
    full_cov = (1 << graph.n) - 1
    if n_grow == 0:
        return ([()] if state.cov_mask == full_cov else []), 0, False
    edges = graph.edges
    inc = graph.incident_edges
    cov_masks = closed_neighborhood_masks(graph)
    excl = state.excl_mask
    cover_step = max_cover_step(graph)
    out: list[tuple[int, ...]] = []
    nodes = 0
    # one comparison per node: past `limit` the allowance is spent or a
    # checkpoint is due
    limit = allowance if deadline is None else min(allowance, _CHECKPOINT)

    def rec(vt: int, cov: int, frontier: list[int], grown: list[int]) -> None:
        nonlocal nodes, limit
        last = len(grown) + 1 == n_grow
        remaining = n_grow - len(grown) - 1
        for idx, e in enumerate(frontier):
            u, v = edges[e]
            u_in = (vt >> u) & 1
            v_in = (vt >> v) & 1
            if u_in and v_in:
                continue
            i = v if u_in else u
            nodes += 1
            if nodes > limit:
                if nodes > allowance or time.monotonic() > deadline:
                    raise _Stop
                limit = min(allowance, limit + _CHECKPOINT)
            nvt = vt | (1 << i)
            ncov = cov | cov_masks[i]
            if last:
                if ncov == full_cov:
                    out.append(tuple(grown) + (e,))
                continue
            if (full_cov & ~ncov).bit_count() > remaining * cover_step:
                continue
            child = frontier[idx + 1:]
            for e2 in inc[i]:
                l = graph.other_end(e2, i)
                if not (nvt >> l) & 1 and not (excl >> l) & 1:
                    child.append(e2)
            grown.append(e)
            rec(nvt, ncov, child, grown)
            grown.pop()

    try:
        rec(state.vt_mask, state.cov_mask, list(state.frontier), [])
    except _Stop:
        return out, nodes, nodes <= allowance
    return out, nodes, False


def enumerate_interiors(
    graph: ShellGraph,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    workers: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> InteriorResult:
    """All optimal interiors of a connected shell graph, unexpanded.

    Searches interior sizes upward from the seed size and stops at the first
    size with dominating interiors; every cut then has exactly V - n_S
    leaves.  Counting the labeled cuts or the symmetry classes of huge shells
    only needs the interiors, whose number is far smaller than the cut count.

    The phases run in order, each within what the earlier ones left of the
    node budget, so an overrun visits at most one node past it; `time_limit`
    is checked between levels and every `_CHECKPOINT` nodes inside a phase.
    `workers` is accepted and has no effect.  On an overrun the
    `BudgetExceededError` carries the level reports, the last one counting
    the nodes visited in the level that overran.
    """
    if graph.n == 0:
        raise ValidationError("empty graph")
    if not graph.is_connected():
        raise ValidationError("graph is disconnected")
    seeds = _seeds(graph)
    seed_size = seeds[0].vt_mask.bit_count()
    deadline = None if time_limit is None else time.monotonic() + time_limit
    reports: list[LevelReport] = []
    total = 0
    for n_s in range(seed_size, graph.n + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise BudgetExceededError(
                f"time limit {time_limit}s exceeded before interior size {n_s}",
                partial=tuple(reports),
            )
        if total >= budget_nodes:
            raise BudgetExceededError(
                f"node budget {budget_nodes} exhausted before interior size {n_s}",
                partial=tuple(reports),
            )
        start = total
        outcomes = []
        for st in seeds:
            grown, nodes, late = _grow(graph, st, n_s - seed_size, budget_nodes - total, deadline)
            outcomes.append(grown)
            total += nodes
            if late or total > budget_nodes:
                break
        found = sum(len(grown) for grown in outcomes)
        reports.append(LevelReport(n_interior=n_s, nodes=total - start, interiors=found))
        if late:
            raise BudgetExceededError(
                f"time limit {time_limit}s exceeded at interior size {n_s}",
                partial=tuple(reports),
            )
        if total > budget_nodes:
            raise BudgetExceededError(
                f"node budget {budget_nodes} exceeded at interior size {n_s}",
                partial=tuple(reports),
            )
        if found:
            break
    else:
        raise ValidationError("no dominating interior found at any size; graph not connected?")

    interiors = []
    for state, grown_list in zip(seeds, outcomes):
        for grown in grown_list:
            vt = state.vt_mask
            for e in grown:
                u, v = graph.edges[e]
                vt |= (1 << u) | (1 << v)
            interiors.append((vt, tuple(sorted(graph.boundary_edges + grown))))
    if len(set(interiors)) != len(interiors):
        raise ValidationError("the search found an interior twice")
    if not graph.boundary_edges:
        interiors = _orbit_closure(graph, interiors)
    interiors.sort(key=lambda it: (it[1], it[0]))
    return InteriorResult(
        graph=graph,
        leaf_count=graph.n - n_s,
        n_interior=n_s,
        interiors=tuple(interiors),
        nodes_visited=total,
        level_reports=tuple(reports),
    )


def enumerate_mlsts(
    graph: ShellGraph,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    workers: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> MlstResult:
    """All optimal cuts of a connected shell graph: `enumerate_interiors`
    expanded by every combination of one leaf edge per outside vertex.

    On a closed shell these are its maximum leaf spanning trees; on an open
    shell, its hole cuts (the boundary cycle plus tree branches).
    """
    result = enumerate_interiors(graph, budget_nodes, workers, time_limit)
    plans = [(edges, leaf_choices(graph, vt)) for vt, edges in result.interiors]
    n_cuts = sum(math.prod(len(c) for c in choices) for _, choices in plans)
    width = len(plans[0][0]) + result.leaf_count
    cuts = np.empty((n_cuts, width), dtype=np.int32)
    at = 0
    for edges, choices in plans:
        combos = list(itertools.product(*choices))
        block = cuts[at:at + len(combos)]
        block[:, :len(edges)] = edges
        block[:, len(edges):] = combos
        at += len(combos)
    cuts.sort(axis=1)
    if width:
        cuts = cuts[np.lexsort(cuts.T[::-1])]
    if (cuts[1:] == cuts[:-1]).all(axis=1).any():
        raise ValidationError("the expansion emitted a cut twice")
    return MlstResult(
        graph=graph,
        leaf_count=result.leaf_count,
        n_interior=result.n_interior,
        cuts=cuts,
        interior_count=result.interior_count,
        nodes_visited=result.nodes_visited,
        level_reports=result.level_reports,
    )
