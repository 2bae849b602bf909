"""Maximum leaf spanning tree enumeration.

A cut is a spanning tree of the shell graph; maximizing its leaves minimizes
vertex connections in the unfolded net.  Every optimal cut is an interior (a
connected dominating set of n_S vertices with a tree on it) plus one leaf
edge per outside vertex, so one search serves both listing and counting
cuts: it finds the connected dominating vertex sets of n_S = 1, 2, ...
vertices, each once, and stops at the first size that has any.  The trees on
a set are counted by the matrix-tree determinant and listed only when cuts
are listed (`shellgraph.count_interior_trees`, `merged_spanning_trees`).

A closed shell is searched in one phase per vertex orbit of the root set (a
minimum-degree vertex and its neighbors), rooted at the orbit's first root
and barring every vertex of the earlier orbits; the phases find at least one
member of every orbit of sets, and mapping the found sets under the
automorphism group rebuilds the whole family.  An open shell is searched in
one phase seeded with its hole boundary: the boundary cycle is forced into
every cut, and its vertices, which carry two cycle edges, are never leaves.
The phases of a level run in order and share its node allowance.  A node is
one vertex set the search visits.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import ClassVar, Optional

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .holes import check_hole_cuts
from .shellgraph import (
    ShellGraph,
    count_interior_trees,
    interior_seed,
    leaf_choices,
    merged_spanning_trees,
)
from .symmetry import find_automorphisms

DEFAULT_NODE_BUDGET = 10_000_000_000


@dataclass(frozen=True)
class SearchState:
    """Seed of one search phase.

    vt_mask holds the seed vertices, cov_mask the union of their closed
    neighborhoods and excl_mask the vertices barred from the sets (those of
    earlier root orbits).
    """

    vt_mask: int
    cov_mask: int
    excl_mask: int


@dataclass(frozen=True)
class LevelReport:
    """Deterministic statistics for one interior size: the nodes the search
    visited and the interiors (trees on the sets) it found, before the orbit
    expansion."""

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


@dataclass(frozen=True, eq=False)
class InteriorResult:
    """All optimal interior sets, without listing trees or leaf attachments.

    Each entry of `sets` is (vertex mask, number of trees on it), in
    ascending mask order.  The labeled cut count is the sum over sets of the
    tree count times the product of per-leaf attachment choices, so counting
    never needs the cuts themselves; see `count_labeled_cuts`.
    """

    backend: ClassVar[str] = "python"

    graph: ShellGraph
    leaf_count: int
    n_interior: int
    sets: tuple[tuple[int, int], ...]
    nodes_visited: int
    level_reports: tuple[LevelReport, ...]

    @property
    def interior_count(self) -> int:
        """The number of interiors, that is of trees on the sets."""
        return sum(trees for _, trees in self.sets)


def count_labeled_cuts(result: InteriorResult) -> int:
    """Exact labeled cut count: Σ over sets of trees × Π per-leaf choices,
    an outside vertex having one choice per neighbor in the set."""
    nbr = result.graph.neighbor_masks
    total = 0
    for vt_mask, trees in result.sets:
        for w in range(result.graph.n):
            if not (vt_mask >> w) & 1:
                trees *= (nbr[w] & vt_mask).bit_count()
        total += trees
    return total


def root_set(graph: ShellGraph) -> tuple[int, ...]:
    """A minimum-degree vertex (ties: lowest index) plus its neighbors."""
    v0 = min(range(graph.n), key=lambda v: (graph.degree(v), v))
    return (v0,) + tuple(graph.adjacency[v0])


def closed_neighborhood_masks(graph: ShellGraph) -> tuple[int, ...]:
    return tuple(m | (1 << v) for v, m in enumerate(graph.neighbor_masks))


def max_cover_step(graph: ShellGraph) -> int:
    """Most vertices one more set vertex can newly cover.

    A vertex joins a set as a neighbor of it, so it and that neighbor are
    covered already; at most degree - 1 neighbors are new.  Sets whose
    remaining vertex quota cannot close the coverage gap at this rate are
    dead and the search drops them.
    """
    return max(graph.degree(v) for v in range(graph.n)) - 1


def _seed(graph: ShellGraph, vt_mask: int, excl_mask: int = 0) -> SearchState:
    """Phase seed growing from the vertices of `vt_mask` and never taking a
    vertex of `excl_mask`."""
    cov_masks = closed_neighborhood_masks(graph)
    cov = 0
    for v in range(graph.n):
        if (vt_mask >> v) & 1:
            cov |= cov_masks[v]
    return SearchState(vt_mask=vt_mask, cov_mask=cov, excl_mask=excl_mask)


def _seeds(graph: ShellGraph) -> list[SearchState]:
    """Phase seeds; with `_orbit_closure`, the only place the search tells
    closed from open shells.

    An open shell gets one phase seeded with its hole boundary.  A closed
    shell gets one phase per vertex orbit the root set meets, in root-set
    order, rooted at the orbit's first root and barring every vertex of the
    earlier orbits.  Every interior dominates the first root, so it meets
    the root set; an automorphism maps it onto a set holding the root of the
    first orbit it meets and missing the earlier orbits, so the phases find a
    member of every orbit of sets.
    """
    if graph.boundary_edges:
        return [_seed(graph, graph.boundary_mask)]
    group = find_automorphisms(graph)
    seeds = []
    excl = 0
    for r in root_set(graph):
        if not (excl >> r) & 1:
            seeds.append(_seed(graph, 1 << r, excl))
            excl |= sum(1 << v for v in {p[r] for p in group.perms})
    return seeds


def _orbit_closure(graph: ShellGraph, found: dict[int, int]) -> dict[int, int]:
    """Every image of the found sets under the automorphism group, each with
    the tree count of its orbit.

    A found set already among the images of an earlier one adds nothing, so
    each orbit is mapped once, from its first member found.
    """
    group = find_automorphisms(graph)
    closure: dict[int, int] = {}
    for vt, trees in found.items():
        if vt in closure:
            continue
        members = [v for v in range(graph.n) if (vt >> v) & 1]
        for p in group.perms:
            closure[sum(1 << p[v] for v in members)] = trees
    return closure


class _Stop(Exception):
    """Unwinds the recursive search at its node allowance or its deadline."""


# nodes between two clock reads of a search with a deadline
_CHECKPOINT = 1 << 14


def _search(
    graph: ShellGraph, state: SearchState, n_grow: int, allowance: int,
    deadline: Optional[float] = None,
):
    """Vertex masks of the connected dominating sets of one phase that hold
    the seed and `n_grow` more vertices, the nodes it visited and whether it
    stopped at the deadline.

    Include/exclude branching over an extension mask: a node takes the
    lowest vertex of its extension (the neighbors of the set that no branch
    has barred) into the set, and its later siblings bar it, so every set is
    visited once.  A phase stops once it visits more than `allowance` nodes,
    or at the first checkpoint (every `_CHECKPOINT` nodes) past `deadline`
    on the `time.monotonic` clock.
    """
    full = (1 << graph.n) - 1
    if n_grow == 0:
        return ([state.vt_mask] if state.cov_mask == full else []), 0, False
    nbr = graph.neighbor_masks
    cov_masks = closed_neighborhood_masks(graph)
    step = max_cover_step(graph)
    out: list[int] = []
    nodes = 0
    # one comparison per node: past `limit` the allowance is spent or a
    # checkpoint is due
    limit = allowance if deadline is None else min(allowance, _CHECKPOINT)

    def visit() -> None:
        # the node count passed `limit`: stop, or move the next checkpoint
        nonlocal limit
        if nodes > allowance or time.monotonic() > deadline:
            raise _Stop
        limit = min(allowance, limit + _CHECKPOINT)

    def rec(vt: int, cov: int, ext: int, barred: int, remaining: int) -> None:
        # `barred` holds the set, the excluded vertices and the vertices
        # earlier branches took; `ext` is disjoint from it
        nonlocal nodes
        need = full ^ cov
        if remaining == 1:
            if nodes + ext.bit_count() > limit:
                while ext:
                    bit = ext & -ext
                    ext ^= bit
                    nodes += 1
                    if nodes > limit:
                        visit()
                    if cov_masks[bit.bit_length() - 1] & need == need:
                        out.append(vt | bit)
                return
            # every vertex of `ext` is a node; the ones that complete the
            # cover are neighbors of every uncovered vertex
            nodes += ext.bit_count()
            while need and ext:
                bit = need & -need
                need ^= bit
                ext &= cov_masks[bit.bit_length() - 1]
            while ext:
                bit = ext & -ext
                ext ^= bit
                out.append(vt | bit)
            return
        bound = (remaining - 1) * step
        while ext:
            bit = ext & -ext
            ext ^= bit
            barred |= bit
            nodes += 1
            if nodes > limit:
                visit()
            v = bit.bit_length() - 1
            ncov = cov | cov_masks[v]
            if (full ^ ncov).bit_count() > bound:
                continue
            rec(vt | bit, ncov, ext | (nbr[v] & ~barred), barred, remaining - 1)

    vt = state.vt_mask
    ext = 0
    for v in range(graph.n):
        if (vt >> v) & 1:
            ext |= nbr[v]
    barred = vt | state.excl_mask
    try:
        rec(vt, state.cov_mask, ext & ~barred, barred, n_grow)
    except _Stop:
        return out, nodes, nodes <= allowance
    return out, nodes, False


def enumerate_interiors(
    graph: ShellGraph,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    time_limit: Optional[float] = None,
) -> InteriorResult:
    """All optimal interior sets of a connected shell graph, with the number
    of trees on each.

    Searches set sizes upward from the seed size and stops at the first size
    with connected dominating sets; every cut then has exactly V - n_S
    leaves.  Counting the labeled cuts or the symmetry classes of huge shells
    only needs the sets, whose number is far smaller than the cut count.

    The phases run in order, each within what the earlier ones left of the
    node budget, so an overrun visits at most one node past it; `time_limit`
    is checked between levels and every `_CHECKPOINT` nodes inside a phase.
    On an overrun the `BudgetExceededError` carries the level reports, the
    last one counting the nodes visited in the level that overran.
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
        found: list[int] = []
        for st in seeds:
            sets, nodes, late = _search(graph, st, n_s - seed_size, budget_nodes - total, deadline)
            found += sets
            total += nodes
            if late or total > budget_nodes:
                break
        trees = {vt: count_interior_trees(graph, vt) for vt in found}
        if len(trees) != len(found):
            raise ValidationError("the search found a set twice")
        reports.append(LevelReport(
            n_interior=n_s, nodes=total - start, interiors=sum(trees.values()),
        ))
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

    if not graph.boundary_edges:
        trees = _orbit_closure(graph, trees)
    return InteriorResult(
        graph=graph,
        leaf_count=graph.n - n_s,
        n_interior=n_s,
        sets=tuple(sorted(trees.items())),
        nodes_visited=total,
        level_reports=tuple(reports),
    )


def _listing(plans, boundary, n_cuts: int, n_fixed: int, width: int) -> np.ndarray:
    """The cuts of every (trees, leaf choices) plan as one int32 array, each
    row sorted and the rows in lexicographic order."""
    cuts = np.empty((n_cuts, width), dtype=np.int32)
    cuts[:, :len(boundary)] = boundary
    at = 0
    for trees, choices in plans:
        # every combination of one leaf edge per outside vertex, in the
        # order itertools.product gives: leaf j's choices run along axis j
        # (with no leaves there is no axis, and one empty combination)
        k = len(choices)
        sizes = [len(c) for c in choices]
        combos = np.empty(sizes + [k], dtype=np.int32)
        for j, c in enumerate(choices):
            combos[..., j] = np.asarray(c, dtype=np.int32).reshape((-1,) + (1,) * (k - 1 - j))
        combos = combos.reshape(math.prod(sizes), k)
        for tree in trees:
            block = cuts[at:at + len(combos)]
            block[:, len(boundary):n_fixed] = tree
            block[:, n_fixed:] = combos
            at += len(combos)
    cuts.sort(axis=1)
    if width:
        cuts = cuts[np.lexsort(cuts.T[::-1])]
    return cuts


def enumerate_mlsts(
    graph: ShellGraph,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    workers: Optional[int] = None,
    time_limit: Optional[float] = None,
) -> MlstResult:
    """All optimal cuts of a connected shell graph: each set of
    `enumerate_interiors` expanded by the trees on it and every combination
    of one leaf edge per outside vertex.

    On a closed shell these are its maximum leaf spanning trees; on an open
    shell, its hole cuts (the boundary cycle plus tree branches), each
    checked by `holes.check_hole_cuts`.  `workers` is accepted and has no
    effect; it stays while the benchmark harness (`perfbench/`) passes it.
    """
    result = enumerate_interiors(graph, budget_nodes, time_limit)
    plans = [
        (merged_spanning_trees(graph, vt, interior_seed(graph, vt)), leaf_choices(graph, vt))
        for vt, _ in result.sets
    ]
    n_cuts = sum(len(trees) * math.prod(len(c) for c in choices) for trees, choices in plans)
    boundary = graph.boundary_edges
    # a tree on a set joins its seed (one vertex, or the boundary) to the rest
    n_fixed = len(boundary) + result.n_interior - (graph.boundary_mask.bit_count() or 1)
    width = n_fixed + result.leaf_count
    try:
        cuts = _listing(plans, boundary, n_cuts, n_fixed, width)
    except MemoryError as exc:
        size = n_cuts * width * 4  # int32 entries
        raise BudgetExceededError(
            f"the cut listing needs n_cuts x width x 4 = {n_cuts} x {width} x 4 = {size} bytes "
            f"({size / 2**30:.1f} GiB) and more to sort it, which could not be allocated; "
            "`count` gives the totals without a listing",
            partial=result.level_reports,
        ) from exc
    if (cuts[1:] == cuts[:-1]).all(axis=1).any():
        raise ValidationError("the expansion emitted a cut twice")
    if boundary:
        check_hole_cuts(graph, cuts)
    return MlstResult(
        graph=graph,
        leaf_count=result.leaf_count,
        n_interior=result.n_interior,
        cuts=cuts,
        interior_count=result.interior_count,
        nodes_visited=result.nodes_visited,
        level_reports=result.level_reports,
    )
