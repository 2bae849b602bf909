"""Maximum leaf spanning tree enumeration.

A cut is a spanning tree of the shell graph; maximizing its leaves minimizes
vertex connections in the unfolded net.  Every optimal cut is an interior (a
connected dominating subtree of n_S vertices) plus one leaf edge per outside
vertex, so one search serves both listing and counting cuts: it grows
interiors of n_S = 1, 2, ... vertices and stops at the first size that yields
dominating ones.  A closed shell is searched in one phase per root (a
minimum-degree vertex and its neighbors), each excluding the earlier roots,
which keeps the union duplicate-free.  An open shell is searched in one phase
seeded with its hole boundary: the boundary cycle is forced into every cut,
and its vertices, which carry two cycle edges, are never leaves.
"""

from __future__ import annotations

import itertools
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from . import _kernels
from .errors import BudgetExceededError, ValidationError
from .shellgraph import ShellGraph

Cut = tuple[int, ...]

DEFAULT_NODE_BUDGET = 10_000_000_000


@dataclass(frozen=True)
class SearchState:
    """Seed of one interior growth phase.

    vt_mask holds the seed vertices, cov_mask the union of their closed
    neighborhoods, frontier the ascending ids of the edges leaving the seed,
    and excl_mask the vertices barred from growth (earlier roots).
    """

    vt_mask: int
    cov_mask: int
    frontier: tuple[int, ...]
    excl_mask: int


@dataclass(frozen=True)
class LevelReport:
    """Deterministic statistics for one interior size."""

    n_interior: int
    nodes: int
    interiors: int


@dataclass(frozen=True, eq=False)
class MlstResult:
    """Outcome of a full enumeration.

    `cuts` is an (N, k) int32 array; every row is an ascending list of
    canonical edge ids and rows are in lexicographic order, so the result is
    identical across backends and worker counts.
    """

    graph: ShellGraph
    leaf_count: int
    n_interior: int
    cuts: np.ndarray
    interior_count: int
    nodes_visited: int
    level_reports: tuple[LevelReport, ...]
    backend: str

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

    graph: ShellGraph
    leaf_count: int
    n_interior: int
    interiors: tuple[tuple[int, tuple[int, ...]], ...]
    nodes_visited: int
    level_reports: tuple[LevelReport, ...]
    backend: str

    @property
    def interior_count(self) -> int:
        return len(self.interiors)


def leaf_choices(graph: ShellGraph, vt_mask: int) -> list[list[int]]:
    """Per outside vertex (ascending), the edges that can attach it as a leaf."""
    lists = []
    for w in range(graph.n):
        if (vt_mask >> w) & 1:
            continue
        lists.append(
            [e for e in graph.incident_edges[w] if (vt_mask >> graph.other_end(e, w)) & 1]
        )
    return lists


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
    coverage gap at this rate are dead and both backends drop them.
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
    """Phase seeds; the only place the search tells closed from open shells."""
    if not graph.boundary_edges:
        roots = root_set(graph)
        return [
            _seed(graph, 1 << r, sum(1 << q for q in roots[:k])) for k, r in enumerate(roots)
        ]
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


class _Overrun(Exception):
    """Unwinds the recursive search once it passes its node allowance."""


def _grow_python(graph: ShellGraph, state: SearchState, n_grow: int, allowance: int):
    """Recursive reference search; the numba kernel is its iterative twin."""
    edges = graph.edges
    inc = graph.incident_edges
    cov_masks = closed_neighborhood_masks(graph)
    full_cov = (1 << graph.n) - 1
    excl = state.excl_mask
    cover_step = max_cover_step(graph)
    out: list[tuple[int, ...]] = []
    nodes = 0

    def rec(vt: int, cov: int, frontier: list[int], grown: list[int]) -> None:
        nonlocal nodes
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
            if nodes > allowance:
                raise _Overrun
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
    except _Overrun:
        pass
    return out, nodes


def _phase_kernel(graph: ShellGraph, state: SearchState, n_grow: int, allowance: int):
    """Run one phase through the numba kernel."""
    edge_u = np.array([u for u, _ in graph.edges], dtype=np.int32)
    edge_v = np.array([v for _, v in graph.edges], dtype=np.int32)
    cov = np.array(closed_neighborhood_masks(graph), dtype=np.int64)
    inc_ptr = np.zeros(graph.n + 1, dtype=np.int64)
    for v in range(graph.n):
        inc_ptr[v + 1] = inc_ptr[v] + len(graph.incident_edges[v])
    inc_ids = np.array(
        [e for v in range(graph.n) for e in graph.incident_edges[v]], dtype=np.int32
    )
    out, found, nodes, _ = _kernels.grow_kernel(
        n_grow,
        np.int64((1 << graph.n) - 1),
        np.int64(state.vt_mask),
        np.int64(state.cov_mask),
        np.array(state.frontier, dtype=np.int32),
        edge_u,
        edge_v,
        cov,
        inc_ptr,
        inc_ids,
        np.int64(state.excl_mask),
        np.int64(allowance),
        np.int64(max_cover_step(graph)),
    )
    interiors = [tuple(int(x) for x in out[k * n_grow:(k + 1) * n_grow]) for k in range(int(found))]
    return interiors, int(nodes)


def _run_phase(graph: ShellGraph, state: SearchState, n_grow: int, allowance: int, backend: str):
    """Grown edge tuples of one phase and the nodes it visited.

    A phase stops once it visits more than `allowance` nodes.
    """
    if n_grow == 0:
        return ([()] if state.cov_mask == (1 << graph.n) - 1 else []), 0
    if backend == "numba":
        return _phase_kernel(graph, state, n_grow, allowance)
    return _grow_python(graph, state, n_grow, allowance)


def enumerate_interiors(
    graph: ShellGraph,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    time_limit: Optional[float] = None,
) -> InteriorResult:
    """All optimal interiors of a connected shell graph, unexpanded.

    Searches interior sizes upward from the seed size and stops at the first
    size with dominating interiors; every cut then has exactly V - n_S
    leaves.  Counting the labeled cuts or the symmetry classes of huge shells
    only needs the interiors, whose number is far smaller than the cut count.

    On a budget overrun the `BudgetExceededError` carries the level reports,
    the last one counting the nodes visited in the level that overran.
    """
    if graph.n == 0:
        raise ValidationError("empty graph")
    if not graph.is_connected():
        raise ValidationError("graph is disconnected")
    seeds = _seeds(graph)
    backend = _kernels.resolve_backend(backend, graph.n)
    if workers is None:
        workers = os.cpu_count() or 1
    seed_size = seeds[0].vt_mask.bit_count()
    t0 = time.monotonic()
    reports: list[LevelReport] = []
    total = 0
    for n_s in range(seed_size, graph.n + 1):
        if time_limit is not None and time.monotonic() - t0 > time_limit:
            raise BudgetExceededError(
                f"time limit {time_limit}s exceeded before interior size {n_s}",
                partial=tuple(reports),
            )
        allowance = budget_nodes - total
        if allowance <= 0:
            raise BudgetExceededError(
                f"node budget {budget_nodes} exhausted before interior size {n_s}",
                partial=tuple(reports),
            )
        n_grow = n_s - seed_size
        if len(seeds) > 1 and workers > 1:
            with ThreadPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
                outcomes = list(pool.map(
                    lambda st: _run_phase(graph, st, n_grow, allowance, backend), seeds,
                ))
        else:
            outcomes = []
            for st in seeds:
                outcomes.append(_run_phase(graph, st, n_grow, allowance, backend))
                if outcomes[-1][1] > allowance:
                    break
        level_nodes = sum(nodes for _, nodes in outcomes)
        found = sum(len(grown) for grown, _ in outcomes)
        reports.append(LevelReport(n_interior=n_s, nodes=level_nodes, interiors=found))
        total += level_nodes
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
    for state, (grown_list, _) in zip(seeds, outcomes):
        for grown in grown_list:
            vt = state.vt_mask
            for e in grown:
                u, v = graph.edges[e]
                vt |= (1 << u) | (1 << v)
            interiors.append((vt, tuple(sorted(graph.boundary_edges + grown))))
    interiors.sort(key=lambda it: (it[1], it[0]))
    assert len(set(interiors)) == len(interiors), "duplicate interiors"
    return InteriorResult(
        graph=graph,
        leaf_count=graph.n - n_s,
        n_interior=n_s,
        interiors=tuple(interiors),
        nodes_visited=total,
        level_reports=tuple(reports),
        backend=backend,
    )


def enumerate_mlsts(
    graph: ShellGraph,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    time_limit: Optional[float] = None,
) -> MlstResult:
    """All optimal cuts of a connected shell graph: `enumerate_interiors`
    expanded by every combination of one leaf edge per outside vertex.

    On a closed shell these are its maximum leaf spanning trees; on an open
    shell, its hole cuts (the boundary cycle plus tree branches).
    """
    result = enumerate_interiors(graph, budget_nodes, workers, backend, time_limit)
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
    assert not (cuts[1:] == cuts[:-1]).all(axis=1).any(), "duplicate cuts emitted"
    return MlstResult(
        graph=graph,
        leaf_count=result.leaf_count,
        n_interior=result.n_interior,
        cuts=cuts,
        interior_count=result.interior_count,
        nodes_visited=result.nodes_visited,
        level_reports=result.level_reports,
        backend=result.backend,
    )
