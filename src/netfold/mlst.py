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
The phases of a level run in order in one `_search` call, which keeps one
node counter and one clock for the level.  It expands blocks of search
states held as rows of uint64 words in numpy, with no recursion, so a search
of any depth and any vertex count takes the same path.  A node is one vertex
set the search visits; a search stops at its node budget (10^7 by default,
about two seconds; a long run passes 10^10), reporting one node past it, or
at its time limit, read before each block, and either overrun raises
"<node budget N | time limit Ts> exceeded at interior size k".  A listing
whose array and sorted copy, 2 x n_cuts x width x 4 bytes, exceed physical
memory (or a lower cgroup memory limit) is refused before any tree is
listed, and the trees listed on each set must number its determinant count.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from pathlib import Path
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

DEFAULT_NODE_BUDGET = 10_000_000


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
    visited."""

    n_interior: int
    nodes: int


@dataclass(frozen=True, eq=False)
class InteriorResult:
    """All optimal interior sets, without listing trees or leaf attachments.

    Each entry of `sets` is (vertex mask, number of trees on it), in
    ascending mask order.  The labeled cut count is the sum over sets of the
    tree count times the product of per-leaf attachment choices, so counting
    never needs the cuts themselves; see `count_labeled_cuts`.
    """

    # name of the search that ran, for callers that record it; there is one
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


@dataclass(frozen=True, eq=False)
class MlstResult(InteriorResult):
    """An `InteriorResult` plus its cuts.

    `cuts` is an (N, k) int32 array; every row is an ascending list of
    canonical edge ids and rows are in lexicographic order, so the result is
    identical for every worker count.
    """

    cuts: np.ndarray


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


def _orbit_closure(graph: ShellGraph, found: list[int]) -> dict[int, int]:
    """Every image of the found sets under the automorphism group, each with
    the tree count of its orbit.

    A found set already among the images of an earlier one adds nothing, so
    each orbit is counted and mapped once, from its first member found.
    """
    group = find_automorphisms(graph)
    closure: dict[int, int] = {}
    for vt in found:
        if vt in closure:
            continue
        trees = count_interior_trees(graph, vt)
        members = [v for v in range(graph.n) if (vt >> v) & 1]
        for p in group.perms:
            closure[sum(1 << p[v] for v in members)] = trees
    return closure


# states the search expands at once: a larger block spends less time per
# node in numpy calls and holds more memory
_CHUNK = 4096


def _words(masks: list[int], n_words: int) -> np.ndarray:
    """Vertex masks as rows of `n_words` uint64 words, lowest word first."""
    data = b"".join(m.to_bytes(8 * n_words, "little") for m in masks)
    return np.frombuffer(data, dtype="<u8").astype(np.uint64).reshape(len(masks), n_words)


def _masks(blocks: list[np.ndarray], n_words: int) -> list[int]:
    """The rows of blocks of `n_words` uint64 words as vertex masks."""
    data = b"".join(block.astype("<u8").tobytes() for block in blocks)
    width = 8 * n_words
    return [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]


def _lowest(rows: np.ndarray) -> np.ndarray:
    """Index of the lowest vertex of each row, none of them empty."""
    # zeros below each word's lowest bit, 64 in an empty word
    low = np.bitwise_count((rows - np.uint64(1)) & ~rows)
    v = low[:, -1].astype(np.intp)
    for w in range(rows.shape[1] - 2, -1, -1):
        v = np.where(low[:, w] < 64, low[:, w], v + 64)
    return v


def _search(
    graph: ShellGraph, seeds: list[SearchState], n_grow: int, allowance: int,
    deadline: Optional[float] = None,
):
    """Vertex masks of the connected dominating sets of one level, each
    holding a phase seed and `n_grow` more vertices, the nodes visited and
    why the search stopped: None, "nodes" or "time".

    The phases run in order.  Each branches include/exclude over an
    extension mask: a node takes the lowest vertex of its extension (the
    neighbors of the set that no branch has barred) into the set, and its
    later siblings bar it, so every set is visited once.  A state is three
    masks, the set, its cover and its extension, each a row of uint64
    words.  A vertex of the cover is in the set, in the extension or
    barred, and one outside it is barred only by its phase, so a child's
    extension is its parent's higher bits plus the new vertex's neighbors
    outside the cover and the phase's barred vertices.

    Each phase keeps a stack of blocks of states at one depth and expands
    the top block, at most `_CHUNK` states of it, into one block of
    children: in each round every state takes its lowest extension vertex,
    and a child stays if its cover can still be completed.  The children go
    on top, so the search runs depth first and holds at most about
    `_CHUNK` x degree states per depth.  A block's nodes are the bits of
    its extensions.  The level stops before a block that would take it past
    `allowance` nodes, reporting `allowance + 1`, or before a block once
    `time.monotonic` is past `deadline`.
    """
    full = (1 << graph.n) - 1
    if n_grow == 0:
        return [st.vt_mask for st in seeds if st.cov_mask == full], 0, None
    n_words = -(-graph.n // 64)
    bits = _words([1 << v for v in range(graph.n)], n_words)
    cov_masks = _words(closed_neighborhood_masks(graph), n_words)
    step = max_cover_step(graph)
    found: list[np.ndarray] = []
    nodes = 0
    for st in seeds:
        # the neighbors each vertex may add to an extension in this phase
        nbr = _words([m & ~st.excl_mask for m in graph.neighbor_masks], n_words)
        seed = (st.vt_mask, st.cov_mask, st.cov_mask & ~st.vt_mask & ~st.excl_mask)
        stack = [(n_grow, *(_words([m], n_words) for m in seed))]
        while stack:
            remaining, vt, cov, ext = stack.pop()
            if len(vt) > _CHUNK:
                # copied, so that the rest does not keep the whole block alive
                stack.append((remaining, vt[_CHUNK:].copy(), cov[_CHUNK:].copy(), ext[_CHUNK:].copy()))
                vt, cov, ext = vt[:_CHUNK], cov[:_CHUNK], ext[:_CHUNK]
            if deadline is not None and time.monotonic() > deadline:
                return _masks(found, n_words), nodes, "time"
            counts = np.bitwise_count(ext).sum(axis=1, dtype=np.intp)
            nodes += int(counts.sum())
            if nodes > allowance:
                return _masks(found, n_words), allowance + 1, "nodes"
            # states by falling node count, so the states still branching
            # in a round are a prefix; live[r] of them branch in round r
            order = np.argsort(counts)[::-1]
            vt, cov, ext = vt[order], cov[order], ext[order]
            live = len(counts) - np.cumsum(np.bincount(counts))[:-1]
            need = graph.n - (remaining - 1) * step
            kids = []
            for k in live.tolist():
                vt, cov, ext = vt[:k], cov[:k], ext[:k]
                v = _lowest(ext)
                bit = bits[v]
                ext ^= bit
                ncov = cov | cov_masks[v]
                keep = np.bitwise_count(ncov).sum(axis=1, dtype=np.intp) >= need
                if not keep.any():
                    continue
                if remaining == 1:
                    found.append(vt[keep] | bit[keep])
                else:
                    kids.append((vt[keep] | bit[keep], ncov[keep], ext[keep] | (nbr[v[keep]] & ~cov[keep])))
            if kids:
                stack.append((remaining - 1, *(np.concatenate(part) for part in zip(*kids))))
    return _masks(found, n_words), nodes, None


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

    Each level is one `_search` call on what the earlier levels left of the
    node budget, so an overrun reports one node past it; `time_limit` is
    checked before each block of search states.  An overrun raises
    `BudgetExceededError`, "node budget N exceeded at interior size k" or
    "time limit Ts exceeded at interior size k", carrying the level
    reports, the last one counting the nodes visited in the level that
    overran.
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
        found, nodes, stop = _search(graph, seeds, n_s - seed_size, budget_nodes - total, deadline)
        total += nodes
        if len(set(found)) != len(found):
            raise ValidationError("the search found a set twice")
        reports.append(LevelReport(n_interior=n_s, nodes=nodes))
        if stop is not None:
            bound = f"node budget {budget_nodes}" if stop == "nodes" else f"time limit {time_limit}s"
            raise BudgetExceededError(f"{bound} exceeded at interior size {n_s}", partial=tuple(reports))
        if found:
            break
    else:
        raise ValidationError("no dominating interior found at any size; graph not connected?")

    if graph.boundary_edges:
        trees = {vt: count_interior_trees(graph, vt) for vt in found}
    else:
        trees = _orbit_closure(graph, found)
    return InteriorResult(
        graph=graph,
        leaf_count=graph.n - n_s,
        n_interior=n_s,
        sets=tuple(sorted(trees.items())),
        nodes_visited=total,
        level_reports=tuple(reports),
    )


# the cgroup file system root, where a container sees its own cgroup
_CGROUP = Path("/sys/fs/cgroup")


def _physical_memory() -> int:
    """Bytes of physical memory, or the memory limit of the cgroup (v2
    `memory.max`, v1 `memory.limit_in_bytes`) if it is lower; a file that is
    missing or not a number, such as "max", sets no limit."""
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    for name in ("memory.max", "memory/memory.limit_in_bytes"):
        try:
            memory = min(memory, int((_CGROUP / name).read_text()))
        except (OSError, ValueError):
            pass
    return memory


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
    checked by `holes.check_hole_cuts`.  The listing's size comes from
    `count_labeled_cuts`, and one too large for physical memory, or whose
    allocation fails, raises `BudgetExceededError`; a set whose listed trees
    differ from its determinant count raises `ValidationError`.  `workers`
    is accepted and has no effect; it stays while the benchmark harness
    (`perfbench/`) passes it.
    """
    result = enumerate_interiors(graph, budget_nodes, time_limit)
    n_cuts = count_labeled_cuts(result)
    boundary = graph.boundary_edges
    # a tree on a set joins its seed (one vertex, or the boundary) to the rest
    n_fixed = len(boundary) + result.n_interior - (graph.boundary_mask.bit_count() or 1)
    width = n_fixed + result.leaf_count
    size = n_cuts * width * 4  # int32 entries
    needs = (f"the cut listing needs n_cuts x width x 4 = {n_cuts} x {width} x 4 = {size} bytes "
             f"({size / 2**30:.1f} GiB) and as much again to sort it")
    hint = "; `count` gives the totals without a listing"
    if 2 * size > (memory := _physical_memory()):
        raise BudgetExceededError(
            f"{needs}, more than the {memory} bytes of physical memory{hint}", partial=result.level_reports,
        )
    plans = []
    for vt, n_trees in result.sets:
        trees = merged_spanning_trees(graph, vt, interior_seed(graph, vt))
        if len(trees) != n_trees:
            raise ValidationError(f"set {vt:#x} lists {len(trees)} trees but counts {n_trees}")
        plans.append((trees, leaf_choices(graph, vt)))
    try:
        cuts = _listing(plans, boundary, n_cuts, n_fixed, width)
    except MemoryError as exc:
        raise BudgetExceededError(
            f"{needs}, which could not be allocated{hint}", partial=result.level_reports,
        ) from exc
    if (cuts[1:] == cuts[:-1]).all(axis=1).any():
        raise ValidationError("the expansion emitted a cut twice")
    if boundary:
        check_hole_cuts(graph, cuts)
    return MlstResult(**vars(result), cuts=cuts)
