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
and barring every vertex of the earlier orbits, which finds a member of
every orbit of sets; an open shell in one phase seeded with its hole
boundary, whose vertices carry two cycle edges and are never leaves.  The
found sets are mapped into orbits under `symmetry.cut_group`, and the
trees are counted, and listed when cuts are listed, once per orbit: the
other members' trees are the first member's mapped by the group.
A phase seed is a pair of vertex masks, (vt_mask, excl_mask): the set it
grows from and the vertices it never takes.  The phases of a level run in
order in one `_search` call, which keeps one node counter and one clock for
the level.  It expands blocks of search states held as rows of uint64 words
in numpy (`shellgraph.set_words`), with no recursion, so a search of any
depth and any vertex count takes the same path.  A node is one vertex
set the search visits; a search stops at its node budget (10^7 by default,
about 0.35 s on a 2-core VM; a long run passes 10^10), reporting one node
past it, or at its time limit, read before each block, and either overrun
raises "<node budget N | time limit Ts> exceeded at interior size k".  A
listing whose array and sorted copy, 2 x n_cuts x width x 4 bytes, exceed
physical memory (or a lower cgroup memory limit) is refused before any tree
is listed, and the trees listed on each orbit's first member must number
its determinant count.  The classes alone (`list_classes`) need only the
cuts on each orbit's first member, and have a gate of their own.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import reduce
from operator import or_
from pathlib import Path
from typing import ClassVar, Iterator, Optional

import numpy as np

from .errors import BudgetExceededError, ValidationError
from .holes import check_hole_cuts
from .shellgraph import (
    ShellGraph,
    count_interior_trees,
    interior_seed,
    leaf_choices,
    merged_spanning_trees,
    set_words,
    word_sets,
)
from .symmetry import AutomorphismGroup, CutClasses, cut_group

DEFAULT_NODE_BUDGET = 10_000_000


@dataclass(frozen=True)
class LevelReport:
    """Deterministic statistics for one interior size: the nodes the search
    visited."""

    n_interior: int
    nodes: int


@dataclass(frozen=True, eq=False)
class InteriorResult:
    """All optimal interior sets, without listing trees or leaf attachments.

    Each entry of `orbits` is one orbit of sets under `symmetry.cut_group`:
    its member vertex masks in ascending order and the number of trees that
    each member has, and orbits are in order of first member.  Counting
    never needs the cuts themselves; see `count_labeled_cuts`.
    """

    # name of the search that ran, for callers that record it; there is one
    backend: ClassVar[str] = "python"

    graph: ShellGraph
    leaf_count: int
    n_interior: int
    orbits: tuple[tuple[tuple[int, ...], int], ...]
    nodes_visited: int
    level_reports: tuple[LevelReport, ...]

    @property
    def interior_count(self) -> int:
        """The number of interiors, that is of trees on the sets."""
        return sum(len(members) * trees for members, trees in self.orbits)


@dataclass(frozen=True, eq=False)
class MlstResult(InteriorResult):
    """An `InteriorResult` plus its cuts.

    `cuts` is an (N, k) int32 array; every row is an ascending list of
    canonical edge ids and rows are in lexicographic order, so the result is
    identical for every worker count.
    """

    cuts: np.ndarray


def _first_member_cuts(result: InteriorResult) -> list[int]:
    """The number of cuts on each orbit's first member: its trees × Π
    per-leaf choices, an outside vertex having one choice per neighbor in
    the set."""
    nbr = result.graph.neighbor_masks
    counts = []
    for members, trees in result.orbits:
        for w in range(result.graph.n):
            if not (members[0] >> w) & 1:
                trees *= (nbr[w] & members[0]).bit_count()
        counts.append(trees)
    return counts


def count_labeled_cuts(result: InteriorResult) -> int:
    """Exact labeled cut count: Σ over sets of their cuts; an orbit's
    members have as many cuts as its first member."""
    return sum(len(members) * n for (members, _), n in zip(result.orbits, _first_member_cuts(result)))


def root_set(graph: ShellGraph) -> tuple[int, ...]:
    """A minimum-degree vertex (ties: lowest index) plus its neighbors."""
    v0 = min(range(graph.n), key=lambda v: (graph.degree(v), v))
    return (v0,) + tuple(w for w in range(graph.n) if (graph.neighbor_masks[v0] >> w) & 1)


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


def _seeds(graph: ShellGraph) -> list[tuple[int, int]]:
    """Phase seeds, each (vt_mask, excl_mask): the only place the search
    tells closed from open shells.

    An open shell gets one phase seeded with its hole boundary, which finds
    every set; `_orbits` then only groups them.  A closed shell gets one
    phase per vertex orbit the root set meets, in root-set order, rooted at
    the orbit's first root and barring every vertex of the earlier orbits.
    Every interior dominates the first root, so it meets the root set; an
    automorphism maps it onto a set holding the root of the first orbit it
    meets and missing the earlier orbits, so the phases find a member of
    every orbit of sets, and `_orbits` maps it onto the rest.
    """
    if graph.boundary_edges:
        return [(graph.boundary_mask, 0)]
    group = cut_group(graph)
    seeds = []
    excl = 0
    for r in root_set(graph):
        if not (excl >> r) & 1:
            seeds.append((1 << r, excl))
            excl |= sum(group.orbit(1 << r)[0])  # one bit per vertex of r's orbit
    return seeds


def _orbits(graph: ShellGraph, found: list[int]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The orbits of the found sets under the cut group, each as its members
    in ascending order and their tree count, ordered by first member.

    A found set already in an earlier orbit adds nothing, so each orbit is
    mapped once and its trees are counted once, on its first member.
    """
    group = cut_group(graph)
    orbits = []
    seen: set[int] = set()
    for vt in found:
        if vt in seen:
            continue
        members = group.orbit(vt)[0]
        seen.update(members)
        orbits.append((members, count_interior_trees(graph, members[0])))
    return tuple(sorted(orbits))


# states the search expands at once: a larger block spends less time per
# node in numpy calls and holds more memory
_CHUNK = 4096


def _lowest(rows: np.ndarray) -> np.ndarray:
    """Index of the lowest vertex of each row, none of them empty."""
    # zeros below each word's lowest bit, 64 in an empty word
    low = np.bitwise_count((rows - np.uint64(1)) & ~rows)
    v = low[:, -1].astype(np.intp)
    for w in range(rows.shape[1] - 2, -1, -1):
        v = np.where(low[:, w] < 64, low[:, w], v + 64)
    return v


def _row_counts(rows: np.ndarray) -> np.ndarray:
    """The number of set bits of each row, added word by word: a sum over a
    short last axis costs more than one pass per word."""
    counts = np.bitwise_count(rows[:, 0]).astype(np.intp)
    for w in range(1, rows.shape[1]):
        counts += np.bitwise_count(rows[:, w])
    return counts


def _search(
    graph: ShellGraph, seeds: list[tuple[int, int]], n_grow: int, allowance: int,
    deadline: Optional[float] = None,
):
    """Vertex masks of the connected dominating sets of one level, each
    holding a phase seed and `n_grow` more vertices, the nodes visited and
    why the search stopped: None, "nodes" or "time".

    The phases run in order, one per seed (vt_mask, excl_mask), which
    starts from the set `vt_mask`, covering the closed neighborhoods of its
    vertices, and never takes a vertex of `excl_mask`.  Each branches
    include/exclude over an extension mask: a node takes the lowest vertex
    of its extension (the neighbors of the set that no branch has barred)
    into the set, and its later siblings bar it, so every set is visited
    once.  A state is three masks, the set, its cover and its extension,
    each a row of uint64 words.  A vertex of the cover is in the set, in
    the extension or barred, and one outside it is barred only by its
    phase, so a child's extension is its parent's higher bits plus the new
    vertex's neighbors outside the cover and the phase's barred vertices.

    Each phase keeps a stack of blocks of states at one depth and expands
    the top block, at most `_CHUNK` states of it, into one block of
    children: in each round every state takes its lowest extension vertex,
    and a child stays if its cover can still be completed.  The children go
    on top, so the search runs depth first and holds at most about
    `_CHUNK` x degree states per depth.  A block's nodes are the bits of
    its extensions.  The level stops before a block that would take it past
    `allowance` nodes, reporting `allowance + 1`, or before a block once
    `time.monotonic` is past `deadline`.  Rows are gathered and filtered
    with `take` on index arrays, which costs less per row than fancy or
    boolean indexing on arrays this narrow.
    """
    n = graph.n
    closed = closed_neighborhood_masks(graph)
    covers = [reduce(or_, (closed[v] for v in range(n) if (vt_mask >> v) & 1), 0) for vt_mask, _ in seeds]
    if n_grow == 0:
        return [vt_mask for (vt_mask, _), cov in zip(seeds, covers) if cov == (1 << n) - 1], 0, None
    bits = set_words([1 << v for v in range(n)], n)
    cov_masks = set_words(closed, n)
    step = max_cover_step(graph)
    found = [np.empty((0, bits.shape[1]), dtype=np.uint64)]
    nodes = 0
    for (vt_mask, excl_mask), cov_mask in zip(seeds, covers):
        # the neighbors each vertex may add to an extension in this phase
        nbr = set_words([m & ~excl_mask for m in graph.neighbor_masks], n)
        seed = set_words([vt_mask, cov_mask, cov_mask & ~vt_mask & ~excl_mask], n)
        stack = [(n_grow, *seed[:, None])]
        while stack:
            remaining, vt, cov, ext = stack.pop()
            if len(vt) > _CHUNK:
                # copied, so that the rest does not keep the whole block alive
                stack.append((remaining, vt[_CHUNK:].copy(), cov[_CHUNK:].copy(), ext[_CHUNK:].copy()))
                vt, cov, ext = vt[:_CHUNK], cov[:_CHUNK], ext[:_CHUNK]
            if deadline is not None and time.monotonic() > deadline:
                return word_sets(np.concatenate(found)), nodes, "time"
            counts = _row_counts(ext)
            nodes += int(counts.sum())
            if nodes > allowance:
                return word_sets(np.concatenate(found)), allowance + 1, "nodes"
            # states by falling node count, so the states still branching
            # in a round are a prefix; live[r] of them branch in round r
            order = np.argsort(counts)[::-1]
            vt, cov, ext = vt.take(order, axis=0), cov.take(order, axis=0), ext.take(order, axis=0)
            live = len(counts) - np.cumsum(np.bincount(counts))[:-1]
            need = n - (remaining - 1) * step
            kids = []
            for k in live.tolist():
                vt, cov, ext = vt[:k], cov[:k], ext[:k]
                v = _lowest(ext)
                bit = bits.take(v, axis=0)
                ext ^= bit
                ncov = cov | cov_masks.take(v, axis=0)
                keep = np.flatnonzero(_row_counts(ncov) >= need)
                if not len(keep):
                    continue
                child = vt.take(keep, axis=0) | bit.take(keep, axis=0)
                if remaining == 1:
                    found.append(child)
                else:
                    grown = nbr.take(v.take(keep), axis=0) & ~cov.take(keep, axis=0)
                    kids.append((child, ncov.take(keep, axis=0), ext.take(keep, axis=0) | grown))
            if kids:
                stack.append((remaining - 1, *(np.concatenate(part) for part in zip(*kids))))
    return word_sets(np.concatenate(found)), nodes, None


def enumerate_interiors(
    graph: ShellGraph,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    time_limit: Optional[float] = None,
) -> InteriorResult:
    """All optimal interior sets of a connected shell graph, as orbits under
    the cut group, with the number of trees on each set.

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
    seed_size = seeds[0][0].bit_count()
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

    return InteriorResult(
        graph=graph,
        leaf_count=graph.n - n_s,
        n_interior=n_s,
        orbits=_orbits(graph, found),
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


def _shape(result: InteriorResult) -> tuple[tuple[int, ...], int, int]:
    """The boundary edges every cut holds, the number of columns the
    boundary and a tree fill, and the number of edges in a cut."""
    graph = result.graph
    boundary = graph.boundary_edges
    # a tree on a set joins its seed (one vertex, or the boundary) to the rest
    n_fixed = len(boundary) + result.n_interior - (graph.boundary_mask.bit_count() or 1)
    return boundary, n_fixed, n_fixed + result.leaf_count


_HINT = "; `count` gives the totals without a listing"


def _refuse_past_memory(result: InteriorResult, needs: str, size: int) -> None:
    """Raise `BudgetExceededError` naming what a listing `needs` when its
    `size` in bytes exceeds physical memory."""
    if size > (memory := _physical_memory()):
        raise BudgetExceededError(
            f"{needs}, more than the {memory} bytes of physical memory{_HINT}", partial=result.level_reports,
        )


def _first_member_trees(result: InteriorResult, group: AutomorphismGroup) -> Iterator[tuple]:
    """For each orbit of sets: its members, the trees on its first member as
    an int32 array of one row per tree, and for each member the index of
    the first perm of the cut group that takes the first member there.

    Raises ValidationError unless the orbit is its first member's orbit
    under the group and the trees number the orbit's tree count."""
    graph = result.graph
    boundary, n_fixed, _ = _shape(result)
    for members, n_trees in result.orbits:
        first = members[0]
        trees = merged_spanning_trees(graph, first, interior_seed(graph, first))
        if len(trees) != n_trees:
            raise ValidationError(f"set {first:#x} lists {len(trees)} trees but counts {n_trees}")
        images, _, reps = group.orbit(first)
        if images != members:
            raise ValidationError(f"set {first:#x}: the orbit given is not its orbit under the cut group")
        yield members, np.asarray(trees, dtype=np.int32).reshape(n_trees, n_fixed - len(boundary)), reps


def _listing(plans, boundary, n_cuts: int, n_fixed: int, width: int, m: int) -> np.ndarray:
    """The cuts of every (trees, leaf choices) plan as one int32 array, each
    row sorted and the rows in lexicographic order; `m` is the edge count.

    A plan's trees are an int32 array, one row per tree, and its block of
    cuts is every tree with every leaf combination.  The rows are sorted by
    keys of the narrowest unsigned type that holds every edge id, on which
    numpy's stable sort is a radix sort for ids up to 65535.
    """
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
        block = cuts[at:at + len(trees) * len(combos)].reshape(len(trees), len(combos), width)
        block[:, :, len(boundary):n_fixed] = trees[:, None, :]
        block[:, :, n_fixed:] = combos
        at += block.shape[0] * block.shape[1]
    cuts.sort(axis=1)
    if width:
        keys = cuts.T[::-1].astype(np.min_scalar_type(m - 1))
        order = np.lexsort(keys)
        del keys  # freed before the gather, which holds the listing twice
        cuts = cuts.take(order, axis=0)
    return cuts


def _checked_listing(plans, result: InteriorResult, n_cuts: int, needs: str) -> np.ndarray:
    """`_listing` of a result's plans, checked: no cut twice, and every cut
    a hole cut on an open shell.  An allocation that fails raises
    `BudgetExceededError` naming what the listing `needs`."""
    graph = result.graph
    boundary, n_fixed, width = _shape(result)
    try:
        cuts = _listing(plans, boundary, n_cuts, n_fixed, width, graph.m)
    except MemoryError as exc:
        raise BudgetExceededError(
            f"{needs}, which could not be allocated{_HINT}", partial=result.level_reports,
        ) from exc
    if (cuts[1:] == cuts[:-1]).all(axis=1).any():
        raise ValidationError("the expansion emitted a cut twice")
    if boundary:
        check_hole_cuts(graph, cuts)
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
    checked by `holes.check_hole_cuts`.  The trees are listed once per orbit
    of sets, on its first member, and mapped onto each other member by the
    first perm of the cut group that takes the first member there.  The
    listing's size comes from `count_labeled_cuts`, and one too large for
    physical memory, or whose allocation fails, raises
    `BudgetExceededError`; an orbit whose listed trees differ from its
    determinant count, or a mapped tree with an end outside its member,
    raises `ValidationError`.  `workers`
    is accepted and has no effect; it stays while the benchmark harness
    (`perfbench/`) passes it.
    """
    result = enumerate_interiors(graph, budget_nodes, time_limit)
    n_cuts = count_labeled_cuts(result)
    _, _, width = _shape(result)
    size = n_cuts * width * 4  # int32 entries
    needs = (f"the cut listing needs n_cuts x width x 4 = {n_cuts} x {width} x 4 = {size} bytes "
             f"({size / 2**30:.1f} GiB) and as much again to sort it")
    _refuse_past_memory(result, needs, 2 * size)
    group = cut_group(graph)
    ends = set_words([(1 << u) | (1 << v) for u, v in graph.edges], graph.n)
    plans = []
    for members, trees, reps in _first_member_trees(result, group):
        # the other members' trees are the first member's mapped onto them
        for vt, k in zip(members, reps):
            mapped = np.sort(group.edge_perms[k][trees], axis=1)
            if (ends[mapped] & ~set_words([vt], graph.n)).any():
                raise ValidationError(f"set {vt:#x}: a tree mapped from set {members[0]:#x} leaves it")
            plans.append((mapped, leaf_choices(graph, vt)))
    return MlstResult(**vars(result), cuts=_checked_listing(plans, result, n_cuts, needs))


def list_classes(result: InteriorResult) -> CutClasses:
    """The classes of a result's optimal cuts under the cut group, as
    `dedupe_cuts` gives them from the whole listing, listed from the cuts
    on each orbit's first member alone.

    A class's sets form one orbit of sets, and its cuts on that orbit's
    first member S form one orbit under the stabilizer of S, so every class
    has a cut on some first member.  Each cut on S goes to its orbit
    minimum and orbit size (`AutomorphismGroup.cut_orbits`), and the
    distinct minima, in lexicographic order, are the classes
    (`CutClasses.from_cuts`).  Their orbit sizes must sum to
    `count_labeled_cuts`, the trees on each S must number its tree count,
    and an open shell's cuts must pass `holes.check_hole_cuts`.  The cuts
    on first members, their sorted copy (later, the classes' rows), a key
    of ⌈E/64⌉ words for each and four int64 per cut (its orbit size, the
    perm that reaches its minimum, and for each class the index and perm
    of its cut), n x (2 x width x 4 + 8 x words + 32) bytes, are refused
    with `BudgetExceededError` before anything is listed when they exceed
    physical memory.
    """
    graph = result.graph
    group = cut_group(graph)
    n_cuts = sum(_first_member_cuts(result))
    _, _, width = _shape(result)
    n_words = -(-graph.m // 64)
    size = n_cuts * (2 * width * 4 + 8 * n_words + 32)
    needs = (f"the class listing needs n x (2 x width x 4 + 8 x words + 32) = "
             f"{n_cuts} x (2 x {width} x 4 + 8 x {n_words} + 32) = {size} bytes ({size / 2**30:.1f} GiB) "
             f"for the n cuts on the first members of the orbits of sets")
    _refuse_past_memory(result, needs, size)
    plans = [(trees, leaf_choices(graph, members[0])) for members, trees, _ in _first_member_trees(result, group)]
    classes = CutClasses.from_cuts(group, _checked_listing(plans, result, n_cuts, needs))
    if int(classes.orbit_sizes.sum()) != count_labeled_cuts(result):
        raise ValidationError("the classes' orbit sizes do not sum to the labeled cut count")
    return classes
