"""Shell-graph automorphisms and cut deduplication.

Two labeled cuts describe the same net when a vertex relabeling that fixes the
shell graph maps one edge set onto the other.  The full automorphism group is
found by backtracking (graphs here have at most a few hundred automorphisms),
labeled cuts are grouped into orbits under the induced edge permutations, and
each orbit is reported once by its lexicographically smallest member.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ValidationError
from .shellgraph import ShellGraph, leaf_choices

Cut = tuple[int, ...]

# ShellGraph hashes by identity, so a graph's group lives as long as the graph
_GROUPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class AutomorphismGroup:
    """All vertex relabelings fixing a shell graph.

    `perms` are permutations as tuples (`perm[v]` is the image of vertex v),
    sorted lexicographically, identity first.
    """

    n: int
    perms: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.perms)

    def __iter__(self):
        return iter(self.perms)


@dataclass(frozen=True)
class CanonicalCut:
    """One orbit of labeled cuts: its smallest member and the orbit size."""

    edges: Cut
    orbit_size: int


def _check_group_axioms(graph: ShellGraph, group: AutomorphismGroup) -> None:
    perm_set = set(group.perms)
    identity = tuple(range(group.n))
    if identity not in perm_set:
        raise ValidationError("group is missing the identity")
    edge_set = set(graph.edges)
    for p in group.perms:
        for u, v in graph.edges:
            image = (p[u], p[v]) if p[u] < p[v] else (p[v], p[u])
            if image not in edge_set:
                raise ValidationError(f"permutation {p} does not preserve the edge set")
        inverse = [0] * group.n
        for v, w in enumerate(p):
            inverse[w] = v
        if tuple(inverse) not in perm_set:
            raise ValidationError(f"group is missing the inverse of {p}")
    for p in group.perms:
        for q in group.perms:
            if tuple(p[q[v]] for v in range(group.n)) not in perm_set:
                raise ValidationError("group is not closed under composition")


def find_automorphisms(graph: ShellGraph) -> AutomorphismGroup:
    """The complete automorphism group of a connected shell graph, found
    once per graph: the search, the listing and the counts all use it.

    Backtracking over a breadth-first vertex order: a candidate image must
    have the right degree and its already-mapped neighborhood must match the
    image of the vertex's already-mapped neighborhood exactly, which is the
    row-by-row version of comparing the permuted adjacency matrix with the
    original.
    """
    group = _GROUPS.get(graph)
    if group is None:
        group = _GROUPS[graph] = _search_automorphisms(graph)
    return group


def _search_automorphisms(graph: ShellGraph) -> AutomorphismGroup:
    if not graph.is_connected():
        raise ValidationError("graph is disconnected")
    n = graph.n
    masks = graph.neighbor_masks
    degrees = [graph.degree(v) for v in range(n)]

    # refinement: vertices can only map to vertices with the same degree and
    # the same multiset of neighbor degrees
    signature = [
        (degrees[v], tuple(sorted(degrees[w] for w in graph.adjacency[v])))
        for v in range(n)
    ]
    candidates = [
        [w for w in range(n) if signature[w] == signature[v]] for v in range(n)
    ]

    # breadth-first assignment order from a vertex with the rarest signature;
    # every later vertex has an assigned neighbor, so the mask prune below
    # stays tight
    start = min(range(n), key=lambda v: (len(candidates[v]), v))
    order = [start]
    seen = {start}
    for v in order:
        for w in graph.adjacency[v]:
            if w not in seen:
                seen.add(w)
                order.append(w)
    rank = {v: i for i, v in enumerate(order)}

    perms: list[tuple[int, ...]] = []
    image = [-1] * n
    used_mask = 0
    mapped_nbrs = [0] * n  # OR of images of v's already-assigned neighbors

    def assign(depth: int) -> None:
        nonlocal used_mask
        if depth == n:
            perms.append(tuple(image))
            return
        v = order[depth]
        need = 0
        for u in graph.adjacency[v]:
            if image[u] >= 0:
                need |= 1 << image[u]
        for w in candidates[v]:
            if (used_mask >> w) & 1:
                continue
            if masks[w] & used_mask != need:
                continue
            image[v] = w
            used_mask |= 1 << w
            assign(depth + 1)
            used_mask ^= 1 << w
            image[v] = -1

    assign(0)
    group = AutomorphismGroup(n=n, perms=tuple(sorted(perms)))
    _check_group_axioms(graph, group)
    return group


def edge_permutations(graph: ShellGraph, group: AutomorphismGroup) -> np.ndarray:
    """Induced permutations of canonical edge ids, one row per automorphism."""
    if group.n != graph.n:
        raise ValidationError("group and graph sizes differ")
    table = np.empty((group.order, graph.m), dtype=np.int32)
    for k, p in enumerate(group.perms):
        for e, (u, v) in enumerate(graph.edges):
            a, b = p[u], p[v]
            table[k, e] = graph.edge_index[(a, b) if a < b else (b, a)]
    return table


def dedupe_cuts(
    graph: ShellGraph,
    cuts: np.ndarray,
    group: AutomorphismGroup,
) -> list[CanonicalCut]:
    """Group labeled cuts into orbits; return each orbit's smallest member.

    `cuts` must be closed under the group action (a complete enumeration is).
    Rows are visited in lexicographic order and each unseen row has its whole
    orbit marked, so every orbit is canonicalized exactly once and the first
    unseen row is the orbit minimum.  Orbit membership is tracked by exact
    byte keys of the sorted edge ids (dict hashing plus exact comparison), and
    the orbit-sum identity Σ|orbit| = #cuts is enforced.
    """
    cuts = np.asarray(cuts, dtype=np.int16)
    n_cuts, k = cuts.shape
    order = np.lexsort(tuple(cuts[:, c] for c in range(k - 1, -1, -1)))
    cuts = np.ascontiguousarray(cuts[order])
    table = edge_permutations(graph, group).astype(np.int16)
    key_type = np.dtype((np.void, k * cuts.itemsize))
    keys = cuts.view(key_type).ravel().tolist()
    present = set(keys)
    if len(present) != n_cuts:
        raise ValidationError("duplicate labeled cuts in dedup input")
    seen: set[bytes] = set()
    reps: list[CanonicalCut] = []
    total = 0
    for row, key in zip(cuts.tolist(), keys):
        if key in seen:
            continue
        images = np.sort(table.take(row, axis=1), axis=1)  # take keeps rows contiguous
        orbit = set(images.view(key_type).ravel().tolist())
        if not orbit <= present:
            raise ValidationError("cut list is not closed under the automorphism group")
        seen |= orbit
        total += len(orbit)
        reps.append(CanonicalCut(edges=tuple(row), orbit_size=len(orbit)))
    if total != n_cuts:
        raise ValidationError("orbit sizes do not sum to the labeled count")
    return reps


def edge_set_stabilizer(
    graph: ShellGraph,
    group: AutomorphismGroup,
    edge_ids: Sequence[int],
) -> AutomorphismGroup:
    """The subgroup whose induced edge permutations fix an edge set setwise.

    Hole cuts all contain the boundary cycle, so they are closed only under
    this subgroup of the full graph group; dedup of hole cuts must use it.
    """
    table = edge_permutations(graph, group)
    target = np.zeros(graph.m, dtype=bool)
    target[list(edge_ids)] = True
    kept = [
        group.perms[k]
        for k in range(group.order)
        if np.array_equal(target[table[k]], target)
    ]
    return AutomorphismGroup(n=group.n, perms=tuple(sorted(kept)))


def count_net_classes(
    graph: ShellGraph,
    interiors: Sequence[tuple[int, Sequence[int]]],
    group: AutomorphismGroup,
) -> int:
    """Number of cut classes, by fixed-point counting over the group.

    Every labeled cut is an interior plus one attachment edge per outside
    vertex, so the class count is (1/|G|) Σ_g |Fix(g)|, where a fixed cut
    needs g to fix its interior edge set and to map attachment choices
    consistently around each g-cycle of outside vertices: going around a
    cycle of length c returns the choice composed with g^c, so each cycle
    contributes the number of g^c-fixed candidate edges at one of its
    vertices.  Only interiors fixed by g contribute, and those pairs are rare
    (their total is the interior class count times |G|), which keeps this
    polynomial even when the labeled cut count is astronomical.
    """
    table = edge_permutations(graph, group)
    index_of = {p: k for k, p in enumerate(group.perms)}
    edge_rows = [np.asarray(sorted(int(e) for e in edges), dtype=np.int32)
                 for _, edges in interiors]
    widths = {arr.shape[0] for arr in edge_rows}
    if len(widths) > 1:
        raise ValidationError("interiors have mixed edge counts")
    mat = np.vstack(edge_rows) if edge_rows else np.empty((0, 0), dtype=np.int32)
    vts = [vt for vt, _ in interiors]

    powers_cache: dict[tuple[int, int], tuple[int, ...]] = {}

    def perm_power(p: tuple[int, ...], c: int) -> tuple[int, ...]:
        key = (index_of[p], c)
        if key not in powers_cache:
            q = tuple(range(group.n))
            for _ in range(c):
                q = tuple(p[x] for x in q)
            powers_cache[key] = q
        return powers_cache[key]

    total = 0
    for k, p in enumerate(group.perms):
        if mat.shape[1]:
            images = np.sort(table[k][mat], axis=1)
            fixed_rows = np.nonzero((images == mat).all(axis=1))[0]
        else:
            # edgeless interiors are single vertices; fixed iff the vertex is
            fixed_rows = np.array(
                [i for i, vt in enumerate(vts) if (vt >> p[vt.bit_length() - 1]) & 1],
                dtype=np.int64,
            )
        for i in fixed_rows:
            vt = vts[int(i)]
            outside = [w for w in range(graph.n) if not (vt >> w) & 1]
            choice_of = dict(zip(outside, leaf_choices(graph, vt)))
            if any((vt >> p[w]) & 1 for w in outside):
                raise ValidationError("a fixed interior edge set must fix the outside vertex set")
            visited: set[int] = set()
            prod = 1
            for w in outside:
                if w in visited:
                    continue
                cycle = [w]
                x = p[w]
                while x != w:
                    cycle.append(x)
                    x = p[x]
                visited.update(cycle)
                h_edges = table[index_of[perm_power(p, len(cycle))]]
                prod *= sum(1 for e in choice_of[w] if int(h_edges[e]) == e)
                if prod == 0:
                    break
            total += prod
    if total % group.order:
        raise ValidationError("fixed-point total must divide by the group order")
    return total // group.order
