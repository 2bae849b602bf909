"""Shell automorphisms and cut deduplication.

Two labeled cuts describe the same net when a symmetry of the shell's face
map maps one edge set onto the other.  The group is read off the face map
with no search, labeled cuts are grouped into orbits under the induced edge
permutations, and each orbit is reported once by its lexicographically
smallest member.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .polyhedra import face_map
from .shellgraph import ShellGraph, interior_seed, merged_spanning_trees

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
    # Closure: pick generators greedily, each a permutation the earlier ones
    # do not generate, and generate the group from them, failing at the
    # first product outside `perms`.  Every permutation ends up generated,
    # so `perms` is closed exactly when no product leaves it.  Each new
    # generator at least doubles the generated group, so there are at most
    # log2 |G| of them and this costs O(|G| log|G| n), not O(|G|^2 n).
    generators: list[tuple[int, ...]] = []
    generated = {identity}
    for p in group.perms:
        if p in generated:
            continue
        generators.append(p)
        frontier = list(generated)
        while frontier:
            grown = []
            for q in frontier:
                for g in generators:
                    product = tuple(g[x] for x in q)
                    if product not in generated:
                        if product not in perm_set:
                            raise ValidationError("group is not closed under composition")
                        generated.add(product)
                        grown.append(product)
            frontier = grown


def find_automorphisms(graph: ShellGraph) -> AutomorphismGroup:
    """The automorphism group of a connected shell graph's face map, found
    once per graph: the search, the listing and the counts all use it.

    Dart 2e runs along edge e from its lower end and dart 2e + 1 back, so
    `d ^ 1` reverses d; each dart lies in one face, and an open shell's hole
    is one more face (`polyhedra.face_map`, which also rejects a shell
    pinched at a vertex).  A map automorphism is fixed by the image t of dart 0
    and whether it keeps orientation (Weinberg 1966): it commutes with
    reversal and maps the dart after d in its face to the dart after t, or
    for a reflection to the reverse of the dart before t ^ 1.  Spreading
    each of the 4E choices takes O(E^2) with no search, and |G| <= 4E.  A
    graph without faces gets the trivial group.
    """
    group = _GROUPS.get(graph)
    if group is None:
        group = _GROUPS[graph] = _map_automorphisms(graph)
    return group


def _spread(following: list[int], preceding: list[int], target: int, mirror: bool):
    """The dart map sending dart 0 to `target`, or None at its first
    conflict (a dart given two images, or two darts one)."""
    image = [-1] * len(following)
    image[0] = target
    taken = {target}
    stack = [0]
    while stack:
        d = stack.pop()
        t = image[d]
        after = preceding[t ^ 1] ^ 1 if mirror else following[t]
        for d2, t2 in ((d ^ 1, t ^ 1), (following[d], after)):
            if image[d2] != t2:
                if image[d2] >= 0 or t2 in taken:
                    return None
                image[d2] = t2
                taken.add(t2)
                stack.append(d2)
    return image


def _map_automorphisms(graph: ShellGraph) -> AutomorphismGroup:
    if not graph.is_connected():
        raise ValidationError("graph is disconnected")
    if not graph.faces:
        return AutomorphismGroup(n=graph.n, perms=(tuple(range(graph.n)),))
    # face_map also requires one fan of faces per vertex, without which
    # spreading would leave darts unmapped
    following = face_map(graph.edges, graph.faces, [graph.edges[e] for e in graph.boundary_edges])
    n_darts = len(following)
    preceding = [0] * n_darts
    for d, d2 in enumerate(following):
        preceding[d2] = d
    tail = [graph.edges[d >> 1][d & 1] for d in range(n_darts)]
    perms = set()
    for target in range(n_darts):
        for mirror in (False, True):
            image = _spread(following, preceding, target, mirror)
            if image is not None:
                perm = dict(zip(tail, (tail[t] for t in image)))
                perms.add(tuple(perm[v] for v in range(graph.n)))
    group = AutomorphismGroup(n=graph.n, perms=tuple(sorted(perms)))
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


def rows_in_lex_order(rows: np.ndarray) -> bool:
    """Whether the rows of a 2-D int array are distinct and in
    lexicographic order: each row exceeds the one before at the first
    position where they differ."""
    if not rows.shape[1]:
        return rows.shape[0] <= 1
    later, earlier = rows[1:], rows[:-1]
    first = (later != earlier).argmax(axis=1)[:, None]
    return bool((np.take_along_axis(later, first, 1) > np.take_along_axis(earlier, first, 1)).all())


@dataclass(frozen=True, eq=False)
class CutClasses(Sequence[CanonicalCut]):
    """Orbits of labeled cuts, as arrays: `cuts` holds each orbit's smallest
    member (rows in lexicographic order, as `dedupe_cuts` returns them) and
    `orbit_sizes` the orbit sizes.

    Read as a sequence it gives one `CanonicalCut` per row, built on access;
    a slice is a `CutClasses` of the selected rows.
    """

    cuts: np.ndarray
    orbit_sizes: np.ndarray

    def __post_init__(self):
        if self.cuts.ndim != 2 or self.orbit_sizes.shape != self.cuts.shape[:1]:
            raise ValidationError(
                f"classes need a 2-D cut array and one orbit size per row, got shapes "
                f"{self.cuts.shape} and {self.orbit_sizes.shape}"
            )

    def __len__(self) -> int:
        return self.cuts.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CutClasses(self.cuts[index], self.orbit_sizes[index])
        return CanonicalCut(edges=tuple(self.cuts[index].tolist()), orbit_size=int(self.orbit_sizes[index]))

    def __iter__(self):
        for row, size in zip(self.cuts.tolist(), self.orbit_sizes.tolist()):
            yield CanonicalCut(edges=tuple(row), orbit_size=size)


def dedupe_cuts(
    graph: ShellGraph,
    cuts: np.ndarray,
    group: AutomorphismGroup,
) -> CutClasses:
    """Group labeled cuts into orbits; return each orbit's smallest member.

    `cuts` holds one ascending row of edge ids per labeled cut and must be
    closed under the group action (a complete enumeration is).  Rows are
    sorted lexicographically unless they already are (`enumerate_mlsts`
    lists them in that order), and duplicates raise.  Under a trivial group
    every row is its own class, and the rows come back as they are with
    orbit sizes of 1.  Otherwise rows are visited in order and each unseen
    row has its whole orbit marked, so every orbit is canonicalized exactly
    once and the first unseen row is the orbit minimum.  Orbit membership is
    tracked by exact byte keys of the sorted edge ids (dict hashing plus
    exact comparison), and the orbit-sum identity Σ|orbit| = #cuts is
    enforced.
    """
    cuts = np.asarray(cuts)
    if cuts.ndim != 2 or not np.issubdtype(cuts.dtype, np.integer):
        raise ValidationError(f"cuts must be a 2-D array of edge ids, got {cuts.dtype} of shape {cuts.shape}")
    n_cuts, k = cuts.shape
    if not rows_in_lex_order(cuts):
        if k:
            cuts = cuts[np.lexsort(cuts.T[::-1])]
        if not rows_in_lex_order(cuts):
            raise ValidationError("duplicate labeled cuts in dedup input")
    if group.order == 1:
        return CutClasses(cuts, np.ones(n_cuts, dtype=np.int64))
    cuts = np.ascontiguousarray(cuts)
    table = edge_permutations(graph, group).astype(cuts.dtype)
    key_type = np.dtype((np.void, k * cuts.itemsize))
    keys = cuts.view(key_type).ravel().tolist()
    present = set(keys)
    seen: set[bytes] = set()
    reps: list[int] = []
    sizes: list[int] = []
    for i, key in enumerate(keys):
        if key in seen:
            continue
        images = np.sort(table.take(cuts[i], axis=1), axis=1)  # take keeps rows contiguous
        orbit = set(images.view(key_type).ravel().tolist())
        if not orbit <= present:
            raise ValidationError("cut list is not closed under the automorphism group")
        seen |= orbit
        reps.append(i)
        sizes.append(len(orbit))
    if sum(sizes) != n_cuts:
        raise ValidationError("orbit sizes do not sum to the labeled count")
    return CutClasses(cuts[reps], np.asarray(sizes, dtype=np.int64))


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
    sets: Sequence[tuple[int, int]],
    group: AutomorphismGroup,
) -> int:
    """Number of cut classes, by fixed-point counting over the group.

    `sets` are the interior sets as (vertex mask, number of trees on it),
    closed under the group.  Every labeled cut is a tree on a set plus one
    attachment edge per outside vertex, so the class count is
    (1/|G|) Σ_g |Fix(g)|.  A cut fixed by g needs g to fix its set, to fix
    its tree, and to map attachment choices consistently around each g-cycle
    of outside vertices.  Going around a cycle of length c returns the
    choice composed with g^c, so each cycle contributes the edges from one of
    its vertices w into the set that g^c fixes; as g^c fixes w, those are
    the edges to set vertices g^c fixes.  The identity fixes every tree, and
    a set with one tree has it fixed by every g that fixes the set; only
    the other sets, with a g ≠ id fixing them, have their trees listed and
    tested.  Pairs of g and a set it fixes are rare (their total is the
    number of set classes times |G|), which keeps this polynomial even when
    the labeled cut count is astronomical.
    """
    if len({vt.bit_count() for vt, _ in sets}) > 1:
        raise ValidationError("interior sets have mixed sizes")
    n = graph.n
    nbr = graph.neighbor_masks
    n_bytes = (n + 7) // 8
    raw = b"".join(vt.to_bytes(n_bytes, "little") for vt, _ in sets)
    member = np.unpackbits(
        np.frombuffer(raw, dtype=np.uint8).reshape(len(sets), n_bytes), axis=1, bitorder="little",
    )[:, :n].astype(bool)
    table = None
    trees_of: dict[int, np.ndarray] = {}
    total = 0
    for k, p in enumerate(group.perms):
        # the cycles of g, each as (mask, first vertex, vertices g^c fixes)
        cycles = []
        seen = 0
        for w in range(n):
            if (seen >> w) & 1:
                continue
            cycle = 1 << w
            x = p[w]
            while x != w:
                cycle |= 1 << x
                x = p[x]
            seen |= cycle
            cycles.append((cycle, w, cycle.bit_count()))
        cycles = [
            (cycle, w, sum(c for c, _, size in cycles if length % size == 0))
            for cycle, w, length in cycles
        ]
        for i in np.flatnonzero((member[:, list(p)] == member).all(axis=1)).tolist():
            vt, fixed = sets[i]
            if k and fixed > 1:  # perms[0] is the identity, which fixes every tree
                if table is None:
                    table = edge_permutations(graph, group)
                if i not in trees_of:
                    trees_of[i] = np.asarray(
                        merged_spanning_trees(graph, vt, interior_seed(graph, vt)), dtype=np.intp,
                    )
                trees = trees_of[i]
                fixed = int((np.sort(table[k][trees], axis=1) == trees).all(axis=1).sum())
            for cycle, w, fix_mask in cycles:
                if not cycle & vt:
                    fixed *= (nbr[w] & vt & fix_mask).bit_count()
                    if not fixed:
                        break
            total += fixed
    if total % group.order:
        raise ValidationError("fixed-point total must divide by the group order")
    return total // group.order
