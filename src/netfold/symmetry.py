"""Shell automorphisms and cut deduplication.

Two labeled cuts describe the same net when a symmetry of the shell's face
map maps one edge set onto the other.  The group is read off the face map
with no search; cuts are classed under `cut_group`, its subgroup that fixes
the hole boundary, which this module alone decides.  Labeled cuts are
grouped into orbits under the induced edge permutations, and each orbit is
reported once by its lexicographically smallest member.

A cut's key is a set of edge bits, bit E - 1 - e for each of its edges e,
held as ⌈E/64⌉ uint64 words in the layout of `shellgraph.set_words`.  Of
two cuts with as many edges, the lexicographically smaller has the larger
key, compared from the highest word down: the smallest edge in which they
differ is the highest bit in which their keys differ.
"""

from __future__ import annotations

import weakref
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ValidationError
from .polyhedra import Edge
from .shellgraph import ShellGraph, interior_seed, merged_spanning_trees, set_words, word_sets

Cut = tuple[int, ...]

# uint64 words the keys of one block of cuts under every perm may hold, so
# that a block's (rows, order, words) key array stays near 2 MiB
_KEY_BLOCK = 1 << 18

# ShellGraph hashes by identity, so a graph's groups live as long as the graph
_GROUPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
_CUT_GROUPS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


@dataclass(frozen=True, eq=False)
class AutomorphismGroup:
    """All vertex relabelings fixing a shell graph, and their action on its
    edges and vertex sets; no other module applies a relabeling.

    `perms` are permutations as tuples (`perm[v]` is the image of vertex v),
    sorted lexicographically, identity first.  `edges` are the graph's
    canonical edges, whose ids `edge_perms` permutes.  The group does not
    refer to its graph, so the caches keyed by the graph let it go.
    """

    n: int
    edges: tuple[Edge, ...]
    perms: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return len(self.perms)

    @cached_property
    def edge_perms(self) -> np.ndarray:
        """The induced permutations of edge ids as an (order, E) int32
        table: row k maps edge e to the id of its image under perms[k].
        Each image edge is looked up among the sorted edge keys; one that
        is not an edge raises ValidationError."""
        ends = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        keys = ends[:, 0] * self.n + ends[:, 1]
        order = np.argsort(keys)
        images = np.asarray(self.perms, dtype=np.int64)[:, ends]
        image_keys = images.min(axis=2) * self.n + images.max(axis=2)
        at = np.minimum(np.searchsorted(keys[order], image_keys), len(keys) - 1)
        ids = order[at]
        moved = (keys[ids] != image_keys).any(axis=1)
        if moved.any():
            raise ValidationError(f"permutation {self.perms[moved.argmax()]} does not preserve the edge set")
        return ids.astype(np.int32)

    @cached_property
    def _image_bits(self) -> np.ndarray:
        """An (order, n, W) uint64 array, W = ⌈n/64⌉: entry (k, v) is the
        image of vertex v under perms[k] as a set of words."""
        bits = set_words([1 << v for v in range(self.n)], self.n)
        return bits[np.asarray(self.perms, dtype=np.intp).reshape(self.order, self.n)]

    @cached_property
    def _edge_keys(self) -> np.ndarray:
        """An (E, order, W) uint64 array, W = ⌈E/64⌉: entry (e, k) is the
        key of the image of edge e under perms[k].  Edge-major, so that
        gathering the entries of a column of edge ids copies whole rows."""
        m = len(self.edges)
        return set_words([1 << (m - 1 - e) for e in range(m)], m)[self.edge_perms.T]

    def cut_orbits(self, cuts: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The orbit minimum and orbit size of each cut, a row of distinct
        edge ids: an (N, W) uint64 array of the minima's keys, which are the
        largest keys of the cuts' images; an int64 array of |G| over the
        number of perms that fix each cut's key; and, for each cut, the
        index of a perm that takes it to its minimum.

        The keys of a block of rows under every perm are ORed together one
        column at a time, and the blocks are sized so that their (rows,
        order, W) key array holds at most `_KEY_BLOCK` words."""
        edge_keys = self._edge_keys
        n_words = edge_keys.shape[2]
        minima = np.empty((len(cuts), n_words), dtype=np.uint64)
        sizes = np.empty(len(cuts), dtype=np.int64)
        reach = np.zeros(len(cuts), dtype=np.int64)
        step = max(1, _KEY_BLOCK // (self.order * max(n_words, 1)))
        for at in range(0, len(cuts), step):
            block = cuts[at:at + step]
            keys = np.zeros((len(block), self.order, n_words), dtype=np.uint64)
            for column in block.T:
                keys |= edge_keys[column]
            sizes[at:at + len(block)] = self.order // (keys == keys[:, :1]).all(axis=2).sum(axis=1)
            # the largest key, highest word first; `best` marks the perms
            # whose image ties the largest on the words taken so far
            best = None
            for w in range(n_words - 1, -1, -1):
                word = keys[:, :, w] if best is None else np.where(best, keys[:, :, w], 0)
                top = minima[at:at + len(block), w] = word.max(axis=1)
                best = word == top[:, None] if best is None else best & (word == top[:, None])
            if best is not None:
                reach[at:at + len(block)] = best.argmax(axis=1)
        return minima, sizes, reach

    def orbit(self, mask: int) -> tuple[tuple[int, ...], list[int], list[int]]:
        """The images of a vertex set given as a bitmask, ascending and each
        once; the indices of the perms that fix it; and, for each image, the
        index of the first perm that maps the set onto it.

        Each image is the OR of the images of the set's vertices, one
        lookup for every perm at once.  Raises ValidationError unless the
        mask is a set of the group's vertices."""
        words = set_words([mask], self.n)
        vertices = [v for v in range(self.n) if (mask >> v) & 1]
        images = np.bitwise_or.reduce(self._image_bits[:, vertices], axis=1)
        # images in ascending order, each perm's after those of lower index
        order = np.lexsort(images.T)
        ranked = images[order]
        first = np.ones(len(order), dtype=bool)
        first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
        reps = order[first]
        stabilizer = np.flatnonzero((images == words).all(axis=1))
        return tuple(word_sets(images[reps])), stabilizer.tolist(), reps.tolist()


@dataclass(frozen=True)
class CanonicalCut:
    """One orbit of labeled cuts: its smallest member and the orbit size."""

    edges: Cut
    orbit_size: int


def _check_group_axioms(group: AutomorphismGroup) -> None:
    perm_set = set(group.perms)
    identity = tuple(range(group.n))
    if identity not in perm_set:
        raise ValidationError("group is missing the identity")
    group.edge_perms  # raises unless every perm preserves the edge set
    for p in group.perms:
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
    is one more face (`ShellGraph.face_map`, which also rejects a shell
    pinched at a vertex).  A map automorphism is fixed by the image of dart 0
    and whether it keeps orientation (Weinberg 1966): it commutes with
    reversal, and it maps the dart after d in its face to the dart after
    d's image t, or, for a reflection, to the reverse of the dart before
    t ^ 1.  All 4E choices are spread at once, one table column each, along
    a tree of the darts from dart 0, and those that keep both rules on
    every dart are the group: O(E^2) with no search, and |G| <= 4E.  Such a
    map needs no one-to-one check.  Its image is closed under reversal,
    and under succession: a rotation maps the dart after d to the dart
    after d's image, and a reflection to the reverse of the dart before
    the reverse of d's image, so with reversal the image is closed under
    the dart before, which on finite face cycles is the same.  The image
    thus holds every dart that reversal and succession reach from one of
    its darts, which on a connected map is every dart: the map is onto,
    and a map of a finite set onto itself is one to one.  A graph without
    faces gets the trivial group.
    """
    group = _GROUPS.get(graph)
    if group is None:
        group = _GROUPS[graph] = _map_automorphisms(graph)
    return group


def _map_automorphisms(graph: ShellGraph) -> AutomorphismGroup:
    if not graph.is_connected():
        raise ValidationError("graph is disconnected")
    if not graph.faces:
        return AutomorphismGroup(n=graph.n, edges=graph.edges, perms=(tuple(range(graph.n)),))
    # the face map also requires one fan of faces per vertex, without which
    # the tree would miss darts
    following = graph.face_map
    n_darts = len(following)
    # a tree of the darts from dart 0: each later dart is its parent's
    # reverse, or the dart after its parent in its face
    tree = [(0, 0, False)]
    reached = bytearray(n_darts)
    reached[0] = 1
    for d, _, _ in tree:
        for d2, succeeds in ((d ^ 1, False), (following[d], True)):
            if not reached[d2]:
                reached[d2] = 1
                tree.append((d2, d, succeeds))
    dtype = np.min_scalar_type(n_darts)
    darts = np.arange(n_darts, dtype=dtype)
    succ = np.asarray(following, dtype=dtype)
    pred = np.empty_like(succ)
    pred[succ] = darts
    # after[mirror, t]: the image of the dart after d, t being d's image
    after = np.stack([succ, pred[darts ^ 1] ^ 1])
    mirror = np.arange(2)[:, None]
    # image[d, mirror, target]: the image of dart d under each choice,
    # narrow so that the table adds little to a command's peak memory
    image = np.empty((n_darts, 2, n_darts), dtype=dtype)
    image[0] = darts
    for d, parent, succeeds in tree[1:]:
        image[d] = after[mirror, image[parent]] if succeeds else image[parent] ^ 1
    commutes = (image[darts ^ 1] == image ^ 1).all(axis=0) & (image[succ] == after[mirror, image]).all(axis=0)
    maps = image[:, commutes]
    tail = np.asarray(graph.edges).ravel()  # dart 2e leaves edges[e][0], 2e + 1 edges[e][1]
    out = np.empty(graph.n, dtype=np.intp)
    out[tail] = np.arange(n_darts)  # a dart leaving each vertex
    perms = set(map(tuple, tail[maps[out]].T.tolist()))
    group = AutomorphismGroup(n=graph.n, edges=graph.edges, perms=tuple(sorted(perms)))
    _check_group_axioms(group)
    return group


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

    @classmethod
    def from_cuts(cls, group: AutomorphismGroup, cuts: np.ndarray) -> CutClasses:
        """The classes of cuts given by at least one member each, a row of
        distinct edge ids: each cut's orbit minimum and orbit size from
        `group.cut_orbits`, and the distinct minima as int32 rows in
        lexicographic order, each with its orbit size.  Cuts with one
        minimum must have one orbit size."""
        minima, sizes, reach = group.cut_orbits(cuts)
        chosen = _first_of_each_minimum(minima, sizes)
        del minima
        # each chosen cut mapped by its perm, the cuts of one perm at a
        # time, so that no index array the size of the rows is made;
        # perms[0], the identity, leaves its cuts as they are (a set, as
        # np.unique would page in some 0.9 MiB of numpy's code)
        rows, perms = cuts[chosen], reach[chosen]
        for k in set(perms.tolist()) - {0}:
            hit = perms == k
            rows[hit] = group.edge_perms[k][rows[hit]]
        rows.sort(axis=1)
        return cls(rows, sizes[chosen])


def _first_of_each_minimum(minima: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The index of one cut of each distinct minimum key, in descending key
    order, which is the minima's lexicographic order.  Raises unless the
    cuts of one minimum have one orbit size."""
    order = np.lexsort(minima.T)[::-1] if minima.shape[1] else np.arange(len(minima))
    ranked = minima[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (ranked[1:] != ranked[:-1]).any(axis=1)
    runs = np.cumsum(first) - 1
    if (sizes[order] != sizes[order[first]][runs]).any():
        raise ValidationError("cuts of one class have different orbit sizes")
    return order[first]


def dedupe_cuts(
    graph: ShellGraph,
    cuts: np.ndarray,
    group: AutomorphismGroup,
) -> CutClasses:
    """Group labeled cuts into orbits; return each orbit's smallest member.

    `group` must act on the graph's edges.  `cuts` holds one ascending row
    of edge ids per labeled cut and must be closed under the group action
    (a complete enumeration is).  Rows are sorted lexicographically unless
    they already are (`enumerate_mlsts` lists them in that order), and
    duplicates raise.  Under a trivial group every row is its own class,
    and the rows come back as they are with orbit sizes of 1.  Otherwise
    rows are visited in order and each unseen row has its whole orbit
    marked, so every orbit is canonicalized exactly once and the first
    unseen row is the orbit minimum.  Orbit membership is tracked by exact
    byte keys of the sorted edge ids (dict hashing plus exact comparison),
    and the orbit-sum identity Σ|orbit| = #cuts is enforced.
    """
    if group.edges != graph.edges:
        raise ValidationError("the group acts on the edges of another graph")
    cuts = np.asarray(cuts)
    if cuts.ndim != 2 or not np.issubdtype(cuts.dtype, np.integer):
        raise ValidationError(f"cuts must be a 2-D array of edge ids, got {cuts.dtype} of shape {cuts.shape}")
    if cuts.size and not (cuts.min() >= 0 and cuts.max() < graph.m and (cuts[:, 1:] > cuts[:, :-1]).all()):
        raise ValidationError(f"each cut must list ascending, distinct edge ids below {graph.m}")
    n_cuts, k = cuts.shape
    if not rows_in_lex_order(cuts):
        if k:
            cuts = cuts[np.lexsort(cuts.T[::-1])]
        if not rows_in_lex_order(cuts):
            raise ValidationError("duplicate labeled cuts in dedup input")
    if group.order == 1:
        return CutClasses(cuts, np.ones(n_cuts, dtype=np.int64))
    cuts = np.ascontiguousarray(cuts)
    table = group.edge_perms.astype(cuts.dtype)
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


def cut_group(graph: ShellGraph) -> AutomorphismGroup:
    """The group cuts are classed under, found once per graph: the face-map
    automorphisms that fix the hole boundary, which every hole cut contains
    (the whole group on a closed shell).  Sets, counts and cuts use it."""
    group = _CUT_GROUPS.get(graph)
    if group is None:
        group = find_automorphisms(graph)
        if graph.boundary_edges:
            boundary = np.zeros(graph.m, dtype=bool)
            boundary[list(graph.boundary_edges)] = True
            kept = boundary[group.edge_perms[:, graph.boundary_edges]].all(axis=1)
            perms = tuple(p for p, keep in zip(group.perms, kept) if keep)
            group = AutomorphismGroup(n=group.n, edges=group.edges, perms=perms)
        _CUT_GROUPS[graph] = group
    return group


def _cycles(p: tuple[int, ...]) -> list[tuple[int, int, int]]:
    """The cycles of a vertex permutation g, each as (mask, first vertex,
    the vertices g^c fixes for its length c)."""
    cycles = []
    seen = 0
    for w in range(len(p)):
        if (seen >> w) & 1:
            continue
        cycle = 1 << w
        x = p[w]
        while x != w:
            cycle |= 1 << x
            x = p[x]
        seen |= cycle
        cycles.append((cycle, w, cycle.bit_count()))
    return [
        (cycle, w, sum(c for c, _, size in cycles if length % size == 0))
        for cycle, w, length in cycles
    ]


def count_net_classes(result) -> int:
    """Number of cut classes of an `mlst.enumerate_interiors` result, by
    Burnside's lemma over the cut group G, taken per orbit of sets.

    A cut is a tree on a set plus one attachment edge per outside vertex,
    and g fixes it only if g fixes its set.  The sets of an orbit, which
    must be an orbit under G, contribute alike: the orbit of S adds
    Σ_{g ∈ Stab S} |Fix(g, S)| / |Stab S|, which must be whole.  A cut on S
    fixed by g has its tree fixed by g, and its attachment choices mapped
    consistently around each g-cycle of outside vertices; going around a
    cycle of length c maps a choice by g^c, so the cycle contributes the
    edges from one of its vertices w to set vertices g^c fixes.  The
    identity fixes every tree, and one tree is fixed by all of Stab S; only
    first members with several trees and a g ≠ id fixing them have their
    trees listed, once per orbit, and tested.
    """
    graph, orbits = result.graph, result.orbits
    if len({vt.bit_count() for members, _ in orbits for vt in members}) > 1:
        raise ValidationError("interior sets have mixed sizes")
    group = cut_group(graph)
    nbr = graph.neighbor_masks
    cycles = [_cycles(p) for p in group.perms]
    total = 0
    for members, n_trees in orbits:
        vt = members[0]
        images, stab, _ = group.orbit(vt)
        if images != tuple(members):
            raise ValidationError(f"set {vt:#x}: the orbit given is not its orbit under the cut group")
        if n_trees > 1 and len(stab) > 1:
            trees = np.asarray(merged_spanning_trees(graph, vt, interior_seed(graph, vt)), dtype=np.intp)
        fixed_total = 0
        for k in stab:
            fixed = n_trees
            if k and n_trees > 1:  # perms[0] is the identity, which fixes every tree
                fixed = int((np.sort(group.edge_perms[k][trees], axis=1) == trees).all(axis=1).sum())
            for cycle, w, fix_mask in cycles[k]:
                if not cycle & vt:
                    fixed *= (nbr[w] & vt & fix_mask).bit_count()
                    if not fixed:
                        break
            fixed_total += fixed
        if fixed_total % len(stab):
            raise ValidationError(f"set {vt:#x}: fixed-point total must divide by its stabilizer order")
        total += fixed_total // len(stab)
    return total
