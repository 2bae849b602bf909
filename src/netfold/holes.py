"""Open shells: opening a closed shell, and checking the cuts of one.

An open shell has one hole (missing faces) bounded by one simple cycle;
`ShellGraph` accepts no other boundary.  The cut of an open shell is
not a tree: it contains the whole hole-boundary cycle plus tree branches,
spans every vertex, stays connected, and has no cycle other than the
boundary.  Boundary vertices carry two cycle edges, so they are never leaves;
the leaves (vertex connections) are exactly the outside vertices attached
during expansion.  `enumerate_mlsts` seeds an open shell's search with the
boundary cycle and checks every cut it lists with `check_hole_cuts`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import ValidationError
from .polyhedra import PolyhedronSpec, _count_components
from .shellgraph import ShellGraph, set_words, word_sets


def remove_faces(spec: PolyhedronSpec, removed: Sequence[int]) -> PolyhedronSpec:
    """Open a closed shell by deleting faces.

    The removed faces must exist and not be all of them.  The opened shell
    is checked when `build_shell_graph` builds its graph, which needs one
    hole bounded by one simple cycle; faces that do not form one
    edge-connected patch leave several holes or a pinched one.  Vertices and
    edges used only by the removed patch disappear; remaining vertices are
    reindexed in ascending order of their old index.
    """
    removed_set = {int(i) for i in removed}
    if not removed_set:
        raise ValidationError("no faces to remove")
    bad = [i for i in removed_set if not 0 <= i < spec.n_faces]
    if bad:
        raise ValidationError(f"face indices out of range: {sorted(bad)}")
    if len(removed_set) >= spec.n_faces:
        raise ValidationError("cannot remove every face")

    kept_faces = [f for i, f in enumerate(spec.faces) if i not in removed_set]
    used = sorted({v for f in kept_faces for v in f})
    remap = {old: new for new, old in enumerate(used)}
    new_faces = tuple(tuple(remap[v] for v in f) for f in kept_faces)
    new_vertices = spec.vertices[used] if spec.has_geometry else None
    return PolyhedronSpec(
        name=f"{spec.name}-open{len(removed_set)}",
        faces=new_faces,
        vertices=new_vertices,
    )


# rows per block of `check_hole_cuts`; bounds its masks to a few MiB
_CHECK_BLOCK = 8192


def check_hole_cuts(graph: ShellGraph, cuts: np.ndarray) -> None:
    """Raise unless every row of `cuts` is a valid hole cut.

    A valid hole cut has exactly V edges, contains every boundary edge, spans
    all vertices in one component (hence exactly one cycle, the boundary),
    and has no boundary vertex as a leaf.  The per-row tests run in numpy on
    blocks of rows, on sets held as uint64 words (`shellgraph.set_words`):
    one pass over a block's columns ORs the two ends of each edge into the
    vertices seen once and, where already seen, into those seen twice, and
    the leaves are the vertices seen once and not twice.  Dropping a row's
    leaf edges leaves its interior, which must be connected with as many
    edges as vertices; that test runs once per distinct interior, and a
    listing has far fewer interiors than cuts.  The distinct interiors are
    found in numpy, in each block and then across the blocks.
    """
    if not graph.boundary_edges:
        raise ValidationError("graph has no hole boundary")
    n, m = graph.n, graph.m
    cuts = np.asarray(cuts)
    if not np.issubdtype(cuts.dtype, np.integer):
        raise ValidationError(f"cut edge ids must be integers, got {cuts.dtype}")
    if cuts.ndim != 2 or cuts.shape[1] != n:
        raise ValidationError(f"hole cuts need exactly {n} edges each, got shape {cuts.shape}")
    if cuts.size and (cuts.min() < 0 or cuts.max() >= m):
        raise ValidationError(f"cut edge ids must lie in 0..{m - 1}")
    # words first, rows last, so that every step runs along contiguous rows;
    # each edge id's column holds its ends' vertex words, then its own edge words
    end_bits = set_words([(1 << u) | (1 << v) for u, v in graph.edges], n).T
    bits = np.concatenate([end_bits, set_words([1 << e for e in range(m)], m).T])
    boundary_vertices = set_words([graph.boundary_mask], n).T
    boundary = set_words([sum(1 << e for e in graph.boundary_edges)], m).T
    cores = []
    for start in range(0, cuts.shape[0], _CHECK_BLOCK):
        block = cuts[start:start + _CHECK_BLOCK]
        bad = start + np.flatnonzero((block[:, 1:] <= block[:, :-1]).any(axis=1))
        if bad.size:
            raise ValidationError(f"cut {bad[0]} repeats an edge or is not ascending")
        taken = bits.take(block.T, axis=1)  # (words, n, rows)
        ends, own = taken[:len(end_bits)], taken[len(end_bits):]
        once = np.zeros_like(ends[:, 0])
        twice = np.zeros_like(once)
        for j in range(n):
            twice |= once & ends[:, j]
            once |= ends[:, j]
        leaf = once & ~twice
        bad = start + np.flatnonzero((leaf & boundary_vertices).any(axis=0))
        if bad.size:
            raise ValidationError(f"cut {bad[0]} has a boundary vertex as a leaf")
        edges = np.bitwise_or.reduce(own, axis=1)
        bad = start + np.flatnonzero(((edges & boundary) != boundary).any(axis=0))
        if bad.size:
            raise ValidationError(f"cut {bad[0]} is missing boundary edges")
        # a leaf has one edge, so the edges with a leaf end number the
        # leaves less the edges joining two leaves
        at_leaf = (ends & leaf[:, None, :]).any(axis=0)  # (n, rows)
        leaf_edges = np.bitwise_or.reduce(np.where(at_leaf, own, np.uint64(0)), axis=1)
        joined = np.bitwise_count(leaf_edges).sum(axis=0) < np.bitwise_count(leaf).sum(axis=0)
        bad = start + np.flatnonzero(joined)
        if bad.size:
            raise ValidationError(f"cut {bad[0]} has an edge joining two leaves")
        # Each leaf edge has one leaf end, so the core a row keeps after
        # dropping them has as many edges as the row has non-leaf vertices.  A
        # core that is connected with as many vertices as edges therefore holds
        # every non-leaf vertex, the leaves hang on it, and its one cycle is
        # the boundary.
        cores.append(_distinct_columns(edges & ~leaf_edges))
    if not cores:
        return
    for core in word_sets(_distinct_columns(np.concatenate(cores, axis=1)).T):
        core_edges = [e for e in range(m) if (core >> e) & 1]
        if not _connected_unicyclic(graph, core_edges):
            raise ValidationError(
                f"cut interior {core_edges} is not connected with exactly one cycle"
            )


def _distinct_columns(words: np.ndarray) -> np.ndarray:
    """The distinct columns of a 2-D array of uint64 words, each column a
    set with its lowest word first, in ascending order of the sets."""
    ordered = words[:, np.lexsort(words)]
    new = np.ones(ordered.shape[1], dtype=bool)
    new[1:] = (ordered[:, 1:] != ordered[:, :-1]).any(axis=0)
    return ordered[:, new]


def _connected_unicyclic(graph: ShellGraph, edge_ids: Sequence[int]) -> bool:
    """Whether the edges form one component with as many vertices as edges."""
    ends = [graph.edges[e] for e in edge_ids]
    vertices = {v for e in ends for v in e}
    return len(vertices) == len(ends) and _count_components(vertices, ends) == 1
