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
from .shellgraph import ShellGraph


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


# rows per block of `check_hole_cuts`; bounds its index arrays to a few MiB
_CHECK_BLOCK = 8192


def check_hole_cuts(graph: ShellGraph, cuts: np.ndarray) -> None:
    """Raise unless every row of `cuts` is a valid hole cut.

    A valid hole cut has exactly V edges, contains every boundary edge, spans
    all vertices in one component (hence exactly one cycle, the boundary),
    and has no boundary vertex as a leaf.  The per-row tests run in numpy on
    blocks of rows.  Dropping a row's leaf edges leaves its interior, which
    must be connected with as many edges as vertices; that test runs once per
    distinct interior, and a listing has far fewer interiors than cuts.
    """
    if not graph.boundary_edges:
        raise ValidationError("graph has no hole boundary")
    boundary = np.asarray(graph.boundary_edges)
    n = graph.n
    cuts = np.asarray(cuts)
    if not np.issubdtype(cuts.dtype, np.integer):
        raise ValidationError(f"cut edge ids must be integers, got {cuts.dtype}")
    if cuts.ndim != 2 or cuts.shape[1] != n:
        raise ValidationError(f"hole cuts need exactly {n} edges each, got shape {cuts.shape}")
    if cuts.size and (cuts.min() < 0 or cuts.max() >= graph.m):
        raise ValidationError(f"cut edge ids must lie in 0..{graph.m - 1}")
    ends = np.asarray(graph.edges, dtype=np.int32).reshape(-1, 2)
    boundary_vertices = np.unique(ends[boundary])
    in_boundary = np.zeros(graph.m, dtype=bool)
    in_boundary[boundary] = True
    cores: set[bytes] = set()
    for start in range(0, cuts.shape[0], _CHECK_BLOCK):
        block = cuts[start:start + _CHECK_BLOCK]
        bad = start + np.flatnonzero((block[:, 1:] <= block[:, :-1]).any(axis=1))
        if bad.size:
            raise ValidationError(f"cut {bad[0]} repeats an edge or is not ascending")
        rows = np.arange(block.shape[0], dtype=np.int32)[:, None]
        u, v = ends[block, 0], ends[block, 1]
        degree = np.bincount(
            np.concatenate([(rows * n + u).ravel(), (rows * n + v).ravel()]),
            minlength=block.shape[0] * n,
        ).reshape(-1, n)
        leaf = degree == 1
        bad = start + np.flatnonzero(leaf[:, boundary_vertices].any(axis=1))
        if bad.size:
            raise ValidationError(f"cut {bad[0]} has a boundary vertex as a leaf")
        bad = start + np.flatnonzero(in_boundary[block].sum(axis=1) != boundary.size)
        if bad.size:
            raise ValidationError(f"cut {bad[0]} is missing boundary edges")
        leaf_u, leaf_v = leaf[rows, u], leaf[rows, v]
        bad = start + np.flatnonzero((leaf_u & leaf_v).any(axis=1))
        if bad.size:
            raise ValidationError(f"cut {bad[0]} has an edge joining two leaves")
        # Each leaf edge has one leaf end, so the core a row keeps after
        # dropping them has as many edges as the row has non-leaf vertices.  A
        # core that is connected with as many vertices as edges therefore holds
        # every non-leaf vertex, the leaves hang on it, and its one cycle is
        # the boundary.
        core = np.sort(np.where(leaf_u | leaf_v, graph.m, block), axis=1)
        core = core.astype(np.int32, copy=False)
        # whole-row byte keys; np.unique(axis=0) is far slower here
        cores.update(core.view(np.dtype((np.void, core.strides[0]))).ravel().tolist())
    for key in sorted(cores):
        core_edges = [e for e in np.frombuffer(key, dtype=np.int32).tolist() if e < graph.m]
        if not _connected_unicyclic(graph, core_edges):
            raise ValidationError(
                f"cut interior {core_edges} is not connected with exactly one cycle"
            )


def _connected_unicyclic(graph: ShellGraph, edge_ids: Sequence[int]) -> bool:
    """Whether the edges form one component with as many vertices as edges."""
    ends = [graph.edges[e] for e in edge_ids]
    vertices = {v for e in ends for v in e}
    return len(vertices) == len(ends) and _count_components(vertices, ends) == 1
