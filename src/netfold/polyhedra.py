"""Polyhedral shell descriptions: faces as vertex cycles plus optional coordinates.

`_check_shell` holds every structural and geometric check of a shell;
`shellgraph.build_shell_graph` runs it while building the shell graph, so a
spec is checked wherever a graph is made from it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, TypeVar

import numpy as np

from .errors import MissingGeometryError, NonManifoldError, ValidationError

Edge = tuple[int, int]
G = TypeVar("G")

# relative to mean edge length
PLANARITY_RTOL = 1e-9


def canon_edge(u: int, v: int) -> Edge:
    """Canonical undirected edge key (min, max)."""
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True, eq=False)
class PolyhedronSpec:
    """A polyhedral shell.

    Faces are cycles of vertex indices, counterclockwise as seen from outside
    the shell.  Coordinates are optional: a faces-only spec supports all
    combinatorial operations but rejects geometric ones.  The vertices are
    the coordinate rows, or without coordinates 0 .. the largest face index.
    """

    name: str
    faces: tuple[tuple[int, ...], ...]
    vertices: Optional[np.ndarray] = None

    def __post_init__(self):
        faces = tuple(tuple(int(i) for i in f) for f in self.faces)
        if not faces:
            raise ValidationError(f"{self.name}: no faces")
        object.__setattr__(self, "faces", faces)
        low = min((min(f) for f in faces if f), default=0)
        if low < 0:
            raise ValidationError(f"{self.name}: face index {low} is negative")
        if self.vertices is not None:
            arr = np.asarray(self.vertices, dtype=float)
            if arr.ndim != 2 or arr.shape[1] != 3:
                raise ValidationError(
                    f"{self.name}: vertices must have shape (V, 3), got {arr.shape}"
                )
            object.__setattr__(self, "vertices", arr)
            top = max((max(f) for f in faces if f), default=-1)
            if top >= len(arr):
                raise ValidationError(
                    f"{self.name}: face index {top} out of range for {len(arr)} vertices"
                )

    @property
    def n_vertices(self) -> int:
        if self.vertices is not None:
            return len(self.vertices)
        return 1 + max((max(f) for f in self.faces if f), default=-1)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def has_geometry(self) -> bool:
        return self.vertices is not None

    def require_geometry(self) -> np.ndarray:
        if self.vertices is None:
            raise MissingGeometryError(f"{self.name}: shell has no vertex coordinates")
        return self.vertices

    def edge_list(self) -> tuple[Edge, ...]:
        """Undirected edges in canonical lexicographic order."""
        seen = set()
        for f in self.faces:
            for a, b in zip(f, f[1:] + f[:1]):
                seen.add(canon_edge(a, b))
        return tuple(sorted(seen))


def edge_face_table(spec: PolyhedronSpec) -> dict[Edge, list[int]]:
    """Map each undirected edge to the faces containing it, in face order."""
    table: dict[Edge, list[int]] = {}
    for fi, f in enumerate(spec.faces):
        for a, b in zip(f, f[1:] + f[:1]):
            table.setdefault(canon_edge(a, b), []).append(fi)
    return table


def face_map(edges: Sequence[Edge], faces: Sequence[Sequence[int]], boundary: Sequence[Edge]) -> list[int]:
    """The face map of a shell as a successor table on darts.

    Dart 2e runs along `edges[e]` from its lower end and dart 2e + 1 back,
    so `d ^ 1` reverses d.  Entry d is the dart after d in its face; a hole
    is one more face, whose dart along each `boundary` edge runs against the
    face there and is followed by the hole dart leaving its head.  Raises
    ValidationError unless the faces run every edge once each way, and,
    naming the vertex, unless the darts leaving each vertex form one cycle
    of `d -> following[d ^ 1]`, that is unless its faces close into one fan
    (a shell pinched at a vertex has several).
    """
    n_darts = 2 * len(edges)
    darts = {}
    for e, (u, v) in enumerate(edges):
        darts[u, v], darts[v, u] = 2 * e, 2 * e + 1
    following = [-1] * n_darts
    try:
        for f in faces:
            for a, b, c in zip(f, f[1:] + f[:1], f[2:] + f[:2]):
                following[darts[a, b]] = darts[b, c]
        hole = dict(e[::-1] if following[darts[e]] >= 0 else e for e in boundary)
        for a, b in hole.items():
            following[darts[a, b]] = darts[b, hole[b]]
    except KeyError:
        following = []
    if sorted(following) != list(range(n_darts)):
        raise ValidationError("the faces do not run every edge once each way")
    fanned = set()
    seen = bytearray(n_darts)
    for start in range(n_darts):
        if seen[start]:
            continue
        vertex = edges[start >> 1][start & 1]
        if vertex in fanned:
            raise ValidationError(f"the faces around vertex {vertex} do not close into one fan")
        fanned.add(vertex)
        d = start
        while not seen[d]:
            seen[d] = 1
            d = following[d ^ 1]
    return following


def _count_components(vertices: Iterable[int], edges: Iterable[Edge]) -> int:
    """The number of connected components of a graph."""
    adj: dict[int, list[int]] = {v: [] for v in vertices}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    left = set(adj)
    count = 0
    while left:
        count += 1
        stack = [left.pop()]
        while stack:
            for w in adj[stack.pop()]:
                if w in left:
                    left.remove(w)
                    stack.append(w)
    return count


def _count_holes(boundary: Sequence[Edge]) -> int:
    """The number of simple cycles that hole boundary edges form; raise
    unless every boundary vertex has two boundary edges."""
    degree = Counter(v for e in boundary for v in e)
    for v, k in degree.items():
        if k != 2:
            raise ValidationError(f"hole boundary vertex {v} has {k} boundary edges, expected 2")
    return _count_components(degree, boundary)


def _face_planarity(spec: PolyhedronSpec) -> float:
    """Worst out-of-plane distance across faces, relative to mean edge length."""
    pts = spec.vertices
    lengths = [
        float(np.linalg.norm(pts[a] - pts[b]))
        for f in spec.faces
        for a, b in zip(f, f[1:] + f[:1])
    ]
    scale = float(np.mean(lengths))
    worst = 0.0
    for f in spec.faces:
        if len(f) == 3:
            continue
        p = pts[list(f)]
        c = p.mean(axis=0)
        q = p - c
        # smallest singular direction is the face normal
        _, s, vt = np.linalg.svd(q, full_matrices=False)
        normal = vt[-1]
        worst = max(worst, float(np.max(np.abs(q @ normal))))
    return worst / scale if scale > 0 else 0.0


def _check_shell(spec: PolyhedronSpec, graph_of: Callable[[tuple[Edge, ...], tuple[int, ...]], G]) -> G:
    """Run every check of a shell, in order, and return its graph.

    `graph_of(edges, boundary)` builds the graph from the undirected edges in
    canonical order and the ids of those that border one face, and applies
    the hole rule; it runs after the orientation checks, so a pinched or
    doubled hole is reported before connectivity.  Raises ValidationError
    naming the shell (NonManifoldError for an edge in more than two faces)
    for: degenerate faces, a vertex on no face, non-manifold edges,
    inconsistent orientation, a broken hole rule, a disconnected shell
    graph, a vertex whose faces form more than one fan, a broken Euler
    count, a non-finite coordinate, non-positive edge lengths, or non-planar
    faces.
    """
    for fi, f in enumerate(spec.faces):
        if len(f) < 3:
            raise ValidationError(f"{spec.name}: face {fi} has {len(f)} vertices")
        if len(set(f)) != len(f):
            raise ValidationError(f"{spec.name}: face {fi} repeats a vertex")
    # before anything is sized by n_vertices, which may be a stray face index
    used = sorted({v for f in spec.faces for v in f})
    if len(used) != spec.n_vertices:
        missing = next((i for i, v in enumerate(used) if v != i), len(used))
        raise ValidationError(f"{spec.name}: vertex {missing} lies on no face")

    table = edge_face_table(spec)
    for e, faces in table.items():
        if len(faces) > 2:
            raise NonManifoldError(e, len(faces), f"{spec.name}: edge {e} in {len(faces)} faces")
    directed = {}
    for fi, f in enumerate(spec.faces):
        for a, b in zip(f, f[1:] + f[:1]):
            if (a, b) in directed:
                raise ValidationError(
                    f"{spec.name}: faces {directed[(a, b)]} and {fi} traverse edge "
                    f"({a}, {b}) in the same direction (inconsistent orientation)"
                )
            directed[(a, b)] = fi
    edges = tuple(sorted(table))
    boundary = tuple(i for i, e in enumerate(edges) if len(table[e]) == 1)
    try:
        graph = graph_of(edges, boundary)
    except ValidationError as err:
        raise ValidationError(f"{spec.name}: {err}") from None
    n = spec.n_vertices
    if _count_components(range(n), edges) != 1:
        raise ValidationError(f"{spec.name}: shell graph is disconnected")
    try:
        face_map(edges, spec.faces, [edges[i] for i in boundary])
    except ValidationError as err:
        raise ValidationError(f"{spec.name}: {err}") from None

    # `graph_of` admits no more than one hole
    holes = 1 if boundary else 0
    euler = n - len(edges) + spec.n_faces
    if euler != 2 - holes:
        raise ValidationError(
            f"{spec.name}: Euler characteristic {euler} != {2 - holes} "
            f"(V={n}, E={len(edges)}, F={spec.n_faces}, holes={holes})"
        )

    if spec.has_geometry:
        pts = spec.vertices
        bad = np.flatnonzero(~np.isfinite(pts).all(axis=1))
        if bad.size:
            raise ValidationError(f"{spec.name}: vertex {bad[0]} has a non-finite coordinate")
        for u, v in table:
            if not np.linalg.norm(pts[u] - pts[v]) > 0.0:
                raise ValidationError(f"{spec.name}: edge ({u}, {v}) has zero length")
        residual = _face_planarity(spec)
        if residual > PLANARITY_RTOL:
            raise ValidationError(
                f"{spec.name}: face planarity residual {residual:.3e} exceeds {PLANARITY_RTOL}"
            )
    return graph
