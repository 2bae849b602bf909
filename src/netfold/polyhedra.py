"""Polyhedral shell descriptions: faces as vertex cycles plus optional
coordinates, and the helpers that `shellgraph.build_shell_graph` checks a
shell with.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import MissingGeometryError, ValidationError

Edge = tuple[int, int]

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


def edge_face_table(spec: PolyhedronSpec) -> dict[Edge, list[int]]:
    """Map each undirected edge to the faces containing it, in face order."""
    table: dict[Edge, list[int]] = {}
    for fi, f in enumerate(spec.faces):
        for a, b in zip(f, f[1:] + f[:1]):
            table.setdefault(canon_edge(a, b), []).append(fi)
    return table


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
