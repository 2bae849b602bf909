"""Optimal cuts for shells with holes (missing faces).

The cut of an open shell is not a tree: it contains the whole hole-boundary
cycle plus tree branches, spans every vertex, stays connected, and has no
cycle other than the boundary.  Boundary vertices carry two cycle edges, so
they are never leaves; the leaves (vertex connections) are exactly the outside
vertices attached during expansion.  `enumerate_mlsts` finds these cuts
itself: it seeds an open shell's search with the boundary cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ValidationError
from .mlst import DEFAULT_NODE_BUDGET, MlstResult, enumerate_mlsts
from .polyhedra import Edge, PolyhedronSpec, canon_edge, edge_face_table
from .shellgraph import ShellGraph


@dataclass(frozen=True)
class HoleSpec:
    """A hole: the removed faces and the derived boundary of the open shell.

    `removed_faces` are indices into the original closed spec (empty when the
    shell was supplied already open).  `boundary_vertices` and
    `boundary_edges` are expressed in the open shell's indexing.
    """

    removed_faces: tuple[int, ...]
    boundary_vertices: tuple[int, ...]
    boundary_edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "removed_faces", tuple(int(i) for i in self.removed_faces))
        object.__setattr__(
            self, "boundary_vertices", tuple(sorted(int(v) for v in self.boundary_vertices))
        )
        object.__setattr__(
            self, "boundary_edges", tuple(sorted(canon_edge(u, v) for u, v in self.boundary_edges))
        )
        if len(self.boundary_edges) != len(self.boundary_vertices):
            raise ValidationError(
                "hole boundary must be a cycle: "
                f"{len(self.boundary_edges)} edges vs {len(self.boundary_vertices)} vertices"
            )


def remove_faces(spec: PolyhedronSpec, removed: Sequence[int]) -> PolyhedronSpec:
    """Open a closed shell by deleting faces.

    The removed faces must exist, be edge-connected as a patch, and leave a
    boundary that is one simple cycle.  Vertices and edges used only by the
    removed patch disappear; remaining vertices are reindexed in ascending
    order of their old index.
    """
    removed_set = {int(i) for i in removed}
    if not removed_set:
        raise ValidationError("no faces to remove")
    bad = [i for i in removed_set if not 0 <= i < spec.n_faces]
    if bad:
        raise ValidationError(f"face indices out of range: {sorted(bad)}")
    if len(removed_set) >= spec.n_faces:
        raise ValidationError("cannot remove every face")

    if len(removed_set) > 1:
        edge_to_removed: dict[Edge, list[int]] = {}
        for i in removed_set:
            face = spec.faces[i]
            for k in range(len(face)):
                e = canon_edge(face[k], face[(k + 1) % len(face)])
                edge_to_removed.setdefault(e, []).append(i)
        adj: dict[int, set[int]] = {i: set() for i in removed_set}
        for members in edge_to_removed.values():
            for a in members:
                for b in members:
                    if a != b:
                        adj[a].add(b)
        seen = {min(removed_set)}
        stack = [min(removed_set)]
        while stack:
            for nb in adj[stack.pop()]:
                if nb not in seen:
                    seen.add(nb)
                    stack.append(nb)
        if seen != removed_set:
            raise ValidationError("removed faces must form one edge-connected patch")

    kept_faces = [f for i, f in enumerate(spec.faces) if i not in removed_set]
    used = sorted({v for f in kept_faces for v in f})
    remap = {old: new for new, old in enumerate(used)}
    new_faces = tuple(tuple(remap[v] for v in f) for f in kept_faces)
    new_vertices = spec.vertices[used] if spec.has_geometry else None
    open_spec = PolyhedronSpec(
        name=f"{spec.name}-open{len(removed_set)}",
        faces=new_faces,
        vertices=new_vertices,
        vertex_count=len(used),
    )
    hole_spec(open_spec)  # raises unless the boundary is one simple cycle
    return open_spec


def hole_spec(open_spec: PolyhedronSpec, removed_faces: Sequence[int] = ()) -> HoleSpec:
    """Derive the hole boundary of an open shell.

    Boundary edges are the edges bordering exactly one face; they must form a
    single simple cycle (every boundary vertex on exactly two boundary edges,
    one connected component).
    """
    table = edge_face_table(open_spec)
    boundary = sorted(e for e, faces in table.items() if len(faces) == 1)
    if not boundary:
        raise ValidationError("shell is closed: no hole boundary")
    degree: dict[int, int] = {}
    neighbors: dict[int, list[int]] = {}
    for u, v in boundary:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
        neighbors.setdefault(u, []).append(v)
        neighbors.setdefault(v, []).append(u)
    off = sorted(v for v, d in degree.items() if d != 2)
    if off:
        raise ValidationError(
            f"hole boundary is not a simple cycle: vertices {off} have degree != 2"
        )
    start = min(degree)
    seen = {start}
    stack = [start]
    while stack:
        for nb in neighbors[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    if len(seen) != len(degree):
        raise ValidationError("hole boundary has more than one cycle")
    return HoleSpec(
        removed_faces=tuple(removed_faces),
        boundary_vertices=tuple(degree),
        boundary_edges=tuple(boundary),
    )


def boundary_edge_ids(graph: ShellGraph) -> tuple[int, ...]:
    """Canonical edge ids of the hole boundary in `graph`."""
    if not graph.boundary_edges:
        raise ValidationError("graph has no boundary edges")
    return tuple(sorted(graph.boundary_edges))


def check_hole_cut(graph: ShellGraph, cut: Sequence[int], boundary_ids: Sequence[int]) -> None:
    """Raise unless `cut` is a valid hole cut.

    A valid hole cut has exactly V edges, contains every boundary edge, spans
    all vertices in one component (hence exactly one cycle), acquires no cycle
    beyond the boundary, and has no boundary vertex as a leaf.
    """
    n = graph.n
    cut_set = set(int(e) for e in cut)
    if len(cut_set) != len(cut):
        raise ValidationError("cut repeats an edge")
    missing = set(boundary_ids) - cut_set
    if missing:
        raise ValidationError(f"cut is missing boundary edges {sorted(missing)}")
    if len(cut_set) != n:
        raise ValidationError(f"hole cut needs exactly {n} edges, got {len(cut_set)}")

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    boundary_set = set(int(e) for e in boundary_ids)
    degree = [0] * n
    for e in cut_set - boundary_set:
        u, v = graph.edges[e]
        ru, rv = find(u), find(v)
        if ru == rv:
            raise ValidationError(f"cut has a cycle through non-boundary edge {e}")
        parent[ru] = rv
    for e in cut_set:
        u, v = graph.edges[e]
        degree[u] += 1
        degree[v] += 1
        parent[find(u)] = find(v)
    root = find(0)
    if any(find(v) != root for v in range(n)):
        raise ValidationError("cut does not span the graph in one component")
    boundary_vertices = {v for e in boundary_set for v in graph.edges[e]}
    bad = sorted(v for v in range(n) if degree[v] == 1 and v in boundary_vertices)
    if bad:
        raise ValidationError(f"boundary vertices {bad} are leaves")


def enumerate_hole_cuts(
    graph: ShellGraph,
    budget_nodes: int = DEFAULT_NODE_BUDGET,
    workers: Optional[int] = None,
    backend: Optional[str] = None,
    time_limit: Optional[float] = None,
) -> MlstResult:
    """All maximum-leaf cuts of an open shell, each checked as a hole cut.

    At the first interior size with dominating interiors every cut has
    exactly V - n_S leaves, none of them boundary vertices.
    """
    base = boundary_edge_ids(graph)
    result = enumerate_mlsts(
        graph, budget_nodes=budget_nodes, workers=workers, backend=backend,
        time_limit=time_limit,
    )
    for row in result.cuts:
        check_hole_cut(graph, [int(e) for e in row], base)
    return result
