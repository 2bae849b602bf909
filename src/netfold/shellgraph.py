"""Shell graphs, with two independent exact spanning-tree routes.

`count_merged_trees` evaluates the matrix-tree determinant in exact integer
arithmetic; `merged_spanning_trees` lists every tree by contraction and
deletion.  Both work on the subgraph a vertex set induces with a seed set
merged into one vertex, which is how the interior search counts and lists
the trees on each interior; `count_spanning_trees` and
`enumerate_spanning_trees` are the whole-graph case.  The two routes
deliberately share no code so they can check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import BudgetExceededError, ValidationError
from .polyhedra import Edge, PolyhedronSpec, _count_components, _count_holes, canon_edge, oriented_edge_faces

ORACLE_CAP = 10_000_000


@dataclass(frozen=True, eq=False)
class ShellGraph:
    """Undirected simple graph of shell vertices with canonical edge indexing.

    Edges are sorted lexicographically as (min, max) pairs; the position of an
    edge in `edges` is its canonical edge id, used everywhere downstream.
    The hole rule: `boundary_edges`, the hole's edge ids, are empty or one
    simple cycle.  `find_automorphisms` reads the group off the consistently
    oriented `faces`; a graph without them gets the trivial group.
    """

    n: int
    edges: tuple[Edge, ...]
    boundary_edges: tuple[int, ...] = ()
    faces: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        holes = _count_holes([self.edges[e] for e in self.boundary_edges])
        if holes > 1:
            raise ValidationError(f"{holes} holes; a shell may have at most one hole")

    @staticmethod
    def from_edges(n: int, edges: Sequence[tuple[int, int]]) -> "ShellGraph":
        canon = sorted({canon_edge(u, v) for u, v in edges})
        for u, v in canon:
            if u == v:
                raise ValidationError(f"self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError(f"edge ({u}, {v}) out of range for {n} vertices")
        return ShellGraph(n=n, edges=tuple(canon))

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(a)) for a in adj)

    @cached_property
    def neighbor_masks(self) -> tuple[int, ...]:
        """Per-vertex neighbor sets as integer bitmasks."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def boundary_mask(self) -> int:
        """The vertices of the hole boundary as a bitmask; 0 on a closed shell."""
        mask = 0
        for e in self.boundary_edges:
            u, v = self.edges[e]
            mask |= (1 << u) | (1 << v)
        return mask

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        return {e: i for i, e in enumerate(self.edges)}

    @cached_property
    def incident_edges(self) -> tuple[tuple[int, ...], ...]:
        """Edge ids at each vertex, ascending."""
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for i, (u, v) in enumerate(self.edges):
            inc[u].append(i)
            inc[v].append(i)
        return tuple(tuple(a) for a in inc)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def other_end(self, edge_id: int, v: int) -> int:
        u, w = self.edges[edge_id]
        return w if v == u else u

    def is_connected(self) -> bool:
        return _count_components(range(self.n), self.edges) <= 1


def build_shell_graph(spec: PolyhedronSpec) -> ShellGraph:
    """Shell graph of a polyhedron spec, with its faces.

    Every edge borders one or two consistently oriented faces; the edges
    that border one are the hole boundary, and the hole rule's errors name
    the shell.
    """
    table = oriented_edge_faces(spec)
    edges = tuple(sorted(table))
    boundary = tuple(i for i, e in enumerate(edges) if len(table[e]) == 1)
    try:
        return ShellGraph(spec.n_vertices, edges, boundary, spec.faces)
    except ValidationError as err:
        raise ValidationError(f"{spec.name}: {err}") from None


def _bareiss_determinant(m: list[list[int]]) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    n = len(m)
    if n == 0:
        return 1
    a = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def count_spanning_trees(graph: ShellGraph) -> int:
    """Exact spanning-tree count: any cofactor of the Laplacian D - A."""
    if graph.n == 0:
        return 0
    return count_merged_trees(graph, (1 << graph.n) - 1, 1)


def count_merged_trees(graph: ShellGraph, vt_mask: int, seed_mask: int) -> int:
    """Spanning trees of the subgraph `vt_mask` induces, with the vertices of
    `seed_mask` (a nonempty subset) merged into one and the edges among them
    dropped: the Laplacian cofactor that deletes the merged vertex.

    Row v of the reduced Laplacian holds v's degree inside `vt_mask` and -1
    toward each neighbor outside the seed; an edge into the seed only adds to
    the degree.
    """
    rest = [v for v in range(graph.n) if (vt_mask >> v) & 1 and not (seed_mask >> v) & 1]
    index = {v: i for i, v in enumerate(rest)}
    lap = []
    for v in rest:
        row = [0] * len(rest)
        inside = graph.neighbor_masks[v] & vt_mask
        row[index[v]] = inside.bit_count()
        for w in graph.adjacency[v]:
            if w in index:
                row[index[w]] = -1
        lap.append(row)
    return _bareiss_determinant(lap)


def _multigraph_connected(n_labels: int, edges: list[tuple[int, int, int]], start: int) -> bool:
    if n_labels == 1:
        return True
    adj: dict[int, list[int]] = {}
    for a, b, _ in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    if len(adj) < n_labels:
        return False
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n_labels


def enumerate_spanning_trees(graph: ShellGraph, cap: int = ORACLE_CAP) -> tuple[tuple[int, ...], ...]:
    """All spanning trees, each a sorted tuple of canonical edge ids, in
    ascending order; raises BudgetExceededError carrying the partial list
    past `cap` trees."""
    n = graph.n
    if n == 0:
        return ()
    if not graph.is_connected():
        raise ValidationError("graph is disconnected; no spanning trees")
    trees = merged_spanning_trees(graph, (1 << n) - 1, 1, cap)
    for cut in trees:
        if not is_spanning_tree(graph, cut):
            raise ValidationError(
                f"spanning-tree enumeration emitted {cut}, which is not a spanning tree "
                f"of {n} vertices"
            )
    return trees


def merged_spanning_trees(
    graph: ShellGraph, vt_mask: int, seed_mask: int, cap: int = ORACLE_CAP,
) -> tuple[tuple[int, ...], ...]:
    """The trees `count_merged_trees` counts, each a sorted tuple of
    canonical edge ids, in ascending order.

    Contraction/deletion recursion: the first edge of the current multigraph
    is either contracted (trees containing it) or deleted (trees avoiding it;
    only when it is not a bridge).  Raises BudgetExceededError carrying the
    partial list past `cap` trees.
    """
    root = (seed_mask & -seed_mask).bit_length() - 1
    label = {v: root if (seed_mask >> v) & 1 else v
             for v in range(graph.n) if (vt_mask >> v) & 1}
    edges0 = [
        (label[u], label[v], i) for i, (u, v) in enumerate(graph.edges)
        if u in label and v in label and label[u] != label[v]
    ]
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def walk(n_labels: int, edges: list[tuple[int, int, int]]) -> None:
        if n_labels == 1:
            if len(out) >= cap:
                raise BudgetExceededError(
                    f"spanning-tree enumeration exceeded cap {cap}",
                    partial=tuple(out),
                )
            out.append(tuple(sorted(chosen)))
            return
        if not edges:
            return
        a0, b0, eid = edges[0]
        rest = edges[1:]
        merged = []
        for a, b, i in rest:
            if a == b0:
                a = a0
            if b == b0:
                b = a0
            if a != b:
                merged.append((a, b, i))
        chosen.append(eid)
        walk(n_labels - 1, merged)
        chosen.pop()
        if _multigraph_connected(n_labels, rest, a0):
            walk(n_labels, rest)

    walk(len(set(label.values())), edges0)
    out.sort()
    return tuple(out)


def cut_degrees(graph: ShellGraph, cut: Sequence[int]) -> list[int]:
    deg = [0] * graph.n
    for e in cut:
        u, v = graph.edges[e]
        deg[u] += 1
        deg[v] += 1
    return deg


def cut_leaves(graph: ShellGraph, cut: Sequence[int]) -> tuple[int, ...]:
    """Degree-1 vertices of a cut."""
    return tuple(v for v, d in enumerate(cut_degrees(graph, cut)) if d == 1)


def leaf_choices(graph: ShellGraph, vt_mask: int) -> list[list[int]]:
    """Per outside vertex (ascending), the edges that can attach it as a leaf."""
    lists = []
    for w in range(graph.n):
        if (vt_mask >> w) & 1:
            continue
        lists.append(
            [e for e in graph.incident_edges[w] if (vt_mask >> graph.other_end(e, w)) & 1]
        )
    return lists


def interior_seed(graph: ShellGraph, vt_mask: int) -> int:
    """The vertices of an interior that its trees treat as one: the hole
    boundary on an open shell (every interior holds it, and every cut
    holds its cycle), else the interior's lowest vertex.

    The trees on an interior are the spanning trees of the subgraph it
    induces with its seed merged: `merged_spanning_trees` lists them and
    `count_interior_trees` counts them.
    """
    return graph.boundary_mask or (vt_mask & -vt_mask)


def count_interior_trees(graph: ShellGraph, vt_mask: int) -> int:
    """The number of trees on a connected interior.

    When the merged subgraph has one edge fewer than vertices it is itself
    the only tree, and no determinant is needed.
    """
    seed = interior_seed(graph, vt_mask)
    rest = vt_mask & ~seed
    degrees = inner = 0
    for v in range(graph.n):
        if (rest >> v) & 1:
            degrees += (graph.neighbor_masks[v] & vt_mask).bit_count()
            inner += (graph.neighbor_masks[v] & rest).bit_count()
    if degrees - inner // 2 == rest.bit_count():
        return 1
    return count_merged_trees(graph, vt_mask, seed)


def is_spanning_tree(graph: ShellGraph, cut: Sequence[int]) -> bool:
    """Size V-1, connected, acyclic, spanning."""
    if len(set(cut)) != len(cut) or len(cut) != graph.n - 1:
        return False
    parent = list(range(graph.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for e in cut:
        u, v = graph.edges[e]
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True
