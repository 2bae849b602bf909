"""Shell graphs, with two independent exact spanning-tree routes.

`count_spanning_trees` evaluates the matrix-tree determinant in exact integer
arithmetic; `enumerate_spanning_trees` lists every tree by contraction and
deletion.  The two routes deliberately share no code so they can check each
other.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import BudgetExceededError, NonManifoldError, ValidationError
from .polyhedra import Edge, PolyhedronSpec, canon_edge, edge_face_table

ORACLE_CAP = 10_000_000


@dataclass(frozen=True, eq=False)
class ShellGraph:
    """Undirected simple graph of shell vertices with canonical edge indexing.

    Edges are sorted lexicographically as (min, max) pairs; the position of an
    edge in `edges` is its canonical edge id, used everywhere downstream.
    """

    n: int
    edges: tuple[Edge, ...]
    boundary_edges: tuple[int, ...] = ()

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
        if self.n == 0:
            return True
        seen = 1
        stack = [0]
        count = 1
        while stack:
            u = stack.pop()
            rest = self.neighbor_masks[u] & ~seen
            while rest:
                w = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                seen |= 1 << w
                count += 1
                stack.append(w)
        return count == self.n


def build_shell_graph(spec: PolyhedronSpec, require_closed: bool = True) -> ShellGraph:
    """Shell graph of a polyhedron spec.

    With require_closed, every edge must belong to exactly two faces; an open
    shell (edges with one face, forming hole boundaries) needs
    require_closed=False.
    """
    table = edge_face_table(spec)
    boundary_ids = []
    edges = tuple(sorted(table))
    for i, e in enumerate(edges):
        k = len(table[e])
        if k > 2 or (require_closed and k != 2):
            raise NonManifoldError(e, k, f"{spec.name}: edge {e} in {k} faces")
        if k == 1:
            boundary_ids.append(i)
    return ShellGraph(n=spec.n_vertices, edges=edges, boundary_edges=tuple(boundary_ids))


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
    n = graph.n
    if n == 0:
        return 0
    if n == 1:
        return 1
    lap = [[0] * n for _ in range(n)]
    for u, v in graph.edges:
        lap[u][u] += 1
        lap[v][v] += 1
        lap[u][v] -= 1
        lap[v][u] -= 1
    reduced = [row[1:] for row in lap[1:]]
    return _bareiss_determinant(reduced)


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
    """All spanning trees, each a sorted tuple of canonical edge ids.

    Contraction/deletion recursion: the first edge of the current multigraph
    is either contracted (trees containing it) or deleted (trees avoiding it;
    only when it is not a bridge).  Output is sorted; raises
    BudgetExceededError carrying the partial list past `cap` trees.
    """
    n = graph.n
    if n == 0:
        return ()
    edges0 = [(u, v, i) for i, (u, v) in enumerate(graph.edges)]
    if not graph.is_connected():
        raise ValidationError("graph is disconnected; no spanning trees")
    out: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def walk(n_labels: int, edges: list[tuple[int, int, int]]) -> None:
        if n_labels == 1:
            if len(out) >= cap:
                raise BudgetExceededError(
                    f"spanning-tree enumeration exceeded cap {cap}",
                    partial=tuple(out),
                )
            cut = tuple(sorted(chosen))
            assert len(cut) == n - 1
            out.append(cut)
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

    walk(n, edges0)
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
