"""Reference implementations the tests compare netfold against.

Each one is deliberately simple and independent of the code it checks:
brute-force filters, a one-cut union-find hole-cut check, the tree search
(interiors grown edge by edge, without symmetry) with fixed-point class
counting over its explicit interiors, the recursive set search that the
block search in `netfold.mlst` replaced, recovery of interiors from explicit
cut lists, a whole-group canonical form for a single cut, trend
statistics over the catalog table, and a backtracking search for a graph's
automorphisms, which checks the groups netfold reads off face maps and
supplies the full group of a graph without faces.
`reference_map_automorphisms` is the per-dart spreading of each choice of
dart 0's image that the image table of `find_automorphisms` replaced.
`reference_edge_perms` is the per-edge loop that
`AutomorphismGroup.edge_perms` replaced, and
`reference_stabilizer` the edge-set stabilizer built on it;
`reference_orbit` is the loop `AutomorphismGroup.orbit` replaced, and
`per_member_listing` the cut listing that listed trees on every member of
every orbit of sets.  The per-face
geometry (`reference_unfold`, `reference_centroid_and_rg` and the screen
over every bounding-box pair, `reference_check_overlap`) is the code the
batched geometry replaced.  `cut_tuples` reads a cut
listing as tuples and `flat_sets` an interior result's orbits as one list of
sets.  `prism_spec` builds a prism with more than 64 vertices and edges
when asked, and `frucht_graph` is a polyhedral graph with no symmetry,
on which every root-set vertex gets a phase of its own;
`truncated_octahedron_minus_edge` is a shell whose group has order 2.
`DESK_SHELLS` names the catalog shells the suite takes end to end.
"""

import functools
import itertools
import math
import random
from collections import deque
from typing import Sequence

import numpy as np
from scipy.stats import spearmanr

from netfold.analysis import ShellStatistics, mlst_ratio_estimate
from netfold.catalog import builtin
from netfold.errors import ValidationError
from netfold import mlst
from netfold.geometry import RELATIVE_TOL, Marker, NetLayout, _product, _runs, _successor
from netfold.mlst import InteriorResult, MlstResult, root_set
from netfold.polyhedra import PolyhedronSpec, canon_edge, edge_face_table
from netfold.shellgraph import (
    ShellGraph,
    build_shell_graph,
    cut_leaves,
    interior_seed,
    leaf_choices,
    merged_spanning_trees,
)
from netfold.symmetry import (
    _GROUPS,
    AutomorphismGroup,
    CanonicalCut,
    _check_group_axioms,
)

# The catalog shells whose full pipeline finishes within a second or two
# each, in catalog order.  The other seven are left to explicit tests, so
# that the suite's time does not grow with the catalog.
DESK_SHELLS = (
    "tetrahedron",
    "octahedron",
    "cube",
    "icosahedron",
    "dodecahedron",
    "octagonal_pyramid",
    "octagonal_dipyramid",
    "truncated_tetrahedron",
    "cuboctahedron",
    "truncated_cube",
    "snub_cube",
    "rhombicuboctahedron",
    "truncated_octahedron",
    "truncated_cuboctahedron",
)


def max_leaf_brute_force(graph: ShellGraph, trees):
    """Filter an explicit spanning-tree list down to the maximum-leaf ones.

    Feed it the output of `enumerate_spanning_trees` and compare sets with
    `enumerate_mlsts`.
    """
    best = -1
    keep = []
    for t in trees:
        leaves = len(cut_leaves(graph, t))
        if leaves > best:
            best = leaves
            keep = [t]
        elif leaves == best:
            keep.append(t)
    keep.sort()
    return best, keep


def cut_tuples(result: MlstResult):
    """The cuts of an `enumerate_mlsts` result as tuples of Python ints, in
    the result's (lexicographic) order."""
    return [tuple(int(e) for e in row) for row in result.cuts]


def check_hole_cut(graph: ShellGraph, cut: Sequence[int], boundary_ids: Sequence[int]) -> None:
    """Raise unless `cut` is a valid hole cut, one cut at a time.

    A valid hole cut has exactly V edges, contains every boundary edge, spans
    all vertices in one component (hence exactly one cycle), acquires no cycle
    beyond the boundary, and has no boundary vertex as a leaf.  Oracle for
    the batched `netfold.holes.check_hole_cuts`.
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


def graph_automorphisms(graph: ShellGraph) -> AutomorphismGroup:
    """Every vertex permutation that maps the edge set onto itself, faces or
    no faces.

    Backtracking over a breadth-first vertex order: a candidate image must
    have the right degree and the same multiset of neighbor degrees, and its
    already-mapped neighborhood must match the image of the vertex's
    already-mapped neighborhood exactly.
    """
    if not graph.is_connected():
        raise ValidationError("graph is disconnected")
    n = graph.n
    masks = graph.neighbor_masks
    adjacency = [[w for w in range(n) if (masks[v] >> w) & 1] for v in range(n)]
    signature = [
        (graph.degree(v), tuple(sorted(graph.degree(w) for w in adjacency[v])))
        for v in range(n)
    ]
    candidates = [[w for w in range(n) if signature[w] == signature[v]] for v in range(n)]
    start = min(range(n), key=lambda v: (len(candidates[v]), v))
    order = [start]
    for v in order:
        order += [w for w in adjacency[v] if w not in order]
    perms = []
    image = [-1] * n

    def assign(depth: int, used: int) -> None:
        if depth == n:
            perms.append(tuple(image))
            return
        v = order[depth]
        need = sum(1 << image[u] for u in adjacency[v] if image[u] >= 0)
        for w in candidates[v]:
            if not (used >> w) & 1 and masks[w] & used == need:
                image[v] = w
                assign(depth + 1, used | 1 << w)
                image[v] = -1

    assign(0, 0)
    group = AutomorphismGroup(n=n, edges=graph.edges, perms=tuple(sorted(perms)))
    _check_group_axioms(group)
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


def reference_map_automorphisms(graph: ShellGraph) -> AutomorphismGroup:
    """The face-map automorphisms of a connected shell graph with faces,
    each of the 4E choices of dart 0's image and orientation spread over
    the darts one dart at a time: the loop that the image table of
    `symmetry.find_automorphisms` replaced."""
    following = graph.face_map
    preceding = [0] * len(following)
    for d, d2 in enumerate(following):
        preceding[d2] = d
    tail = [graph.edges[d >> 1][d & 1] for d in range(len(following))]
    perms = set()
    for target in range(len(following)):
        for mirror in (False, True):
            image = _spread(following, preceding, target, mirror)
            if image is not None:
                perm = dict(zip(tail, (tail[t] for t in image)))
                perms.add(tuple(perm[v] for v in range(graph.n)))
    return AutomorphismGroup(n=graph.n, edges=graph.edges, perms=tuple(sorted(perms)))


def give_graph_group(graph: ShellGraph) -> ShellGraph:
    """`graph` with its whole `graph_automorphisms` group cached as the
    group `find_automorphisms` returns, so a graph without faces is searched
    and counted under its full symmetry."""
    _GROUPS[graph] = graph_automorphisms(graph)
    return graph


def _cycle_key(cycle: Sequence[int]) -> tuple[int, ...]:
    """A face cycle up to its start and direction."""
    both = (list(cycle), list(cycle)[::-1])
    return min(tuple(c[i:] + c[:i]) for c in both for i in range(len(c)))


def face_preserving(spec: PolyhedronSpec, group: AutomorphismGroup) -> AutomorphismGroup:
    """The members of a graph group that map every face of `spec` onto a
    face."""
    faces = {_cycle_key(f) for f in spec.faces}
    kept = [p for p in group.perms
            if all(_cycle_key([p[v] for v in f]) in faces for f in spec.faces)]
    return AutomorphismGroup(n=group.n, edges=group.edges, perms=tuple(kept))


def reference_edge_perms(graph: ShellGraph, group: AutomorphismGroup) -> np.ndarray:
    """The induced permutations of edge ids, one row per perm, each image
    edge looked up in the graph's edges one at a time: the loop that
    `AutomorphismGroup.edge_perms` replaced."""
    table = np.empty((group.order, graph.m), dtype=np.int32)
    for k, p in enumerate(group.perms):
        for e, (u, v) in enumerate(graph.edges):
            table[k, e] = graph.edges.index(canon_edge(p[u], p[v]))
    return table


def reference_orbit(group: AutomorphismGroup, mask: int):
    """A vertex set's images under the group, ascending and each once; the
    indices of the perms that fix it; and, for each image, the index of the
    first perm that maps the set onto it."""
    vertices = [v for v in range(group.n) if (mask >> v) & 1]
    images = [sum(1 << p[v] for v in vertices) for p in group.perms]
    members = tuple(sorted(set(images)))
    return members, [k for k, image in enumerate(images) if image == mask], [images.index(m) for m in members]


def reference_stabilizer(graph: ShellGraph, group: AutomorphismGroup, edge_ids) -> AutomorphismGroup:
    """The members of `group` that map an edge set onto itself."""
    target = set(edge_ids)
    kept = [p for p, row in zip(group.perms, reference_edge_perms(graph, group))
            if {int(row[e]) for e in target} == target]
    return AutomorphismGroup(n=group.n, edges=group.edges, perms=tuple(kept))


def relabeled_spec(spec: PolyhedronSpec, seed: int):
    """A seeded relabelling of a spec that keeps its orientation: vertices
    renamed by a random permutation, faces shuffled, each cycle started at a
    random vertex.  Returns the spec and the permutation (vertex v becomes
    perm[v])."""
    rng = random.Random(seed)
    perm = list(range(spec.n_vertices))
    rng.shuffle(perm)
    faces = []
    for f in spec.faces:
        k = rng.randrange(len(f))
        faces.append(tuple(perm[v] for v in f[k:] + f[:k]))
    rng.shuffle(faces)
    return PolyhedronSpec(name=spec.name, faces=tuple(faces)), perm


def prism_spec(k: int) -> PolyhedronSpec:
    """The k-gonal prism: face 0 is the bottom cap on ring 0..k-1, face 1
    the top cap on ring k..2k-1; 2k vertices and 3k edges."""
    angles = np.arange(k) * 2 * np.pi / k
    ring = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    vertices = np.concatenate([np.c_[ring, np.zeros(k)], np.c_[ring, np.ones(k)]])
    faces = [(0,) + tuple(range(k - 1, 0, -1)), tuple(range(k, 2 * k))]
    faces += [(i, (i + 1) % k, k + (i + 1) % k, k + i) for i in range(k)]
    return PolyhedronSpec(name=f"prism{k}", faces=tuple(faces), vertices=vertices)


def frucht_graph() -> ShellGraph:
    """Cubic, planar and 3-connected (so a polyhedral graph) with no
    automorphism but the identity; LCF notation [-5,-2,-4,2,5,-2,2,5,-2,-5,4,2]."""
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    edges = [(v, (v + 1) % 12) for v in range(12)]
    edges += [(v, (v + step) % 12) for v, step in enumerate(lcf)]
    return ShellGraph.from_edges(12, [(min(e), max(e)) for e in edges])


@functools.lru_cache(maxsize=None)
def truncated_octahedron_minus_edge():
    """truncated_octahedron without its first square-hexagon edge, the two
    faces merged into one octagon: a shell whose group has order 2."""
    spec = builtin("truncated_octahedron")
    edge, (i, j) = next(
        (e, faces) for e, faces in sorted(edge_face_table(spec).items())
        if sorted(len(spec.faces[f]) for f in faces) == [4, 6]
    )
    fi, fj = spec.faces[i], spec.faces[j]
    # fi runs the edge from x to y and fj from y to x
    x, y = edge if edge in zip(fi, fi[1:] + fi[:1]) else edge[::-1]

    def walk(face, start):
        k = face.index(start)
        return face[k:] + face[:k]

    merged = walk(fi, y) + walk(fj, x)[1:-1]
    faces = tuple(f for k, f in enumerate(spec.faces) if k not in (i, j)) + (merged,)
    return build_shell_graph(PolyhedronSpec(name="merged", faces=faces))


def _tree_search(graph: ShellGraph, vt_mask: int, excl_mask: int, n_grow: int):
    """Trees grown from the seed `vt_mask` by `n_grow` edges that dominate
    the graph and avoid `excl_mask`, each found once, and the nodes visited.

    Each node adds one frontier edge (an edge leaving the tree); a child may
    only use frontier edges after the one its parent added, plus the edges
    leaving the new vertex, so every tree is grown in one edge order.
    """
    full = (1 << graph.n) - 1
    cov_masks = [m | (1 << v) for v, m in enumerate(graph.neighbor_masks)]
    cov = 0
    for v in range(graph.n):
        if (vt_mask >> v) & 1:
            cov |= cov_masks[v]
    if n_grow == 0:
        return ([()] if cov == full else []), 0
    cover_step = max(graph.degree(v) for v in range(graph.n)) - 1
    out = []
    nodes = 0

    def rec(vt, cov, frontier, grown):
        nonlocal nodes
        remaining = n_grow - len(grown) - 1
        for idx, e in enumerate(frontier):
            u, v = graph.edges[e]
            if (vt >> u) & 1 and (vt >> v) & 1:
                continue
            i = v if (vt >> u) & 1 else u
            nodes += 1
            ncov = cov | cov_masks[i]
            if remaining == 0:
                if ncov == full:
                    out.append(tuple(grown) + (e,))
                continue
            if (full & ~ncov).bit_count() > remaining * cover_step:
                continue
            # sum(graph.edges[e2]) - i is the other end of an edge e2 at i
            child = frontier[idx + 1:] + [
                e2 for e2 in graph.incident_edges[i]
                if not ((vt | excl_mask) >> (sum(graph.edges[e2]) - i)) & 1
            ]
            rec(vt | (1 << i), ncov, child, grown + [e])

    frontier = [
        e for e, (u, v) in enumerate(graph.edges)
        if ((vt_mask >> u) & 1) != ((vt_mask >> v) & 1)
        and not (excl_mask >> u) & 1 and not (excl_mask >> v) & 1
    ]
    rec(vt_mask, cov, frontier, [])
    return out, nodes


def tree_search_interiors(graph: ShellGraph):
    """All optimal interiors, as (vertex mask, ascending edge ids), found by
    the tree search without symmetry.

    A closed shell runs one phase per root-set vertex, each barring the
    earlier roots; an open shell runs one phase seeded with its hole
    boundary, whose edges every interior holds.  Phases run at interior
    sizes 1, 2, ... until one finds dominating interiors; the union is the
    whole set, found once each.  Oracle for `netfold.mlst.enumerate_interiors`
    (checked against brute force in `test_mlst`).  Returns the leaf count,
    the interiors sorted by (edges, mask) and the nodes visited.
    """
    if graph.boundary_edges:
        seeds = [(graph.boundary_mask, 0)]
    else:
        roots = root_set(graph)
        seeds = [(1 << r, sum(1 << q for q in roots[:k])) for k, r in enumerate(roots)]
    seed_size = seeds[0][0].bit_count()
    nodes = 0
    for n_s in range(seed_size, graph.n + 1):
        interiors = []
        for vt_mask, excl_mask in seeds:
            grown_list, phase_nodes = _tree_search(graph, vt_mask, excl_mask, n_s - seed_size)
            nodes += phase_nodes
            for grown in grown_list:
                vt = vt_mask
                for e in grown:
                    vt |= (1 << graph.edges[e][0]) | (1 << graph.edges[e][1])
                interiors.append((vt, tuple(sorted(graph.boundary_edges + grown))))
        if interiors:
            assert len(set(interiors)) == len(interiors), "the tree search found an interior twice"
            interiors.sort(key=lambda it: (it[1], it[0]))
            return graph.n - n_s, tuple(interiors), nodes
    raise ValidationError("no dominating interior at any size")


def recursive_search(graph: ShellGraph, seeds, n_grow: int, allowance: int):
    """The sets, nodes and stop reason of one level of `netfold.mlst._search`
    (without a deadline), found by recursing once per vertex taken: the
    search the block search replaced, which every set and node count must
    match.  It keeps the `barred` mask the block search drops, and counts
    nodes one by one, so an overrun stops one node past `allowance`."""
    full = (1 << graph.n) - 1
    nbr = graph.neighbor_masks
    cov_masks = mlst.closed_neighborhood_masks(graph)
    covers = []
    for vt_mask, _ in seeds:
        cov = 0
        for v in range(graph.n):
            if (vt_mask >> v) & 1:
                cov |= cov_masks[v]
        covers.append(cov)
    if n_grow == 0:
        return [vt_mask for (vt_mask, _), cov in zip(seeds, covers) if cov == full], 0, None
    step = mlst.max_cover_step(graph)
    out = []
    nodes = 0

    class Stop(Exception):
        pass

    def rec(vt, cov, ext, barred, remaining):
        # `barred` holds the set, the excluded vertices and the vertices
        # earlier branches took; `ext` is disjoint from it
        nonlocal nodes
        bound = (remaining - 1) * step
        while ext:
            bit = ext & -ext
            ext ^= bit
            barred |= bit
            nodes += 1
            if nodes > allowance:
                raise Stop
            v = bit.bit_length() - 1
            ncov = cov | cov_masks[v]
            if (full ^ ncov).bit_count() > bound:
                continue
            if remaining == 1:
                out.append(vt | bit)
            else:
                rec(vt | bit, ncov, ext | (nbr[v] & ~barred), barred, remaining - 1)

    try:
        for (vt_mask, excl_mask), cov in zip(seeds, covers):
            barred = vt_mask | excl_mask
            rec(vt_mask, cov, cov & ~barred, barred, n_grow)
    except Stop:
        return out, nodes, "nodes"
    return out, nodes, None


def root_set_set_search(graph: ShellGraph):
    """The sets and nodes of `netfold.mlst`'s set search run with one phase
    per root-set vertex, each barring the earlier roots, and no orbit
    closure: the search the orbit phases replace."""
    roots = root_set(graph)
    seeds = [(1 << r, sum(1 << q for q in roots[:k])) for k, r in enumerate(roots)]
    nodes = 0
    for n_s in range(1, graph.n + 1):
        found, level_nodes, _ = mlst._search(graph, seeds, n_s - 1, 10**12)
        nodes += level_nodes
        if found:
            return tuple(sorted(found)), nodes
    raise ValidationError("no dominating set at any size")


def flat_sets(result: InteriorResult):
    """The sets of an `enumerate_interiors` result, its orbits flattened, as
    (vertex mask, number of trees on it) in ascending mask order."""
    return tuple(sorted((vt, n_trees) for members, n_trees in result.orbits for vt in members))


def expand_sets(result: InteriorResult):
    """The interiors of an `enumerate_interiors` result, as (vertex mask,
    ascending edge ids) sorted by (edges, mask) like `tree_search_interiors`;
    checks each set's tree count against its listed trees."""
    graph = result.graph
    out = []
    for vt, n_trees in flat_sets(result):
        trees = merged_spanning_trees(graph, vt, interior_seed(graph, vt))
        assert len(trees) == n_trees, f"set {vt:#x}: {n_trees} trees counted, {len(trees)} listed"
        out += [(vt, tuple(sorted(graph.boundary_edges + tree))) for tree in trees]
    return tuple(sorted(out, key=lambda it: (it[1], it[0])))


def per_member_listing(result: InteriorResult):
    """The cuts of an `enumerate_interiors` result as sorted tuples in
    ascending order, each member of each orbit listing its own trees with
    `merged_spanning_trees` (checked against the orbit's count) and every
    combination of one leaf edge per outside vertex."""
    graph = result.graph
    rows = []
    for members, n_trees in result.orbits:
        for vt in members:
            trees = merged_spanning_trees(graph, vt, interior_seed(graph, vt))
            assert len(trees) == n_trees, f"set {vt:#x}: {n_trees} trees counted, {len(trees)} listed"
            for tree in trees:
                for combo in itertools.product(*leaf_choices(graph, vt)):
                    rows.append(tuple(sorted(graph.boundary_edges + tree + combo)))
    return sorted(rows)


def labeled_from_interiors(graph: ShellGraph, interiors) -> int:
    """Labeled cut count of explicit interiors: Σ Π per-leaf choices."""
    return sum(math.prod(len(c) for c in leaf_choices(graph, vt)) for vt, _ in interiors)


def classes_from_interiors(graph: ShellGraph, interiors, group: AutomorphismGroup) -> int:
    """Class count by fixed-point counting over explicit interiors: a cut
    fixed by g needs g to fix its interior edge set and to map attachment
    choices consistently around each g-cycle of outside vertices."""
    table = reference_edge_perms(graph, group)
    index_of = {p: k for k, p in enumerate(group.perms)}
    total = 0
    for k, p in enumerate(group.perms):
        for vt, edges in interiors:
            if sorted(int(table[k][e]) for e in edges) != list(edges):
                continue
            if edges == () and not (vt >> p[vt.bit_length() - 1]) & 1:
                continue
            outside = [w for w in range(graph.n) if not (vt >> w) & 1]
            choice_of = dict(zip(outside, leaf_choices(graph, vt)))
            prod = 1
            visited = set()
            for w in outside:
                if w in visited:
                    continue
                cycle = [w]
                while p[cycle[-1]] != w:
                    cycle.append(p[cycle[-1]])
                visited.update(cycle)
                power = list(range(graph.n))
                for _ in cycle:
                    power = [p[x] for x in power]
                h_edges = table[index_of[tuple(power)]]
                prod *= sum(1 for e in choice_of[w] if int(h_edges[e]) == e)
            total += prod
    assert total % group.order == 0, "fixed-point total must divide by the group order"
    return total // group.order


def interiors_from_cuts(graph: ShellGraph, cuts: np.ndarray, base_edges: Sequence[int] = ()):
    """Recover the distinct interiors behind expanded cuts.

    The interior of a cut is its set of non-leaf vertices together with the
    cut edges joining two such vertices (plus any forced base edges, which
    sit inside the interior by construction).  Lets counting formulas be
    cross-checked against explicitly enumerated cuts.
    """
    base = tuple(sorted(int(e) for e in base_edges))
    seen = set()
    for row in np.asarray(cuts):
        degree = [0] * graph.n
        for e in row:
            u, v = graph.edges[int(e)]
            degree[u] += 1
            degree[v] += 1
        vt = 0
        for v in range(graph.n):
            if degree[v] >= 2:
                vt |= 1 << v
        edges = tuple(sorted(
            int(e) for e in row
            if (vt >> graph.edges[int(e)][0]) & 1 and (vt >> graph.edges[int(e)][1]) & 1
        ))
        assert set(base) <= set(edges), "base edges must lie inside the interior"
        seen.add((vt, edges))
    return tuple(sorted(seen, key=lambda it: (it[1], it[0])))


def canonical_cut(graph: ShellGraph, cut: Sequence[int], group: AutomorphismGroup) -> CanonicalCut:
    """Smallest labeled image of a cut over the whole group, with orbit size."""
    table = reference_edge_perms(graph, group)
    arr = np.asarray(sorted(int(e) for e in cut), dtype=np.int32)
    images = {tuple(np.sort(table[k][arr]).tolist()) for k in range(group.order)}
    return CanonicalCut(edges=min(images), orbit_size=len(images))


def ratio_trend_envelope(rows: Sequence[ShellStatistics]) -> list[tuple[str, float]]:
    """Multiplicative distance of each exact optimal-cut share from the
    trend line, as max(exact/trend, trend/exact) per completed row."""
    out = []
    for row in rows:
        ratio = row.optimal_ratio
        if ratio is None:
            continue
        trend = mlst_ratio_estimate(row.n_edges).value
        exact = float(ratio)
        out.append((row.name, max(exact / trend, trend / exact)))
    return out


def ratio_rank_correlation(rows: Sequence[ShellStatistics]) -> float:
    """Spearman rank correlation of log2 optimal-cut share against edge
    count over completed rows; the downward trend makes it negative."""
    points = [
        (row.n_edges, math.log2(row.optimal_ratio))
        for row in rows
        if row.optimal_ratio is not None
    ]
    if len(points) < 3:
        raise ValidationError("need at least 3 completed rows for a trend")
    xs, ys = zip(*points)
    return float(spearmanr(xs, ys).statistic)


# The per-face geometry that netfold's batched `unfold`, `centroid_and_rg`
# and `check_overlap` replace, kept as written: the new code must give the
# same polygons, hinges, markers, moments and verdicts bit for bit.

def reference_local_coords(spec: PolyhedronSpec, face: int) -> np.ndarray:
    """A face's isometric 2D coordinates, counter-clockwise, from its Newell
    normal and the in-plane axes, with np.cross for the cross products."""
    points = spec.vertices[list(spec.faces[face])]
    origin = points[0]
    normal = np.sum(np.cross(points, np.roll(points, -1, axis=0)), axis=0)
    normal = normal / np.linalg.norm(normal)
    x_axis = points[1] - origin
    x_axis = x_axis - normal * (x_axis @ normal)
    x_axis = x_axis / np.linalg.norm(x_axis)
    y_axis = np.cross(normal, x_axis)
    rel = points - origin
    return np.column_stack((rel @ x_axis, rel @ y_axis))


@functools.lru_cache(maxsize=4)
def _reference_frames(spec: PolyhedronSpec):
    table = edge_face_table(spec)
    vertices = spec.vertices
    scale = float(np.mean([np.linalg.norm(vertices[u] - vertices[v]) for u, v in table]))
    coords = tuple(reference_local_coords(spec, f) for f in range(spec.n_faces))
    return coords, table, RELATIVE_TOL * scale


def reference_unfold(spec: PolyhedronSpec, cut, root_face=None) -> NetLayout:
    """Breadth-first placement one face at a time, from the edge-face table."""
    spec.require_geometry()
    local_coords, table, tol = _reference_frames(spec)
    cut_edges = {canon_edge(u, v) for u, v in cut}
    unknown = cut_edges - set(table)
    if unknown:
        raise ValidationError(f"cut edges not on the shell: {sorted(unknown)}")

    n_faces = spec.n_faces
    hinge_links = {f: [] for f in range(n_faces)}
    n_hinges = 0
    for edge, faces in table.items():
        if edge in cut_edges or len(faces) != 2:
            continue
        a, b = faces
        hinge_links[a].append((b, edge))
        hinge_links[b].append((a, edge))
        n_hinges += 1
    if n_hinges != n_faces - 1:
        raise ValidationError(f"cut complement has {n_hinges} hinges for {n_faces} faces")

    root = min(range(n_faces)) if root_face is None else int(root_face)
    placed = [None] * n_faces
    placed[root] = local_coords[root].copy()
    hinges = []
    queue = deque([root])
    while queue:
        parent = queue.popleft()
        parent_face = spec.faces[parent]
        parent_poly = placed[parent]
        for child, edge in sorted(hinge_links[parent], key=lambda it: it[0]):
            if placed[child] is not None:
                continue
            child_face = spec.faces[child]
            local = local_coords[child]
            u, v = edge
            pu = parent_poly[parent_face.index(u)]
            pv = parent_poly[parent_face.index(v)]
            lu = local[child_face.index(u)]
            lv = local[child_face.index(v)]
            d = lv - lu
            target = pv - pu
            length = float(np.linalg.norm(d))
            if not math.isclose(length, float(np.linalg.norm(target)), rel_tol=1e-9, abs_tol=tol):
                raise ValidationError(f"hinge edge {edge} changes length between faces")
            cos_t = float(d @ target) / (length * length)
            sin_t = float(d[0] * target[1] - d[1] * target[0]) / (length * length)
            rot = np.array([[cos_t, -sin_t], [sin_t, cos_t]])
            placed[child] = (local - lu) @ rot.T + pu
            hinges.append((parent, child, edge))
            queue.append(child)
    if any(p is None for p in placed):
        raise ValidationError("hinge tree does not reach every face")
    polygons = tuple(placed)
    markers = _reference_markers(spec, cut_edges, table, polygons, tol)
    return NetLayout(spec=spec, cut=tuple(sorted(cut_edges)), root_face=root, polygons=polygons,
                     hinges=tuple(hinges), markers=markers)


def _reference_markers(spec, cut_edges, table, polygons, tol):
    degree = {}
    for u, v in cut_edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    markers = []
    for edge in sorted(cut_edges):
        for leaf, far in (edge, edge[::-1]):
            if degree[leaf] != 1:
                continue
            faces = table[edge]
            if len(faces) != 2:
                raise ValidationError(f"cut edge {edge} of leaf {leaf} borders {len(faces)} faces")
            a, b = sorted(faces)
            pa = polygons[a][spec.faces[a].index(leaf)]
            pb = polygons[b][spec.faces[b].index(leaf)]
            if float(np.linalg.norm(pa - pb)) > tol:
                raise ValidationError(f"leaf {leaf} does not place coincidently: {pa} vs {pb}")
            qa = polygons[a][spec.faces[a].index(far)]
            qb = polygons[b][spec.faces[b].index(far)]
            markers.append(Marker(
                vertex=leaf,
                far_vertex=far,
                point=(float(pa[0]), float(pa[1])),
                far_points=((float(qa[0]), float(qa[1])), (float(qb[0]), float(qb[1]))),
            ))
    return tuple(markers)


def _reference_polygon_integrals(poly):
    """Signed area, first moments, and second polar moment about the origin."""
    x = poly[:, 0]
    y = poly[:, 1]
    x1 = np.roll(x, -1)
    y1 = np.roll(y, -1)
    cross = x * y1 - x1 * y
    area = float(cross.sum()) / 2.0
    sx = float(((x + x1) * cross).sum()) / 6.0
    sy = float(((y + y1) * cross).sum()) / 6.0
    ixx = float(((y * y + y * y1 + y1 * y1) * cross).sum()) / 12.0
    iyy = float(((x * x + x * x1 + x1 * x1) * cross).sum()) / 12.0
    return area, sx, sy, ixx + iyy


def reference_centroid_and_rg(layout: NetLayout):
    """Moments polygon by polygon, added up in face order."""
    area = sx = sy = polar = 0.0
    for poly in layout.polygons:
        a, mx, my, ip = _reference_polygon_integrals(poly)
        if not a > 0.0:
            raise ValidationError("outward-oriented faces must stay counter-clockwise")
        area += a
        sx += mx
        sy += my
        polar += ip
    if area <= 0.0:
        raise ValidationError("net has zero area")
    cx = sx / area
    cy = sy / area
    rg_sq = polar / area - (cx * cx + cy * cy)
    return (cx, cy), math.sqrt(max(rg_sq, 0.0))


def _stack(polygons):
    """Every polygon edge: start points stacked in order, end points, and the polygon sizes."""
    counts = np.array([len(p) for p in polygons])
    points = np.concatenate(polygons)
    return points, points[_successor(counts)], counts


@np.errstate(divide="ignore", invalid="ignore")
def reference_check_overlap(layout: NetLayout):
    """The batched screen over every face pair whose bounding boxes meet,
    hinged pairs included."""
    points, ends, counts = _stack(layout.polygons)
    d = ends - points
    lengths = np.linalg.norm(d, axis=1)
    tol = RELATIVE_TOL * float(lengths.mean())
    starts = _runs(counts)
    lo, hi = np.minimum.reduceat(points, starts), np.maximum.reduceat(points, starts)
    apart = (lo[:, None, :] > hi[None, :, :] + tol).any(axis=2)
    fi, fj = np.nonzero(np.triu(~(apart | apart.T), 1))

    m, a, b = _product(counts[fi], counts[fj])
    e1, e2 = starts[fi][m] + a, starts[fj][m] + b
    (d1x, d1y), (d2x, d2y), (rx, ry) = d[e1].T, d[e2].T, (points[e2] - points[e1]).T
    denom = d1x * d2y - d1y * d2x
    t = (rx * d2y - ry * d2x) / denom
    s = (rx * d1y - ry * d1x) / denom
    eps = tol / np.maximum(lengths[e1], lengths[e2])
    skew = np.abs(denom) > RELATIVE_TOL * lengths[e1] * lengths[e2]
    crossed = skew & (eps < t) & (t < 1.0 - eps) & (eps < s) & (s < 1.0 - eps)
    overlap = np.logical_or.reduceat(crossed, _runs(counts[fi] * counts[fj]))

    owner = np.repeat(np.arange(len(counts)), counts)
    order = np.argsort(np.concatenate((owner, owner, np.arange(len(counts)))), kind="stable")
    centroids = np.add.reduceat(points, starts) / counts[:, None]
    probes = np.concatenate((points, (points + ends) / 2.0, centroids))[order]
    for src, dst in ((fi, fj), (fj, fi)):
        n_probes = 2 * counts[src] + 1
        m, p, k = _product(n_probes, counts[dst])
        x, y = probes[2 * starts[src][m] + src[m] + p].T
        e = starts[dst][m] + k
        (ax, ay), (bx, by), (dx, dy) = points[e].T, ends[e].T, d[e].T
        ll = dx * dx + dy * dy
        along = np.divide((x - ax) * dx + (y - ay) * dy, ll, out=np.zeros_like(ll), where=ll != 0.0)
        along = np.clip(along, 0.0, 1.0)
        near = (x - (ax + along * dx)) ** 2 + (y - (ay + along * dy)) ** 2 <= tol * tol
        parity = ((ay > y) != (by > y)) & (x < ax + (y - ay) * dx / dy)
        rows = np.flatnonzero(k == 0)
        inside = ~np.logical_or.reduceat(near, rows) & np.logical_xor.reduceat(parity, rows)
        overlap |= np.logical_or.reduceat(inside, _runs(n_probes))
    hits = np.flatnonzero(overlap)
    return (True, (int(fi[hits[0]]), int(fj[hits[0]]))) if hits.size else (False, None)
