"""Unfold cuts into planar nets, rank them, and screen for self-overlap.

Hinges are the shell edges not in the cut; they always form a spanning tree
of the face graph, so a breadth-first walk from the root face places every
face exactly once.  Faces keep their outward orientation, which makes every
placed polygon counter-clockwise and puts each child on the far side of its
hinge line without any reflection case analysis.

A leaf of the cut has exactly one cut edge, so the faces around it fold into
a single fan and all place the leaf at one coincident point -- the vertex
connection.  The cut edge's far endpoint is placed twice, once by each face
bordering that edge, equidistant from the connection point.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import FallbackExhaustedError, ValidationError
from .polyhedra import Edge, PolyhedronSpec, canon_edge, edge_face_table

RELATIVE_TOL = 1e-9


@dataclass(frozen=True)
class Marker:
    """A vertex connection: one leaf of the cut, placed in the net.

    `point` is the coincident placement of the leaf shared by every face
    around it; `far_points` are the two placements of the cut edge's other
    endpoint, one per bordering face (ascending face index).
    """

    vertex: int
    far_vertex: int
    point: tuple[float, float]
    far_points: tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True, eq=False)
class NetLayout:
    """A cut unfolded into the plane."""

    spec: PolyhedronSpec
    cut: tuple[Edge, ...]
    root_face: int
    polygons: tuple[np.ndarray, ...]
    hinges: tuple[tuple[int, int, Edge], ...]
    markers: tuple[Marker, ...]

    @property
    def n_faces(self) -> int:
        return len(self.polygons)

    def mean_edge_length(self) -> float:
        points, ends, _ = _stack(self.polygons)
        return float(np.linalg.norm(ends - points, axis=1).mean())


@dataclass(frozen=True, eq=False)
class RankedNet:
    """One deduplicated cut with its net, radius of gyration, and rank."""

    cut: tuple[int, ...]
    orbit_size: int
    layout: NetLayout
    centroid: tuple[float, float]
    radius_of_gyration: float
    overlapping: bool
    overlap_witness: Optional[tuple[int, int]]
    rank: int


def _face_basis(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Origin and in-plane orthonormal axes for one face, outward-oriented."""
    origin = points[0]
    # Newell normal: proportional to the outward normal for an outward cycle
    shifted = np.roll(points, -1, axis=0)
    normal = np.sum(np.cross(points, shifted), axis=0)
    norm = np.linalg.norm(normal)
    if norm == 0.0:
        raise ValidationError("degenerate face: zero normal")
    normal = normal / norm
    x_axis = points[1] - origin
    x_axis = x_axis - normal * (x_axis @ normal)
    x_len = np.linalg.norm(x_axis)
    if x_len == 0.0:
        raise ValidationError("degenerate face: zero-length first edge")
    x_axis = x_axis / x_len
    y_axis = np.cross(normal, x_axis)
    return origin, x_axis, y_axis


def _local_coords(spec: PolyhedronSpec, face: int) -> np.ndarray:
    """Isometric 2D coordinates of one face, counter-clockwise."""
    points = spec.vertices[list(spec.faces[face])]
    origin, x_axis, y_axis = _face_basis(points)
    rel = points - origin
    return np.column_stack((rel @ x_axis, rel @ y_axis))


def _stack(polygons: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every polygon edge: start points stacked in order, end points, and the polygon sizes."""
    counts = np.array([len(p) for p in polygons])
    points = np.concatenate(polygons)
    successor = np.arange(1, len(points) + 1)
    successor[np.cumsum(counts) - 1] = _runs(counts)
    return points, points[successor], counts


# PolyhedronSpec compares by identity, so each spec object keeps its own frames.
_FRAMES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _frames(spec: PolyhedronSpec) -> tuple:
    """Face 2D coordinates, edge-face table, hinge tolerance and 3D face-edge
    lengths: what `unfold` needs of a shell whatever the cut, made once per spec."""
    frames = _FRAMES.get(spec)
    if frames is None:
        table = edge_face_table(spec)
        vertices = spec.vertices
        scale = float(np.mean([np.linalg.norm(vertices[u] - vertices[v]) for u, v in table]))
        points, ends, _ = _stack([vertices[list(f)] for f in spec.faces])
        coords = tuple(_local_coords(spec, f) for f in range(spec.n_faces))
        lengths = np.linalg.norm(ends - points, axis=1)
        frames = _FRAMES[spec] = (coords, table, RELATIVE_TOL * scale, lengths)
    return frames


def unfold(spec: PolyhedronSpec, cut: Sequence[Edge], root_face: Optional[int] = None) -> NetLayout:
    """Unfold a shell along a cut into a planar net.

    The hinge set is the complement of the cut; it must form a spanning tree
    of the face graph.  Faces are placed breadth-first from the root face
    (lowest index unless given), each child by the orientation-preserving
    rigid motion matching the shared edge.
    """
    spec.require_geometry()
    local_coords, table, tol, edge_lengths = _frames(spec)
    cut_edges = {canon_edge(u, v) for u, v in cut}
    unknown = cut_edges - set(table)
    if unknown:
        raise ValidationError(f"cut edges not on the shell: {sorted(unknown)}")

    n_faces = spec.n_faces
    hinge_links: dict[int, list[tuple[int, Edge]]] = {f: [] for f in range(n_faces)}
    n_hinges = 0
    for edge, faces in table.items():
        if edge in cut_edges or len(faces) != 2:
            continue
        a, b = faces
        hinge_links[a].append((b, edge))
        hinge_links[b].append((a, edge))
        n_hinges += 1
    if n_hinges != n_faces - 1:
        raise ValidationError(
            f"cut complement has {n_hinges} hinges for {n_faces} faces; "
            "it must be a face-graph spanning tree"
        )

    root = min(range(n_faces)) if root_face is None else int(root_face)
    if not 0 <= root < n_faces:
        raise ValidationError(f"root face {root} out of range")

    placed: list[Optional[np.ndarray]] = [None] * n_faces
    placed[root] = local_coords[root].copy()
    hinges: list[tuple[int, int, Edge]] = []
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
    missing = [f for f in range(n_faces) if placed[f] is None]
    if missing:
        raise ValidationError(f"hinge tree does not reach faces {missing}")

    polygons = tuple(placed)  # type: ignore[arg-type]
    _check_isometric(polygons, edge_lengths, tol)
    markers = _markers(spec, cut_edges, table, polygons, tol)
    return NetLayout(spec=spec, cut=tuple(sorted(cut_edges)), root_face=root, polygons=polygons,
                     hinges=tuple(hinges), markers=markers)


def _check_isometric(polygons: Sequence[np.ndarray], lengths: np.ndarray, tol: float) -> None:
    points, ends, counts = _stack(polygons)
    placed = np.linalg.norm(ends - points, axis=1)
    bad = np.flatnonzero(np.abs(lengths - placed) > tol + RELATIVE_TOL * lengths)
    if bad.size:
        k = int(bad[0])
        f = int(np.searchsorted(np.cumsum(counts), k, side="right"))
        raise ValidationError(f"face {f} edge {k - _runs(counts)[f]} length {placed[k]} "
                              f"differs from shell length {lengths[k]}")


def _markers(
    spec: PolyhedronSpec,
    cut_edges: set[Edge],
    table: dict[Edge, list[int]],
    polygons: Sequence[np.ndarray],
    tol: float,
) -> tuple[Marker, ...]:
    degree: dict[int, int] = {}
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


def _polygon_integrals(poly: np.ndarray) -> tuple[float, float, float, float]:
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


def centroid_and_rg(layout: NetLayout) -> tuple[tuple[float, float], float]:
    """Centroid and radius of gyration of the net region.

    Integrals are evaluated polygon by polygon from vertex coordinates
    (shoelace area, first and second moments) and summed; for an overlapping
    layout the overlap is counted with multiplicity, which is irrelevant
    because overlapping nets are discarded by selection.
    """
    area = sx = sy = polar = 0.0
    for poly in layout.polygons:
        a, mx, my, ip = _polygon_integrals(poly)
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


def _runs(sizes: np.ndarray) -> np.ndarray:
    """Start offsets of consecutive runs of the given sizes."""
    return np.cumsum(sizes) - sizes


def _product(n_left: np.ndarray, n_right: np.ndarray) -> tuple[np.ndarray, ...]:
    """(m, a, b) for every a < n_left[m] and b < n_right[m], by m, then row-major."""
    sizes = n_left * n_right
    group = np.repeat(np.arange(len(sizes)), sizes)
    k = np.arange(len(group)) - np.repeat(_runs(sizes), sizes)
    return group, k // n_right[group], k % n_right[group]


@np.errstate(divide="ignore", invalid="ignore")
def check_overlap(layout: NetLayout) -> tuple[bool, Optional[tuple[int, int]]]:
    """Does any face pair intersect with positive area?

    Touching along a shared hinge segment or at a shared vertex is not
    overlap.  A positive-area intersection of simple polygons shows up as a
    proper edge crossing or as one polygon's probe point (vertex, centroid,
    or edge midpoint) strictly inside the other; both are tested with a
    tolerance of 1e-9 times the mean edge length, and two edges whose angle
    has a sine of at most 1e-9 are parallel and never cross.  Both tests run
    in one batch over the face pairs whose bounding boxes meet.  The witness
    is the first overlapping pair in row-major order.
    """
    points, ends, counts = _stack(layout.polygons)
    d = ends - points
    lengths = np.linalg.norm(d, axis=1)
    tol = RELATIVE_TOL * float(lengths.mean())  # the layout's mean_edge_length()
    starts = _runs(counts)
    lo, hi = np.minimum.reduceat(points, starts), np.maximum.reduceat(points, starts)
    apart = (lo[:, None, :] > hi[None, :, :] + tol).any(axis=2)
    fi, fj = np.nonzero(np.triu(~(apart | apart.T), 1))

    # every edge of face fi[m] against every edge of face fj[m]
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

    # face f's probes (vertices, edge midpoints, centroid) sit from row 2 * starts[f] + f
    owner = np.repeat(np.arange(len(counts)), counts)
    order = np.argsort(np.concatenate((owner, owner, np.arange(len(counts)))), kind="stable")
    centroids = np.add.reduceat(points, starts) / counts[:, None]
    probes = np.concatenate((points, (points + ends) / 2.0, centroids))[order]
    for src, dst in ((fi, fj), (fj, fi)):
        # every probe of face src[m] against every edge of face dst[m]
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


def rank_nets(
    spec: PolyhedronSpec,
    cuts: Sequence[tuple[tuple[int, ...], int]],
    graph,
) -> list[RankedNet]:
    """Unfold deduplicated cuts and rank them by radius of gyration.

    `cuts` holds (edge-id tuple, orbit size) pairs; edge ids refer to the
    canonical edge order of `graph`, the shell graph of `spec`
    (`build_shell_graph`).  Ranking is ascending in R_g with ties broken by
    the edge-id tuple, ranks 1-based.
    """
    entries = []
    for edge_ids, orbit_size in cuts:
        pairs = [graph.edges[e] for e in edge_ids]
        layout = unfold(spec, pairs)
        centroid, rg = centroid_and_rg(layout)
        overlapping, witness = check_overlap(layout)
        entries.append((rg, tuple(int(e) for e in edge_ids), orbit_size, layout, centroid, overlapping, witness))
    entries.sort(key=lambda it: (it[0], it[1]))
    return [
        RankedNet(
            cut=cut, orbit_size=orbit, layout=layout, centroid=centroid,
            radius_of_gyration=rg, overlapping=overlapping,
            overlap_witness=witness, rank=k + 1,
        )
        for k, (rg, cut, orbit, layout, centroid, overlapping, witness) in enumerate(entries)
    ]


def select_optimal_net(ranked: Sequence[RankedNet]) -> RankedNet:
    """First net in rank order that does not self-overlap."""
    if not ranked:
        raise ValidationError("no nets to select from")
    for net in ranked:
        if not net.overlapping:
            return net
    raise FallbackExhaustedError(
        "every optimal net self-overlaps; a fewer-leaf fallback is out of scope",
        ranked=list(ranked),
    )
