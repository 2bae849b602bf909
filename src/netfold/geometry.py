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

A face's placement depends only on its hinge path from the root face, and
the nets of one shell share most of those paths, so `unfold` keeps state per
path and per spec (`_Paths`, freed with the spec): the parent's path id and
the hinge map to the child's path id, whose placed points are stacked once,
and a leaf's cut edge, its end and the path ids of the edge's two faces map
to its `Marker`.  A child is placed, and a marker made and checked, only on a
miss; a hit is what the same float operations gave on the same inputs, so it
has the bits a fresh placement would have.  The state holds one entry per
distinct path: 196 placements for the 5,187 placed faces of truncated_cube's
399 nets, and 2,044 for the 4,083,696 of snub_cube minus a triangle.

A path id fixes a face, its points and the hinge to its parent, so each path
also keeps whether its face passed the isometry check and its face moments,
and each pair of paths the overlap verdict of the two faces under each net
tolerance met.  `unfold` records each face's path id in its layout
(`NetLayout.path_ids`), and `centroid_and_rg` and `check_overlap` read the
kept state only while the layout's points are still the kept placements bit
for bit; any other layout gets the full computation, with the same result.
"""

from __future__ import annotations

import math
import weakref
from collections import deque
from itertools import repeat
from dataclasses import dataclass, field, fields
from typing import NamedTuple, Optional, Sequence

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
    """A cut unfolded into the plane.

    The polygons are views, face by face, of one stacked (P, 2) array,
    `points`, made here from the polygons given (`unfold` hands over the
    stack it filled instead, through `_stacked`).  `tables` index that stack
    (`_Tables`): the shell's own when the faces have the shell's sizes, made
    for this layout otherwise.  `hinge_ids` holds the shell's id of each
    hinge (`_Frames.hinge_ids`) that is one of the shell's, and is left
    empty unless the faces have the shell's sizes.  `path_ids` holds the
    hinge path id of each face (`_Paths`) for a layout made by `unfold`, and
    is empty for any other, a `dataclasses.replace` copy included.
    """

    spec: PolyhedronSpec
    cut: tuple[Edge, ...]
    root_face: int
    polygons: tuple[np.ndarray, ...]
    hinges: tuple[tuple[int, int, Edge], ...]
    markers: tuple[Marker, ...]
    points: np.ndarray = field(init=False, repr=False)
    tables: _Tables = field(init=False, repr=False)
    hinge_ids: np.ndarray = field(init=False, repr=False)
    path_ids: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        sizes = [len(p) for p in self.polygons]
        points = np.concatenate(self.polygons) if self.polygons else np.empty((0, 2))
        frames = _frames(self.spec) if self.spec.has_geometry else None
        if frames is not None and sizes == frames.tables.counts.tolist():
            tables = frames.tables
            ids = [frames.hinge_ids.get(hinge) for hinge in self.hinges]
            ids = np.array([h for h in ids if h is not None], dtype=np.intp)
        else:
            # the hinge tables index the points of the shell's own faces
            tables, ids = _tables(np.array(sizes, dtype=np.intp)), np.empty(0, dtype=np.intp)
        object.__setattr__(self, "polygons", tuple(points[s] for s in tables.slices))
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "tables", tables)
        object.__setattr__(self, "hinge_ids", ids)
        object.__setattr__(self, "path_ids", _NO_PATHS)

    @classmethod
    def _stacked(cls, **values) -> NetLayout:
        """The layout on a stack already in the shell's face sizes, taken as
        given: `values` holds every field but `polygons`, `points` being the
        stack, `tables` the shell's, `hinge_ids` the ids of `hinges` and
        `path_ids` the faces' paths, whose kept placements `points` holds.
        The polygons are views of `points`, and nothing is stacked again."""
        values["polygons"] = tuple(values["points"][s] for s in values["tables"].slices)
        layout = object.__new__(cls)
        # set in field order, as __init__ and __post_init__ set them, so
        # that every layout's attributes share one dict of keys; a field
        # missing from `values` raises KeyError
        for f in fields(cls):
            object.__setattr__(layout, f.name, values.pop(f.name))
        if values:
            raise TypeError(f"NetLayout has no fields {sorted(values)}")
        return layout

    @property
    def n_faces(self) -> int:
        return len(self.polygons)

    def mean_edge_length(self) -> float:
        points = self.points
        return float(np.linalg.norm(points[self.tables.successor] - points, axis=1).mean())


_NO_PATHS = np.empty(0, dtype=np.int32)


@dataclass(frozen=True, eq=False)
class RankedNet:
    """One deduplicated cut with its net, radius of gyration, and rank."""

    cut: tuple[int, ...]
    orbit_size: int
    layout: NetLayout
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


def _successor(counts: np.ndarray) -> np.ndarray:
    """For polygons of the given sizes stacked in order, the index of each
    point's successor on its own polygon."""
    successor = np.arange(1, int(counts.sum()) + 1)
    successor[np.cumsum(counts) - 1] = _runs(counts)
    return successor


class _Tables(NamedTuple):
    """Index tables of a stack of polygons of the given sizes, whatever
    their points.

    Face f holds rows `slices[f]` (from `starts[f]`, `counts[f]` of them) of
    the stack, and `successor` maps each row to the next point of its face.
    `sizes` holds, for each face size n, the faces of that size and the rows
    of their points, one face to a row.

    Face pairs i < j are numbered in row-major order: pair q is faces
    (`pair_i[q]`, `pair_j[q]`).  The screen's rows come sorted by pair:
    - a crossing row pairs edge `cross_e1` of face i with edge `cross_e2` of
      face j, for pair `cross_pair`;
    - a probe group pairs one probe of one face with every edge of the
      other: for each pair, each probe of face i against face j, then each
      probe of face j against face i.  The probes stack as the points, the
      edge midpoints and the face centroids, and a face's probes are taken
      in the order vertices, edge midpoints, centroid.  `probes` holds one
      block per size n of the faces probed, as (pair, probe, edges): the
      groups' pair ids, their probes' indices in the stack and the stacked
      indices of their edges, an (n, groups) array.
    """

    counts: np.ndarray
    starts: np.ndarray
    slices: tuple[slice, ...]
    successor: np.ndarray
    sizes: tuple[tuple[np.ndarray, np.ndarray], ...]
    pair_i: np.ndarray
    pair_j: np.ndarray
    cross_e1: np.ndarray
    cross_e2: np.ndarray
    cross_pair: np.ndarray
    probes: tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]


def _tables(counts: np.ndarray) -> _Tables:
    """The `_Tables` of polygons of the given sizes."""
    starts = _runs(counts)
    n_faces = len(counts)
    pair_i, pair_j = np.triu_indices(n_faces, 1)
    cross_pair, a, b = _product(counts[pair_i], counts[pair_j])
    # every probe of each pair, i's against j and then j's against i
    src = np.column_stack((pair_i, pair_j)).ravel()
    dst = np.column_stack((pair_j, pair_i)).ravel()
    m, p, _ = _product(2 * counts[src] + 1, np.ones_like(src))
    # in probe order, face f's probes sit from row 2 * starts[f] + f
    owner = np.repeat(np.arange(n_faces), counts)
    order = np.argsort(np.concatenate((owner, owner, np.arange(n_faces))), kind="stable")
    probe, dst = order[2 * starts[src][m] + src[m] + p], dst[m]
    sizes, probes = [], []
    for n in sorted(set(counts.tolist())):
        faces = np.flatnonzero(counts == n)
        sizes.append((faces, starts[faces, None] + np.arange(n)))
        block = np.flatnonzero(counts[dst] == n)
        probes.append((m[block] // 2, probe[block], np.arange(n)[:, None] + starts[dst[block]]))
    return _Tables(
        counts=counts,
        starts=starts,
        slices=tuple(slice(s, s + n) for s, n in zip(starts.tolist(), counts.tolist())),
        successor=_successor(counts),
        sizes=tuple(sizes),
        pair_i=pair_i,
        pair_j=pair_j,
        cross_e1=starts[pair_i][cross_pair] + a,
        cross_e2=starts[pair_j][cross_pair] + b,
        cross_pair=cross_pair,
        probes=tuple(probes),
    )


# PolyhedronSpec compares by identity, so each spec object keeps its own frames.
_FRAMES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class _Frames(NamedTuple):
    """What `unfold` and the screen need of a shell whatever the cut, made
    once per spec.

    `links[f]` lists face f's neighbours across shared edges, ascending by
    neighbour (ties in edge-table order), as (child, edge, iu, iv, rel, d,
    dx, dy, length, hinge, h): iu and iv are the places in face f of the
    edge's ends u < v, rel is the child's 2D coordinates less those of u,
    d = (dx, dy) the vector u -> v in the child's coordinates and length its
    norm; hinge is the tuple (f, child, edge) and h its id in `hinge_ids`.

    The points of a placed net are stacked face by face in face order, as
    `tables` index them, and `lengths` holds the 3D length of each face edge.
    `marker_at[e, o]` holds the stacked indices of end o of edge e in the
    edge's lower and higher face, then of its other end in the same two
    faces, and `edge_faces[e]` those two faces (-1 for an edge of fewer than
    two faces).

    `hinge_ids` numbers every possible hinge (parent, child, edge), and for
    hinge h, `hinge_pairs[h]` is the row-major id of its two faces
    (`_Tables`), `hinge_edges[h]` the stacked index of the edge in the
    parent (which runs it counter-clockwise) and `hinge_sides[h]` the
    stacked indices of every vertex of the parent and then of the child,
    each face padded to the largest face size by repeating its first vertex.
    """

    coords: tuple[np.ndarray, ...]
    edge_ids: dict[Edge, int]
    interior: frozenset[Edge]
    n_edge_faces: np.ndarray
    edge_faces: np.ndarray
    tol: float
    links: tuple[tuple[tuple, ...], ...]
    tables: _Tables
    lengths: np.ndarray
    marker_at: np.ndarray
    hinge_ids: dict[tuple[int, int, Edge], int]
    hinge_pairs: np.ndarray
    hinge_edges: np.ndarray
    hinge_sides: np.ndarray


def _frames(spec: PolyhedronSpec) -> _Frames:
    """The shell's `_Frames`, made on first use."""
    frames = _FRAMES.get(spec)
    if frames is None:
        table = edge_face_table(spec)
        vertices = spec.vertices
        scale = float(np.mean([np.linalg.norm(vertices[u] - vertices[v]) for u, v in table]))
        counts = np.array([len(f) for f in spec.faces])
        tables = _tables(counts)
        points = vertices[[v for f in spec.faces for v in f]]
        coords = tuple(_local_coords(spec, f) for f in range(spec.n_faces))
        starts = tables.starts
        pair_ids = np.full((spec.n_faces, spec.n_faces), -1, dtype=np.intp)
        pair_ids[tables.pair_i, tables.pair_j] = np.arange(len(tables.pair_i))
        slots = np.full((spec.n_faces, spec.n_vertices), -1, dtype=np.intp)
        for f, face in enumerate(spec.faces):
            slots[f, list(face)] = np.arange(len(face))
        width = int(counts.max())
        vertex_rows = [[int(starts[f]) + (i if i < len(face) else 0) for i in range(width)]
                       for f, face in enumerate(spec.faces)]
        links: list[list[tuple]] = [[] for _ in spec.faces]
        marker_at = np.full((len(table), 2, 4), -1, dtype=np.intp)
        edge_faces = np.full((len(table), 2), -1, dtype=np.intp)
        hinge_ids: dict[tuple[int, int, Edge], int] = {}
        hinge_pairs, hinge_edges, hinge_sides = [], [], []
        for e, (edge, faces) in enumerate(table.items()):
            if len(faces) != 2:
                continue
            u, v = edge
            a, b = faces
            at = [int(starts[f] + slots[f, w]) for w in edge for f in (a, b)]
            marker_at[e] = (at, at[2:] + at[:2])
            edge_faces[e] = faces
            for parent, child in ((a, b), (b, a)):
                local = coords[child]
                lu = local[slots[child, u]]
                d = local[slots[child, v]] - lu
                iu, iv = int(slots[parent, u]), int(slots[parent, v])
                hinge = (parent, child, edge)
                links[parent].append((child, edge, iu, iv, local - lu, d, *d.tolist(),
                                      float(np.linalg.norm(d)), hinge, len(hinge_pairs)))
                hinge_ids[hinge] = len(hinge_pairs)
                hinge_pairs.append(pair_ids[a, b])
                hinge_edges.append(int(starts[parent]) + (iu if iv == (iu + 1) % counts[parent] else iv))
                hinge_sides.append(vertex_rows[parent] + vertex_rows[child])
        frames = _FRAMES[spec] = _Frames(
            coords=coords,
            edge_ids={edge: e for e, edge in enumerate(table)},
            interior=frozenset(edge for edge, faces in table.items() if len(faces) == 2),
            n_edge_faces=np.array([len(faces) for faces in table.values()]),
            edge_faces=edge_faces,
            tol=RELATIVE_TOL * scale,
            links=tuple(tuple(sorted(link, key=lambda it: it[0])) for link in links),
            tables=tables,
            lengths=np.linalg.norm(points[tables.successor] - points, axis=1),
            marker_at=marker_at,
            hinge_ids=hinge_ids,
            hinge_pairs=np.array(hinge_pairs, dtype=np.intp),
            hinge_edges=np.array(hinge_edges, dtype=np.intp),
            hinge_sides=np.array(hinge_sides, dtype=np.intp).reshape(-1, 2 * width),
        )
    return frames


class _Paths:
    """What the nets of one shell share, kept once per hinge path.

    A face's placement depends only on its hinge path from the root face, so
    every path gets an id: the root face's own index for the root, and
    `n_faces` upwards, in the order they are met, for the others.  A path id
    thus fixes the face, its placed points and the hinge to its parent.
    - `placed[(p, h)]` is the path id of the child reached from a parent on
      path p across hinge h (`_Frames.hinge_ids`).
    - `points` stacks the placed points of every path met, path p's from
      row `first[p]` (-1 for a root not met yet), in the face's order.
    - `markers[(e, o, pa, pb)]` is the `Marker` of the leaf at end o of cut
      edge e whose lower and higher face are on paths pa and pb.
    - `isometric[p]` tells whether path p's face has passed
      `_check_isometric`.
    - `moments[:, p]` holds the face's area, first moments and polar moment
      (`_face_moments`) once it has passed the orientation check, and a
      zero area until then.
    - `verdicts[tol][pi << 32 | pj]` tells whether the faces on paths pi and
      pj (pi's face the lower) overlap in a net of tolerance tol, for each
      pair that was screened: one whose boxes meet.
    Ids are handed out as entries are added, so one spec's nets are
    unfolded one at a time, as `rank_nets` does.
    """

    def __init__(self, tables: _Tables) -> None:
        n_faces, n_points = len(tables.counts), len(tables.successor)
        self.placed: dict[tuple[int, int], int] = {}
        self.markers: dict[tuple[int, int, int, int], Marker] = {}
        self.points = np.empty((2 * n_points, 2))
        self.n_rows = 0
        self.first = np.full(2 * n_faces, -1, dtype=np.intp)
        self.isometric = np.zeros(2 * n_faces, dtype=bool)
        self.moments = np.zeros((4, 2 * n_faces))
        self.verdicts: dict[float, dict[int, bool]] = {}
        # stacked point k of a net is point k - starts[f] of its face f's path
        owner = np.repeat(np.arange(n_faces), tables.counts)
        self._owner, self._offset = owner, np.arange(n_points) - tables.starts[owner]

    def add(self, path: int, placed: np.ndarray) -> None:
        """Keep the placed points of a path met for the first time."""
        start, end = self.n_rows, self.n_rows + len(placed)
        if end > len(self.points):
            points = np.empty((2 * end, 2))
            points[:start] = self.points[:start]
            self.points = points
        if path >= len(self.first):
            size = 2 * len(self.first)
            self.first = _widened(self.first, size, -1)
            self.isometric = _widened(self.isometric, size, False)
            self.moments = _widened(self.moments, size, 0.0)
        self.points[start:end] = placed
        self.first[path] = start
        self.n_rows = end

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """The kept points of a net whose faces are on paths `ids`, stacked."""
        rows = self.first.take(ids).take(self._owner) + self._offset
        return self.points.take(rows, axis=0)


def _widened(array: np.ndarray, size: int, fill) -> np.ndarray:
    """A copy of `array` with its last axis grown to `size`, the new places
    set to `fill`."""
    wide = np.full(array.shape[:-1] + (size,), fill, dtype=array.dtype)
    wide[..., :array.shape[-1]] = array
    return wide


# Freed with the spec, like `_FRAMES`.
_PATHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kept(layout: NetLayout) -> Optional[_Paths]:
    """The path state of the layout's shell, when the layout holds its
    faces' kept placements bit for bit; None for a layout not made by
    `unfold` or written into since."""
    ids = layout.path_ids
    if not ids.size:
        return None
    paths = _PATHS[layout.spec]
    if not (paths.gather(ids).view(np.int64) == layout.points.view(np.int64)).all():
        return None
    return paths


def unfold(spec: PolyhedronSpec, cut: Sequence[Edge], root_face: Optional[int] = None) -> NetLayout:
    """Unfold a shell along a cut into a planar net.

    The hinge set is the complement of the cut; it must form a spanning tree
    of the face graph.  Faces are placed breadth-first from the root face
    (face 0 unless given), each child by the orientation-preserving rigid
    motion matching the shared edge.

    The nets of one shell share most hinge paths from the root, so each
    child's placement is kept per shell (`_Paths`) under its parent's path
    and its hinge, and made only the first time that pair is met; each leaf's
    marker is kept under its cut edge, its end and the paths of the edge's two
    faces.  A kept placement is what the same float operations on the same
    inputs gave, so every coordinate has the bits it would have if it were
    placed again.  A placement or marker that fails its check is not kept.
    The net's points are one gather of its paths' kept points, and the
    isometry check runs only while one of its paths has not passed it.  The
    cache is freed with the spec and holds one entry per distinct path: 196
    placements for the 399 nets of the truncated cube.
    """
    spec.require_geometry()
    frames = _frames(spec)
    cut_edges = {canon_edge(u, v) for u, v in cut}
    unknown = cut_edges - frames.edge_ids.keys()
    if unknown:
        raise ValidationError(f"cut edges not on the shell: {sorted(unknown)}")

    n_faces = spec.n_faces
    n_hinges = len(frames.interior) - len(cut_edges & frames.interior)
    if n_hinges != n_faces - 1:
        raise ValidationError(
            f"cut complement has {n_hinges} hinges for {n_faces} faces; "
            "it must be a face-graph spanning tree"
        )

    root = 0 if root_face is None else root_face
    if isinstance(root, bool) or not isinstance(root, (int, np.integer)):
        raise ValidationError(f"root face {root!r} is not an integer")
    if not 0 <= root < n_faces:
        raise ValidationError(f"root face {root} out of range")
    root = int(root)

    paths = _PATHS.get(spec)
    if paths is None:
        paths = _PATHS[spec] = _Paths(frames.tables)
    if paths.first[root] < 0:
        paths.add(root, frames.coords[root])
    placements = paths.placed
    tol = frames.tol
    path = [-1] * n_faces
    path[root] = root
    hinges: list[tuple[int, int, Edge]] = []
    hinge_ids: list[int] = []
    queue = deque([root])
    while queue:
        parent = queue.popleft()
        on = path[parent]
        for child, edge, iu, iv, rel, d, dx, dy, length, hinge, h in frames.links[parent]:
            if path[child] >= 0 or edge in cut_edges:
                continue
            placed = placements.get((on, h))
            if placed is None:
                start = paths.first[on]
                pu = paths.points[start + iu]
                target = paths.points[start + iv] - pu
                if not math.isclose(length, math.sqrt(float(target @ target)), rel_tol=1e-9, abs_tol=tol):
                    raise ValidationError(f"hinge edge {edge} changes length between faces")
                tx, ty = target.tolist()
                cos_t = float(d @ target) / (length * length)
                sin_t = (dx * ty - dy * tx) / (length * length)
                rot = np.array([[cos_t, -sin_t], [sin_t, cos_t]])
                placed = n_faces + len(placements)
                paths.add(placed, rel @ rot.T + pu)
                placements[on, h] = placed
            path[child] = placed
            hinges.append(hinge)
            hinge_ids.append(h)
            queue.append(child)
    missing = [f for f in range(n_faces) if path[f] < 0]
    if missing:
        raise ValidationError(f"hinge tree does not reach faces {missing}")

    path_ids = np.array(path, dtype=np.int32)
    points = paths.gather(path_ids)
    if not paths.isometric.take(path_ids).all():
        _check_isometric(points, frames)
        paths.isometric[path_ids] = True

    # one marker per leaf of the sorted cut, in cut order, an edge's lower end
    # first; both faces of each leaf's cut edge must place it at one point
    cut = tuple(sorted(cut_edges))
    markers: tuple[Marker, ...] = ()
    if cut:
        ends = np.array(cut)
        cut_rows, sides = np.nonzero(np.bincount(ends.ravel())[ends] == 1)
        ids = np.array([frames.edge_ids[edge] for edge in cut])[cut_rows]
        # an edge of fewer than two faces gets a key that is never kept: it fails below
        keys = [(e, o, path[a], path[b]) for e, o, (a, b) in
                zip(ids.tolist(), sides.tolist(), frames.edge_faces[ids].tolist())]
        kept = paths.markers
        new = np.array([k for k, key in enumerate(keys) if key not in kept], dtype=np.intp)
        if new.size:
            ids, sides, cut_rows = ids[new], sides[new], cut_rows[new]
            leaves, fars = ends[cut_rows, sides], ends[cut_rows, 1 - sides]
            at = points[frames.marker_at[ids, sides]]
            two = frames.n_edge_faces[ids] == 2
            bad = np.flatnonzero(~two | (np.linalg.norm(at[:, 0] - at[:, 1], axis=1) > tol))
            if bad.size:
                k = int(bad[0])
                if not two[k]:
                    raise ValidationError(f"cut edge {cut[cut_rows[k]]} of leaf {leaves[k]} borders "
                                          f"{frames.n_edge_faces[ids[k]]} faces")
                raise ValidationError(f"leaf {leaves[k]} does not place coincidently: {at[k, 0]} vs {at[k, 1]}")
            for k, leaf, far, (pa, _, qa, qb) in zip(new.tolist(), leaves.tolist(), fars.tolist(), at.tolist()):
                kept[keys[k]] = Marker(vertex=leaf, far_vertex=far, point=tuple(pa),
                                       far_points=(tuple(qa), tuple(qb)))
        markers = tuple(kept[key] for key in keys)
    hinge_ids = np.array(hinge_ids, dtype=np.intp)
    # the kept verdicts stand for these hinges and paths, so neither may change
    hinge_ids.flags.writeable = path_ids.flags.writeable = False
    return NetLayout._stacked(spec=spec, cut=cut, root_face=root, hinges=tuple(hinges), markers=markers,
                              points=points, tables=frames.tables, hinge_ids=hinge_ids, path_ids=path_ids)


def _check_isometric(points: np.ndarray, frames: _Frames) -> None:
    placed = np.linalg.norm(points[frames.tables.successor] - points, axis=1)
    lengths = frames.lengths
    bad = np.flatnonzero(np.abs(lengths - placed) > frames.tol + RELATIVE_TOL * lengths)
    if bad.size:
        k = int(bad[0])
        starts = frames.tables.starts
        f = int(np.searchsorted(starts, k, side="right")) - 1
        raise ValidationError(f"face {f} edge {k - starts[f]} length {placed[k]} "
                              f"differs from shell length {lengths[k]}")


def centroid_and_rg(layout: NetLayout) -> tuple[tuple[float, float], float]:
    """Centroid and radius of gyration of the net region.

    Integrals are evaluated polygon by polygon from vertex coordinates
    (`_face_moments`) and summed in face order; for an overlapping layout
    the overlap is counted with multiplicity, which is irrelevant because
    overlapping nets are discarded by selection.  A face's moments depend
    only on its placed points, so a layout made by `unfold` takes them from
    its faces' paths (`_Paths.moments`) once each path has passed the
    orientation check, while it still holds the kept placements.
    """
    paths = _kept(layout)
    ids = layout.path_ids
    if paths is not None and (paths.moments[0].take(ids) > 0.0).all():
        faces = paths.moments.take(ids, axis=1)
    else:
        faces = _face_moments(layout)
        if paths is not None:
            paths.moments[:, ids] = faces
    # each total starts from 0.0 and takes one face at a time, in face order
    moments = np.zeros((4, len(faces[0]) + 1))
    moments[:, 1:] = faces
    area, sx, sy, polar = np.add.accumulate(moments, axis=1)[:, -1].tolist()
    if area <= 0.0:
        raise ValidationError("net has zero area")
    cx = sx / area
    cy = sy / area
    rg_sq = polar / area - (cx * cx + cy * cy)
    return (cx, cy), math.sqrt(max(rg_sq, 0.0))


def _face_moments(layout: NetLayout) -> np.ndarray:
    """Each face's area, first moments and polar moment about the origin,
    as a (4, faces) array, from shoelace sums.

    The polygons of one size are summed together, each along its own row,
    which gives every polygon the sums it would get on its own.
    """
    tables = layout.tables
    points = layout.points
    (x, y), (x1, y1) = points.T, points[tables.successor].T
    cross = x * y1 - x1 * y
    terms = np.stack((
        cross,
        (x + x1) * cross,
        (y + y1) * cross,
        (y * y + y * y1 + y1 * y1) * cross,
        (x * x + x * x1 + x1 * x1) * cross,
    ))
    sums = np.empty((5, len(tables.counts)))
    for faces, rows in tables.sizes:
        # `take` returns C-ordered rows, which numpy sums pairwise as it does
        # one polygon's 1D array; terms[:, index] is laid out otherwise, and
        # its rows of 8 or more are summed in another order
        sums[:, faces] = np.take(terms, rows, axis=1).sum(axis=2)
    if not (sums[0] / 2.0 > 0.0).all():
        raise ValidationError("outward-oriented faces must stay counter-clockwise")
    return np.array((sums[0] / 2.0, sums[1] / 6.0, sums[2] / 6.0, sums[3] / 12.0 + sums[4] / 12.0))


def _runs(sizes: np.ndarray) -> np.ndarray:
    """Start offsets of consecutive runs of the given sizes."""
    return np.cumsum(sizes) - sizes


def _product(n_left: np.ndarray, n_right: np.ndarray) -> tuple[np.ndarray, ...]:
    """(m, a, b) for every a < n_left[m] and b < n_right[m], by m, then row-major."""
    sizes = n_left * n_right
    group = np.repeat(np.arange(len(sizes)), sizes)
    k = np.arange(len(group)) - np.repeat(_runs(sizes), sizes)
    return group, k // n_right[group], k % n_right[group]


def _separated_hinges(layout: NetLayout, cols: np.ndarray, tol: float) -> np.ndarray:
    """The row-major pair ids of the hinges whose line separates parent and
    child.

    The parent runs its hinge edge counter-clockwise, so its own region lies
    left of that directed line.  When every vertex of the parent lies on or
    left of it and every vertex of the child on or right of it, both within
    `tol`, the line separates the two regions (each lies in the hull of its
    vertices), so they share no area.  That holds for a convex parent and a
    convex child folded out across their hinge, and fails for a child folded
    back over its parent or a parent that reaches across its hinge line.
    A hinge that is not one of the shell's is left to the full screen.
    """
    frames = _frames(layout.spec)
    ids = layout.hinge_ids
    ax, ay, dx, dy, length = cols[2:].take(frames.hinge_edges.take(ids)[:, None], axis=1)
    x, y = cols[2:4].take(frames.hinge_sides.take(ids, axis=0), axis=1)
    left = dx * (y - ay) - dy * (x - ax)
    width = left.shape[1] // 2
    parent_left = (left[:, :width] >= -tol * length).all(axis=1)
    child_right = (left[:, width:] <= tol * length).all(axis=1)
    return frames.hinge_pairs.take(ids[parent_left & child_right])


@np.errstate(divide="ignore", invalid="ignore")
def check_overlap(layout: NetLayout) -> tuple[bool, Optional[tuple[int, int]]]:
    """Does any face pair intersect with positive area?

    Touching along a shared hinge segment or at a shared vertex is not
    overlap.  A positive-area intersection of simple polygons shows up as a
    proper edge crossing or as one polygon's probe point (vertex, centroid,
    or edge midpoint) strictly inside the other; both are tested with a
    tolerance of 1e-9 times the mean edge length, and two edges whose angle
    has a sine of at most 1e-9 are parallel and never cross.  Both tests run
    in one batch (`_screen_pairs`) over the rows of the layout's tables
    (`_Tables`) whose face pairs have meeting bounding boxes, less the
    hinged pairs their hinge line separates (`_separated_hinges`).  The
    witness is the first overlapping pair in row-major order: the lowest
    pair id either test hits.

    A pair's verdict reads only the net's tolerance, the two faces' points
    and whether one is the other's parent, across which hinge; the faces'
    paths fix all but the tolerance.  So a layout made by `unfold` keeps the
    verdict of each pair it screens under the tolerance and the two paths
    (`_Paths.verdicts`), and screens only the pairs not yet kept, while it
    still holds its paths' kept placements.
    """
    tables = layout.tables
    points = layout.points
    # per stacked point, the rows: end x and y, x, y, dx, dy and length of its edge
    cols = np.empty((7, len(points)))
    cols[2:4] = points.T
    cols[:2] = cols[2:4].take(tables.successor, axis=1)
    np.subtract(cols[:2], cols[2:4], out=cols[4:6])
    cols[6] = np.sqrt(cols[4] * cols[4] + cols[5] * cols[5])
    tol = RELATIVE_TOL * float(cols[6].mean())  # the layout's mean_edge_length()
    starts = tables.starts
    lo, top = np.minimum.reduceat(points, starts), np.maximum.reduceat(points, starts) + tol
    pair_i, pair_j = tables.pair_i, tables.pair_j
    # box sides compared pair by pair: an any() over a length-2 axis costs more
    apart = lo.take(pair_i, axis=0) > top.take(pair_j, axis=0)
    apart |= lo.take(pair_j, axis=0) > top.take(pair_i, axis=0)
    meet = ~(apart[:, 0] | apart[:, 1])
    hits = np.zeros(len(meet), dtype=bool)
    paths = _kept(layout)
    if paths is not None:
        pairs = np.flatnonzero(meet)
        ids = layout.path_ids
        keys = ids.take(pair_i.take(pairs)).astype(np.int64) << 32 | ids.take(pair_j.take(pairs))
        keys = keys.tolist()
        kept = paths.verdicts.setdefault(tol, {})
        known = np.fromiter(map(kept.get, keys, repeat(2)), dtype=np.int8, count=len(keys))
        hits[pairs[known == 1]] = True
        new = np.flatnonzero(known == 2)
        meet[pairs[known != 2]] = False
    if meet.any():
        if layout.hinge_ids.size:
            meet[_separated_hinges(layout, cols, tol)] = False
        hits |= _screen_pairs(tables, points, cols, meet, tol)
        if paths is not None:
            kept.update(zip([keys[k] for k in new.tolist()], hits[pairs[new]].tolist()))
    if not hits.any():
        return False, None
    first = int(hits.argmax())
    return True, (int(pair_i[first]), int(pair_j[first]))


def _screen_pairs(tables: _Tables, points: np.ndarray, cols: np.ndarray, meet: np.ndarray,
                  tol: float) -> np.ndarray:
    """Which of the face pairs marked in `meet` overlap, by pair id: the
    proper-crossing and strictly-inside tests of `check_overlap`, on the
    stacked points and their edge columns `cols`, for every row of those
    pairs."""
    hits = np.zeros(len(meet), dtype=bool)
    # every edge of face i against every edge of face j
    rows = np.flatnonzero(meet.take(tables.cross_pair))
    x1, y1, d1x, d1y, l1 = cols[2:].take(tables.cross_e1.take(rows), axis=1)
    x2, y2, d2x, d2y, l2 = cols[2:].take(tables.cross_e2.take(rows), axis=1)
    rx, ry = x2 - x1, y2 - y1
    denom = d1x * d2y - d1y * d2x
    t = (rx * d2y - ry * d2x) / denom
    s = (rx * d1y - ry * d1x) / denom
    eps = tol / np.maximum(l1, l2)
    skew = np.abs(denom) > RELATIVE_TOL * l1 * l2
    crossed = np.flatnonzero(skew & (eps < t) & (t < 1.0 - eps) & (eps < s) & (s < 1.0 - eps))
    hits[tables.cross_pair.take(rows.take(crossed))] = True

    # every probe of each face against every edge of the other: a probe is
    # inside when a ray from it crosses the other face's boundary an odd
    # number of times and it is near none of that face's edges
    centroids = np.add.reduceat(points, tables.starts) / tables.counts[:, None]
    probe_xy = np.concatenate((cols[2:4], (cols[2:4] + cols[:2]) / 2.0, centroids.T), axis=1)
    for pair, probe, edges in tables.probes:
        groups = np.flatnonzero(meet.take(pair))
        x, y = probe_xy.take(probe.take(groups), axis=1)
        at = cols[1:6].take(edges.take(groups, axis=1), axis=1)
        by, ax, ay, dx, dy = at
        parity = ((ay > y) != (by > y)) & (x < ax + (y - ay) * dx / dy)
        odd = np.flatnonzero(np.logical_xor.reduce(parity))
        if odd.size:
            # the distance test, on the groups of odd parity only
            x, y, (_, ax, ay, dx, dy) = x.take(odd), y.take(odd), at.take(odd, axis=2)
            ll = dx * dx + dy * dy
            along = np.where(ll != 0.0, ((x - ax) * dx + (y - ay) * dy) / ll, 0.0)
            along = np.minimum(np.maximum(along, 0.0), 1.0)
            near = (x - (ax + along * dx)) ** 2 + (y - (ay + along * dy)) ** 2 <= tol * tol
            inside = np.flatnonzero(~np.logical_or.reduce(near))
            hits[pair.take(groups.take(odd.take(inside)))] = True
    return hits


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
        _, rg = centroid_and_rg(layout)
        overlapping, witness = check_overlap(layout)
        entries.append((rg, tuple(int(e) for e in edge_ids), orbit_size, layout, overlapping, witness))
    entries.sort(key=lambda it: (it[0], it[1]))
    return [
        RankedNet(
            cut=cut, orbit_size=orbit, layout=layout, radius_of_gyration=rg,
            overlapping=overlapping, overlap_witness=witness, rank=k + 1,
        )
        for k, (rg, cut, orbit, layout, overlapping, witness) in enumerate(entries)
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
