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
also keeps whether its face passed the isometry check, its face moments, its
edge columns and its box and centroid, and each pair of paths the overlap
verdict of the two faces under each net tolerance met.  `unfold` records
each face's path id in its layout (`NetLayout.path_ids`), and
`centroid_and_rg` and `check_overlap` read the kept state only while the
layout's points are still the kept placements bit for bit; any other layout
gets the full computation, with the same result.

So that each of the three per-net calls costs a fixed handful of numpy
calls, the per-net work outside numpy is plain Python over small ints: the
walk reads edge and hinge ids and the leaves come from a degree count over
the cut.  `rank_nets` unfolds its nets in blocks, and before it measures
and screens them one by one it keeps in one batch all they will read: their
paths' columns, boxes and moments, the verdicts of their meeting face pairs
and each net's overlap answer.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass, field, fields
from itertools import islice
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


class _FaceViews:
    """`NetLayout.polygons`: the faces' views of the layout's `points`, cut
    the first time they are read and kept from then on.  The layout's field
    holds None until then, in its place among the fields, so that reading
    it adds no attribute."""

    def __get__(self, layout, owner=None):
        if layout is None:
            # the dataclass reads the class attribute as a default; there is none
            raise AttributeError("polygons")
        views = layout.__dict__["polygons"]
        if views is None:
            views = layout.__dict__["polygons"] = tuple(layout.points[s] for s in layout.tables.slices)
        return views

    def __set__(self, layout, polygons) -> None:
        layout.__dict__["polygons"] = polygons


@dataclass(frozen=True, eq=False)
class NetLayout:
    """A cut unfolded into the plane.

    The polygons are views, face by face, of one stacked (P, 2) array,
    `points`, made here from the polygons given (`unfold` hands over the
    stack it filled instead, through `_stacked`); the views are cut when
    `polygons` is first read (`_FaceViews`).  `tables` index that stack
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
    polygons: tuple[np.ndarray, ...] = _FaceViews()
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
        object.__setattr__(self, "polygons", None)
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
        Nothing is stacked again, and the polygons are cut when read."""
        values["polygons"] = None
        layout = object.__new__(cls)
        attributes = layout.__dict__
        # set in field order, as __init__ and __post_init__ set them, so
        # that every layout's attributes share one dict of keys; a field
        # missing from `values` raises KeyError
        for name in _FIELDS:
            attributes[name] = values.pop(name)
        if values:
            raise TypeError(f"NetLayout has no fields {sorted(values)}")
        return layout

    def mean_edge_length(self) -> float:
        points = self.points
        return float(np.linalg.norm(points[self.tables.successor] - points, axis=1).mean())


_FIELDS = tuple(f.name for f in fields(NetLayout))
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
    # Newell normal: proportional to the outward normal for an outward cycle.
    # The cross products are written out as np.cross forms them, each
    # component one product less another, so the bits are np.cross's
    (x, y, z), (x1, y1, z1) = points.T, np.concatenate((points[1:], points[:1])).T
    normal = np.sum(np.stack((y * z1 - z * y1, z * x1 - x * z1, x * y1 - y * x1), axis=1), axis=0)
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
    (n0, n1, n2), (a0, a1, a2) = normal.tolist(), x_axis.tolist()
    y_axis = np.array((n1 * a2 - n2 * a1, n2 * a0 - n0 * a2, n0 * a1 - n1 * a0))
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
    of their points, one face to a row (`_size_groups`).

    Face pairs i < j are numbered in row-major order: pair q is faces
    (`pair_i[q]`, `pair_j[q]`), the tuple `pair_faces[q]`.  Against a
    flattened (6, faces) array of face boxes (`_face_boxes`),
    `box_near[:, q]` indexes the low x and y of face i and then of face j,
    and `box_far[:, q]` the high x and y of face j and then of face i: the
    pair's boxes are apart when a near side exceeds its far side.  The
    screen's rows come sorted by pair, and `pair_rows[q]` counts pair q's:
    - a crossing row pairs edge `cross_e1` of face i with edge `cross_e2` of
      face j; pair q's rows run from `cross_first[q]`, `cross_count[q]` of
      them;
    - a probe group pairs one probe of one face with every edge of the
      other: for each pair, each probe of face i against face j, then each
      probe of face j against face i.  The probes stack as the points, the
      edge midpoints and the face centroids, and a face's probes are taken
      in the order vertices, edge midpoints, centroid.  `probes` holds one
      block per size n of the faces probed, as (first, count, probe,
      edges): pair q's groups run from `first[q]`, `count[q]` of them, and
      each group holds its probe's index in the stack and the stacked
      indices of its edges, an (n, groups) array.
    """

    counts: np.ndarray
    starts: np.ndarray
    slices: tuple[slice, ...]
    successor: np.ndarray
    sizes: tuple[tuple[np.ndarray, np.ndarray], ...]
    pair_i: np.ndarray
    pair_j: np.ndarray
    pair_faces: list[tuple[int, int]]
    box_near: np.ndarray
    box_far: np.ndarray
    pair_rows: np.ndarray
    cross_e1: np.ndarray
    cross_e2: np.ndarray
    cross_first: np.ndarray
    cross_count: np.ndarray
    probes: tuple[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray], ...]


def _tables(counts: np.ndarray) -> _Tables:
    """The `_Tables` of polygons of the given sizes."""
    starts = _runs(counts)
    n_faces = len(counts)
    pair_i, pair_j = np.triu_indices(n_faces, 1)
    n_pairs, n_i, n_j = len(pair_i), counts[pair_i], counts[pair_j]
    cross_pair, a, b = _product(n_i, n_j)
    # every probe of each pair, i's against j and then j's against i
    src = np.column_stack((pair_i, pair_j)).ravel()
    dst = np.column_stack((pair_j, pair_i)).ravel()
    m, p, _ = _product(2 * counts[src] + 1, np.ones_like(src))
    # in probe order, face f's probes sit from row 2 * starts[f] + f
    owner = np.repeat(np.arange(n_faces), counts)
    order = np.argsort(np.concatenate((owner, owner, np.arange(n_faces))), kind="stable")
    probe, dst = order[2 * starts[src][m] + src[m] + p], dst[m]
    probes = []
    for n in sorted(set(counts.tolist())):
        block = np.flatnonzero(counts[dst] == n)
        pair = m[block] // 2  # ascending
        probes.append((np.searchsorted(pair, np.arange(n_pairs)), np.bincount(pair, minlength=n_pairs),
                       probe[block], np.arange(n)[:, None] + starts[dst[block]]))
    return _Tables(
        counts=counts,
        starts=starts,
        slices=tuple(slice(s, s + n) for s, n in zip(starts.tolist(), counts.tolist())),
        successor=_successor(counts),
        sizes=_size_groups(counts, starts),
        pair_i=pair_i,
        pair_j=pair_j,
        pair_faces=list(zip(pair_i.tolist(), pair_j.tolist())),
        box_near=np.stack((pair_i, n_faces + pair_i, pair_j, n_faces + pair_j)),
        box_far=np.stack((2 * n_faces + pair_j, 3 * n_faces + pair_j, 2 * n_faces + pair_i, 3 * n_faces + pair_i)),
        # the crossing rows, then the probe rows of face i and of face j
        pair_rows=5 * n_i * n_j + n_i + n_j,
        cross_e1=starts[pair_i][cross_pair] + a,
        cross_e2=starts[pair_j][cross_pair] + b,
        cross_first=_runs(n_i * n_j),
        cross_count=n_i * n_j,
        probes=tuple(probes),
    )


def _size_groups(counts: np.ndarray, starts: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """For each size n of the stacked polygons, face f's points from row
    `starts[f]`, the polygons of that size and the rows of their points, an
    (polygons, n) array."""
    groups = []
    for n in sorted(set(counts.tolist())):
        faces = np.flatnonzero(counts == n)
        groups.append((faces, starts[faces, None] + np.arange(n)))
    return tuple(groups)


# PolyhedronSpec compares by identity, so each spec object keeps its own frames.
_FRAMES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


class _Frames(NamedTuple):
    """What `unfold` and the screen need of a shell whatever the cut, made
    once per spec.

    Edge e is `edges[e]`; the ids follow the sorted edges, as a shell
    graph's do (`build_shell_graph`), and `edge_ids` maps each edge, either
    way round, to its id.  `n_interior` counts the edges that border two
    faces, `boundary` holds the ids of the others, and `edge_faces[e]` holds
    the two faces ((-1, -1) for an edge of fewer than two faces, which border
    `n_edge_faces[e]`).

    `links[f]` lists face f's neighbours across shared edges, ascending by
    neighbour (ties in edge-table order), as (child, e, h): the child, the
    shared edge's id and the hinge's id.  Hinge h is `hinges[h]`, the tuple
    (parent, child, edge), and `hinge_ids` maps that tuple back to h.
    `moves[h]` holds what placing the child takes, as (iu, iv, rel, d, dx,
    dy, length): iu and iv are the places in the parent of the edge's ends
    u < v, rel is the child's 2D coordinates less those of u, d = (dx, dy)
    the vector u -> v in the child's coordinates and length its norm.

    The points of a placed net are stacked face by face in face order, as
    `tables` index them, and `lengths` holds the 3D length of each face edge.
    `marker_at[e, o]` holds the stacked indices of end o of edge e in the
    edge's lower and higher face, then of its other end in the same two
    faces.

    For hinge h, `hinge_pairs[h]` is the row-major id of its two faces
    (`_Tables`), `hinge_edges[h]` the stacked index of the edge in the
    parent (which runs it counter-clockwise) and `hinge_sides[h]` the
    stacked indices of every vertex of the parent and then of the child,
    each face padded to the largest face size by repeating its first vertex.
    """

    coords: tuple[np.ndarray, ...]
    edges: tuple[Edge, ...]
    edge_ids: dict[Edge, int]
    n_interior: int
    boundary: frozenset[int]
    n_edge_faces: list[int]
    edge_faces: list[tuple[int, int]]
    tol: float
    links: tuple[tuple[tuple[int, int, int], ...], ...]
    tables: _Tables
    lengths: np.ndarray
    marker_at: np.ndarray
    hinges: tuple[tuple[int, int, Edge], ...]
    hinge_ids: dict[tuple[int, int, Edge], int]
    moves: tuple[tuple, ...]
    hinge_pairs: np.ndarray
    hinge_edges: np.ndarray
    hinge_sides: np.ndarray


def _frames(spec: PolyhedronSpec) -> _Frames:
    """The shell's `_Frames`, made on first use."""
    frames = _FRAMES.get(spec)
    if frames is None:
        table = edge_face_table(spec)
        edges = tuple(sorted(table))
        edge_ids = {edge: e for e, edge in enumerate(edges)}
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
        marker_at = np.full((len(edges), 2, 4), -1, dtype=np.intp)
        edge_faces = [(-1, -1)] * len(edges)
        hinges, moves, hinge_pairs, hinge_edges, hinge_sides = [], [], [], [], []
        for edge, faces in table.items():
            if len(faces) != 2:
                continue
            e = edge_ids[edge]
            u, v = edge
            a, b = faces
            at = [int(starts[f] + slots[f, w]) for w in edge for f in (a, b)]
            marker_at[e] = (at, at[2:] + at[:2])
            edge_faces[e] = (a, b)
            for parent, child in ((a, b), (b, a)):
                local = coords[child]
                lu = local[slots[child, u]]
                d = local[slots[child, v]] - lu
                iu, iv = int(slots[parent, u]), int(slots[parent, v])
                links[parent].append((child, e, len(hinges)))
                hinges.append((parent, child, edge))
                moves.append((iu, iv, local - lu, d, *d.tolist(), float(np.linalg.norm(d))))
                hinge_pairs.append(pair_ids[a, b])
                hinge_edges.append(int(starts[parent]) + (iu if iv == (iu + 1) % counts[parent] else iv))
                hinge_sides.append(vertex_rows[parent] + vertex_rows[child])
        frames = _FRAMES[spec] = _Frames(
            coords=coords,
            edges=edges,
            edge_ids={**edge_ids, **{(v, u): e for (u, v), e in edge_ids.items()}},
            n_interior=sum(len(faces) == 2 for faces in table.values()),
            boundary=frozenset(e for e, edge in enumerate(edges) if len(table[edge]) != 2),
            n_edge_faces=[len(table[edge]) for edge in edges],
            edge_faces=edge_faces,
            tol=RELATIVE_TOL * scale,
            links=tuple(tuple(sorted(link, key=lambda it: it[0])) for link in links),
            tables=tables,
            lengths=np.linalg.norm(points[tables.successor] - points, axis=1),
            marker_at=marker_at,
            hinges=tuple(hinges),
            hinge_ids={hinge: h for h, hinge in enumerate(hinges)},
            moves=tuple(moves),
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
    - `placed[p * stride + h]` is the path id of the child reached from a
      parent on path p across hinge h (`_Frames.hinges`); `stride` is the
      shell's number of hinges.
    - `points` stacks the placed points of every path met, path p's from
      row `first[p]` (-1 for a root not met yet), in the face's order, and
      `cols[:, k]` holds the edge columns of row k (`_edge_columns`).
    - `boxes[:, p]` holds path p's face box and centroid (`_face_boxes`).
    - `markers[(e, o, pa, pb)]` is the `Marker` of the leaf at end o of cut
      edge e whose lower and higher face are on paths pa and pb.
    - `unchecked` holds the paths whose face has not passed
      `_check_isometric`.
    - `moments[:, p]` holds the face's area, first moments and polar moment
      (`_face_moments`) if it has passed the orientation check, and a zero
      area if it has failed it or is not worked out yet.
    - `verdicts[tol][pi << 32 | pj]` tells whether the faces on paths pi and
      pj (pi's face the lower) overlap in a net of tolerance tol, for each
      pair that was screened: one whose boxes meet.
    - `answers[layout]` is the `check_overlap` answer of a layout of a
      block screened together (`_screen_block`), until that call takes it.
    A path's columns, box and moments are the same elementwise operations
    and face reductions a net's stack gets, so a net's gather of them has
    the bits the net's own would have.  They are worked out for the paths
    added since the last `settle`, all in one go, before the state is read
    (`_kept`).  Ids are handed out as entries are added, so one spec's nets
    are unfolded one at a time.  `rank_nets` unfolds a block of nets, then
    settles the paths the block added and screens the block (`_screen_block`),
    keeping the verdicts of the pairs it meets and has not kept and each
    net's answer, and then measures and screens each net, which finds all
    it reads kept.
    """

    def __init__(self, tables: _Tables, stride: int) -> None:
        n_faces, n_points = len(tables.counts), len(tables.successor)
        self.placed: dict[int, int] = {}
        self.stride = stride
        self.markers: dict[tuple[int, int, int, int], Marker] = {}
        self.points = np.empty((2 * n_points, 2))
        self.cols = np.empty((9, 2 * n_points))
        self.n_rows = 0
        self.first = np.full(2 * n_faces, -1, dtype=np.intp)
        self.boxes = np.zeros((6, 2 * n_faces))
        self.unchecked: set[int] = set()
        self.moments = np.zeros((4, 2 * n_faces))
        self.verdicts: dict[float, dict[int, bool]] = {}
        self.answers: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._new: list[tuple[int, int]] = []  # (path, size) added since the last settle
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
            self.cols = _widened(self.cols, 2 * end, 0.0)
        if path >= len(self.first):
            size = 2 * len(self.first)
            self.first = _widened(self.first, size, -1)
            self.boxes = _widened(self.boxes, size, 0.0)
            self.moments = _widened(self.moments, size, 0.0)
        self.points[start:end] = placed
        self.first[path] = start
        self.n_rows = end
        self.unchecked.add(path)
        self._new.append((path, len(placed)))

    def settle(self) -> None:
        """Work out the edge columns, boxes and moments of the paths added
        since the last call, which sit in the last rows; a path whose face
        fails the orientation check keeps a zero area."""
        if self._new:
            ids, sizes = map(np.array, zip(*self._new))
            self._new.clear()
            start = self.n_rows - int(sizes.sum())
            block, firsts, successor = self.points[start:self.n_rows], _runs(sizes), _successor(sizes)
            self.cols[:, start:self.n_rows] = _edge_columns(block, successor)
            self.boxes[:, ids] = _face_boxes(block, firsts, sizes)
            moments, ccw = _face_moments(block, successor, _size_groups(sizes, firsts))
            self.moments[:, ids[ccw]] = moments[:, ccw]

    def rows(self, ids: np.ndarray) -> np.ndarray:
        """The rows of the kept points of a net whose faces are on paths
        `ids`, in stacked order; for nets on the rows of `ids`, one row of
        rows each."""
        return self.first.take(ids).take(self._owner, axis=-1) + self._offset


def _widened(array: np.ndarray, size: int, fill) -> np.ndarray:
    """A copy of `array` with its last axis grown to `size`, the new places
    set to `fill`."""
    wide = np.full(array.shape[:-1] + (size,), fill, dtype=array.dtype)
    wide[..., :array.shape[-1]] = array
    return wide


# Freed with the spec, like `_FRAMES`.
_PATHS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _kept(layout: NetLayout) -> tuple[Optional[_Paths], Optional[np.ndarray]]:
    """The path state of the layout's shell, settled, and the rows of its
    kept points that make up the layout's, when the layout holds its faces'
    kept placements bit for bit; (None, None) for a layout not made by
    `unfold` or written into since."""
    ids = layout.path_ids
    if not ids.size:
        return None, None
    paths = _PATHS[layout.spec]
    paths.settle()
    rows = paths.rows(ids)
    if paths.points.take(rows, axis=0).tobytes() != layout.points.tobytes():
        return None, None
    return paths, rows


def _edge_ids(frames: _Frames, cut: Sequence[Edge]) -> list[int]:
    """The ids of the cut's edges, from pairs of vertices of any kind; an
    edge that is not the shell's fails."""
    cut_edges = {canon_edge(u, v) for u, v in cut}
    unknown = cut_edges - frames.edge_ids.keys()
    if unknown:
        raise ValidationError(f"cut edges not on the shell: {sorted(unknown)}")
    return [frames.edge_ids[edge] for edge in cut_edges]


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
    The walk reads plain ints only: edge and hinge ids, the cut as a flag
    per edge id and the path ids.  The net's points are one gather of its
    paths' kept points, and the isometry check runs only while one of its
    paths has not passed it.  The cache is freed with the spec and holds one
    entry per distinct path: 196 placements for the 399 nets of the
    truncated cube.
    """
    spec.require_geometry()
    frames = _frames(spec)
    edge_ids = frames.edge_ids
    try:
        ids = [edge_ids[edge] for edge in cut]
    except (KeyError, TypeError):  # an edge not given as a tuple, or not the shell's
        ids = _edge_ids(frames, cut)
    cut_set = set(ids)
    cut_ids = sorted(cut_set)
    is_cut = [False] * len(frames.edges)
    for e in cut_ids:
        is_cut[e] = True

    n_faces = spec.n_faces
    n_hinges = frames.n_interior - len(cut_set) + len(frames.boundary & cut_set)
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
        paths = _PATHS[spec] = _Paths(frames.tables, len(frames.hinges))
    if paths.first[root] < 0:
        paths.add(root, frames.coords[root])
    placements, stride, links = paths.placed, paths.stride, frames.links
    path = [-1] * n_faces
    path[root] = root
    hinge_ids: list[int] = []
    order = [root]
    for parent in order:  # breadth first: a child joins the end of `order`
        on = path[parent]
        at = on * stride
        for child, e, h in links[parent]:
            if is_cut[e] or path[child] >= 0:
                continue
            placed = placements.get(at + h)
            if placed is None:
                placed = _place(paths, frames, on, h)
            path[child] = placed
            hinge_ids.append(h)
            order.append(child)
    if len(order) < n_faces:
        missing = [f for f in range(n_faces) if path[f] < 0]
        raise ValidationError(f"hinge tree does not reach faces {missing}")

    path_ids = np.array(path, dtype=np.int32)
    points = paths.points.take(paths.rows(path_ids), axis=0)
    if paths.unchecked and not paths.unchecked.isdisjoint(path):
        _check_isometric(points, frames)
        paths.unchecked.difference_update(path)

    # one marker per leaf of the sorted cut, in cut order, an edge's lower end
    # first; both faces of each leaf's cut edge must place it at one point
    edges = frames.edges
    cut = tuple([edges[e] for e in cut_ids])
    markers: tuple[Marker, ...] = ()
    if cut:
        degree = [0] * spec.n_vertices
        for u, v in cut:
            degree[u] += 1
            degree[v] += 1
        edge_faces = frames.edge_faces
        keys = []
        for e, (u, v) in zip(cut_ids, cut):
            if degree[u] == 1 or degree[v] == 1:
                # an edge of fewer than two faces gets a key that is never kept: it fails below
                a, b = edge_faces[e]
                if degree[u] == 1:
                    keys.append((e, 0, path[a], path[b]))
                if degree[v] == 1:
                    keys.append((e, 1, path[a], path[b]))
        kept = paths.markers
        markers = tuple(map(kept.get, keys))
        if None in markers:
            _keep_markers(frames, kept, points, [key for key, marker in zip(keys, markers) if marker is None])
            markers = tuple(map(kept.__getitem__, keys))
    # the kept verdicts stand for these hinges and paths, so neither may change
    hinges = tuple([frames.hinges[h] for h in hinge_ids])
    hinge_ids = np.array(hinge_ids, dtype=np.intp)
    hinge_ids.flags.writeable = path_ids.flags.writeable = False
    return NetLayout._stacked(spec=spec, cut=cut, root_face=root, hinges=hinges,
                              markers=markers, points=points, tables=frames.tables, hinge_ids=hinge_ids,
                              path_ids=path_ids)


def _place(paths: _Paths, frames: _Frames, on: int, h: int) -> int:
    """Place the child across hinge h from its parent on path `on`, keep it
    under a new path id, and return that id."""
    iu, iv, rel, d, dx, dy, length = frames.moves[h]
    start = paths.first[on]
    pu = paths.points[start + iu]
    target = paths.points[start + iv] - pu
    if not math.isclose(length, math.sqrt(float(target @ target)), rel_tol=1e-9, abs_tol=frames.tol):
        raise ValidationError(f"hinge edge {frames.hinges[h][2]} changes length between faces")
    tx, ty = target.tolist()
    cos_t = float(d @ target) / (length * length)
    sin_t = (dx * ty - dy * tx) / (length * length)
    rot = np.array([[cos_t, -sin_t], [sin_t, cos_t]])
    placed = len(frames.coords) + len(paths.placed)
    paths.add(placed, rel @ rot.T + pu)
    paths.placed[on * paths.stride + h] = placed
    return placed


def _keep_markers(frames: _Frames, kept: dict, points: np.ndarray, keys: list[tuple[int, int, int, int]]) -> None:
    """Check and keep the markers of the given keys (`_Paths.markers`), for
    a net of the given points."""
    edges = frames.edges
    ids, sides = np.array([key[:2] for key in keys], dtype=np.intp).T
    at = points[frames.marker_at[ids, sides]]
    two = np.array([frames.n_edge_faces[e] == 2 for e, *_ in keys])
    bad = np.flatnonzero(~two | (np.linalg.norm(at[:, 0] - at[:, 1], axis=1) > frames.tol))
    if bad.size:
        k = int(bad[0])
        e, o = keys[k][:2]
        if not two[k]:
            raise ValidationError(f"cut edge {edges[e]} of leaf {edges[e][o]} borders "
                                  f"{frames.n_edge_faces[e]} faces")
        raise ValidationError(f"leaf {edges[e][o]} does not place coincidently: {at[k, 0]} vs {at[k, 1]}")
    for key, (pa, _, qa, qb) in zip(keys, at.tolist()):
        edge, o = edges[key[0]], key[1]
        kept[key] = Marker(vertex=edge[o], far_vertex=edge[1 - o], point=tuple(pa),
                           far_points=(tuple(qa), tuple(qb)))


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
    paths, _ = _kept(layout)
    faces = None if paths is None else paths.moments.take(layout.path_ids, axis=1)
    if faces is None or not (faces[0] > 0.0).all():
        # a layout of its own, or one with a face that failed the orientation check
        tables = layout.tables
        faces, ccw = _face_moments(layout.points, tables.successor, tables.sizes)
        if not ccw.all():
            raise ValidationError("outward-oriented faces must stay counter-clockwise")
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


def _face_moments(points: np.ndarray, successor: np.ndarray,
                  sizes: tuple[tuple[np.ndarray, np.ndarray], ...]) -> tuple[np.ndarray, np.ndarray]:
    """Each face's area, first moments and polar moment about the origin,
    as a (4, faces) array, from shoelace sums, and whether each face is
    counter-clockwise: whether its area is positive.

    The faces are stacked polygons: `successor` maps each point to the next
    of its face and `sizes` groups the faces by size (`_size_groups`).  The
    polygons of one size are summed together, each along its own row, which
    gives every polygon the sums it would get on its own.
    """
    (x, y), (x1, y1) = points.T, points[successor].T
    cross = x * y1 - x1 * y
    terms = np.stack((
        cross,
        (x + x1) * cross,
        (y + y1) * cross,
        (y * y + y * y1 + y1 * y1) * cross,
        (x * x + x * x1 + x1 * x1) * cross,
    ))
    sums = np.empty((5, sum(len(faces) for faces, _ in sizes)))
    for faces, rows in sizes:
        # `take` returns C-ordered rows, which numpy sums pairwise as it does
        # one polygon's 1D array; terms[:, index] is laid out otherwise, and
        # its rows of 8 or more are summed in another order
        sums[:, faces] = np.take(terms, rows, axis=1).sum(axis=2)
    area = sums[0] / 2.0
    return np.array((area, sums[1] / 6.0, sums[2] / 6.0, sums[3] / 12.0 + sums[4] / 12.0)), area > 0.0


def _runs(sizes: np.ndarray) -> np.ndarray:
    """Start offsets of consecutive runs of the given sizes."""
    return np.cumsum(sizes) - sizes


def _product(n_left: np.ndarray, n_right: np.ndarray) -> tuple[np.ndarray, ...]:
    """(m, a, b) for every a < n_left[m] and b < n_right[m], by m, then row-major."""
    sizes = n_left * n_right
    group = np.repeat(np.arange(len(sizes)), sizes)
    k = np.arange(len(group)) - np.repeat(_runs(sizes), sizes)
    return group, k // n_right[group], k % n_right[group]


def _edge_columns(points: np.ndarray, successor: np.ndarray) -> np.ndarray:
    """Per stacked point, the rows: end x and y, x, y, dx, dy and length of
    its edge, and its edge's midpoint x and y; `successor` maps each point
    to the next of its face (`_successor`)."""
    cols = np.empty((9, len(points)))
    cols[2:4] = points.T
    cols[:2] = cols[2:4].take(successor, axis=1)
    np.subtract(cols[:2], cols[2:4], out=cols[4:6])
    cols[6] = np.sqrt(cols[4] * cols[4] + cols[5] * cols[5])
    np.add(cols[2:4], cols[:2], out=cols[7:9])
    cols[7:9] /= 2.0
    return cols


def _face_boxes(points: np.ndarray, starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per face of the stacked points, face f's from row `starts[f]`, the
    rows: low x and y, high x and y, and centroid x and y."""
    boxes = np.empty((6, len(counts)))
    boxes[:2] = np.minimum.reduceat(points, starts).T
    boxes[2:4] = np.maximum.reduceat(points, starts).T
    boxes[4:] = (np.add.reduceat(points, starts) / counts[:, None]).T
    return boxes


def _spans(first: np.ndarray, count: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, i) for every i from `first[k]` up to `first[k] + count[k]`, by k."""
    k = np.repeat(np.arange(len(count)), count)
    return k, np.arange(len(k)) + np.repeat(first - _runs(count), count)


def _tolerances(lengths: np.ndarray) -> np.ndarray:
    """The overlap tolerance of each net whose placed edge lengths are the
    rows of `lengths`: RELATIVE_TOL times its mean_edge_length(), as the sum
    and division ndarray.mean() makes."""
    return RELATIVE_TOL * (np.add.reduce(lengths, axis=1) / lengths.shape[1])


def _meeting(tables: _Tables, boxes: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Which face pairs have meeting boxes, for nets whose face boxes
    (`_face_boxes`) are the columns of `boxes`, a flattened (6, faces, nets)
    array, and whose tolerances are `tol`: a (pairs, nets) array."""
    n_pairs, n_nets = tables.box_near.shape[1], boxes.shape[1]
    meet = np.empty((n_pairs, n_nets), dtype=bool)
    # in runs of pairs, so that the temporaries of a block of nets stay small
    step = max(1, _BOX_CELLS // n_nets)
    for start in range(0, n_pairs, step):
        # two boxes are apart when a low side of one lies beyond a high side of the other
        far = boxes.take(tables.box_far[:, start:start + step], axis=0)
        far += tol
        apart = np.logical_or.reduce(boxes.take(tables.box_near[:, start:start + step], axis=0) > far, axis=0)
        np.logical_not(apart, out=meet[start:start + step])
    return meet


# The (pair, net) cells of one run of `_meeting`.  The whole box test of a
# block of 32 rhombicuboctahedron nets in one run (two (4, 325, 32) float
# gathers) lifts `rank`'s peak RSS by about 0.6 MiB.
_BOX_CELLS = 1 << 11


def _separated_hinges(frames: _Frames, cols: np.ndarray, rowmap: np.ndarray, net: np.ndarray,
                      hinge: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Whether the line of hinge `hinge[k]` (`_Frames.hinges`) of net
    `net[k]` separates its parent and child, for each k.

    Row k of net n's stack is row `rowmap[n, k]` of the edge columns `cols`
    (`_edge_columns`), and `tol[n]` is net n's tolerance.  The parent runs
    its hinge edge counter-clockwise, so its own region lies left of that
    directed line.  When every vertex of the parent lies on or left of it
    and every vertex of the child on or right of it, both within the
    tolerance, the line separates the two regions (each lies in the hull of
    its vertices), so they share no area.  That holds for a convex parent and
    a convex child folded out across their hinge, and fails for a child
    folded back over its parent or a parent that reaches across its hinge
    line.
    """
    ax, ay, dx, dy, length = cols[2:7].take(rowmap[net, frames.hinge_edges.take(hinge)][:, None], axis=1)
    x, y = cols[2:4].take(rowmap[net[:, None], frames.hinge_sides.take(hinge, axis=0)], axis=1)
    left = dx * (y - ay) - dy * (x - ax)
    width = left.shape[1] // 2
    margin = tol.take(net)[:, None] * length
    parent_left = (left[:, :width] >= -margin).all(axis=1)
    child_right = (left[:, width:] <= margin).all(axis=1)
    return parent_left & child_right


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
    paths fix all but the tolerance.  So a layout made by `unfold` that
    still holds its paths' kept placements is screened as one of a block
    of nets (`_screen_block`), from its paths' edge columns and boxes
    (`_Paths.cols`, `boxes`), and each pair's verdict is kept under the
    tolerance and the two paths (`_Paths.verdicts`).  Within `rank_nets`
    the net's block was screened before this call, which takes the net's
    kept answer.  Any other such layout is screened as a block of one net,
    which screens only its pairs whose verdicts are not kept yet.
    """
    tables = layout.tables
    paths, _ = _kept(layout)
    if paths is not None:
        answer = paths.answers.pop(layout, None)
        if answer is None:
            _screen_block(paths, _frames(layout.spec), [layout])
            answer = paths.answers.pop(layout)
        return answer
    points = layout.points
    cols = _edge_columns(points, tables.successor)
    boxes = _face_boxes(points, tables.starts, tables.counts)
    tol = _tolerances(cols[6][None])
    screen = _meeting(tables, boxes.reshape(-1, 1), tol)[:, 0]
    rowmap = np.arange(len(points))[None]
    hinges = layout.hinge_ids
    if hinges.size:
        frames = _frames(layout.spec)
        separated = _separated_hinges(frames, cols, rowmap, np.zeros(len(hinges), dtype=np.intp), hinges, tol)
        screen[frames.hinge_pairs.take(hinges[separated])] = False
    pair = np.flatnonzero(screen)
    hits = _screen_jobs(tables, cols, boxes[4:], rowmap, np.arange(len(tables.counts))[None],
                        np.zeros(len(pair), dtype=np.intp), pair, tol)
    return (True, tables.pair_faces[int(pair[hits.argmax()])]) if hits.any() else (False, None)


def _screen_block(paths: _Paths, frames: _Frames, layouts: Sequence[NetLayout]) -> None:
    """Screen a block of layouts made by `unfold` from settled paths, and
    keep each layout's answer for its `check_overlap` (`_Paths.answers`).

    The face pairs of each net whose boxes meet are keyed by the net's
    tolerance and the pair's two paths.  A key's verdict is fixed by the
    key (`check_overlap`), so each key not kept yet (`_Paths.verdicts`) is
    screened once, in the first net of the block that has it
    (`_screen_keys`), and kept.  A net's answer is then its lowest meeting
    pair whose verdict is an overlap.
    """
    tables = frames.tables
    ids = np.stack([layout.path_ids for layout in layouts])
    rows = paths.rows(ids)
    tol = _tolerances(paths.cols[6].take(rows))
    values = sorted(set(tol.tolist()))
    kept = [paths.verdicts.setdefault(value, {}) for value in values]
    pair, net, place, level, keys = _block_keys(paths, frames, ids, tol, values)
    verdicts = [kept[lv].get(key) for lv, key in zip(level, keys)]
    new = [k for k, verdict in enumerate(verdicts) if verdict is None]
    if new:
        # the first entry of each new key, in the order of the box test
        is_new = np.zeros(len(keys), dtype=bool)
        is_new[new] = True
        hits = np.flatnonzero(is_new.take(place))
        hits = hits.take(np.argsort(place.take(hits), kind="stable"))
        first = hits[np.diff(place.take(hits), prepend=-1) != 0]
        hinges = np.stack([layout.hinge_ids for layout in layouts])
        screened = _screen_keys(paths, frames, ids, hinges, rows, tol, net.take(first), pair.take(first))
        for k, verdict in zip(new, screened.tolist()):
            kept[level[k]][keys[k]] = verdicts[k] = verdict
    # each net's lowest overlapping pair: the entries run by ascending pair,
    # so the first an entry of a net sets stands
    hit = np.flatnonzero(np.array(verdicts, dtype=bool).take(place))
    witness = dict(zip(net.take(hit)[::-1].tolist(), pair.take(hit)[::-1].tolist()))
    pair_faces = tables.pair_faces
    for n, layout in enumerate(layouts):
        q = witness.get(n)
        paths.answers[layout] = (False, None) if q is None else (True, pair_faces[q])


def _block_keys(paths: _Paths, frames: _Frames, ids: np.ndarray, tol: np.ndarray,
                values: list[float]) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int], list[int]]:
    """The entries of a block of nets (`_screen_block`), one per face pair
    whose boxes meet, in the order of the box test: their pairs and nets,
    and each entry's place among the block's distinct keys, which come as
    the place of their tolerance in `values` and their verdict key
    (`_Paths.verdicts`)."""
    tables = frames.tables
    # entry q * nets + n of the pair-major box test is pair q of net n
    boxes = paths.boxes.take(ids.T, axis=1).reshape(-1, len(ids))
    pair, net = np.divmod(np.flatnonzero(_meeting(tables, boxes, tol)), len(ids))
    # each entry's key as one int64: its tolerance's place, then the paths
    # of faces i and j, each below the number of path ids (which fits while
    # places * ids**2 < 2**63, as for 32 places and 2**28 ids)
    n_ids = len(frames.coords) + len(paths.placed)
    at = net * ids.shape[1]
    codes = np.searchsorted(values, tol).take(net) * n_ids + ids.take(at + tables.pair_i.take(pair))
    codes = codes * n_ids + ids.take(at + tables.pair_j.take(pair))
    met = np.sort(codes)
    met = met[np.diff(met, prepend=-1) != 0]
    level, path_i = np.divmod(met, n_ids * n_ids)
    path_i, path_j = np.divmod(path_i, n_ids)
    return pair, net, np.searchsorted(met, codes), level.tolist(), (path_i << 32 | path_j).tolist()


def _screen_keys(paths: _Paths, frames: _Frames, ids: np.ndarray, hinges: np.ndarray, rows: np.ndarray,
                 tol: np.ndarray, net: np.ndarray, pair: np.ndarray) -> np.ndarray:
    """Whether face pair `pair[k]` of net `net[k]` overlaps, for each k, in
    a block of nets whose faces are on paths `ids` and whose hinges are
    `hinges` (one net to a row), with kept points on `rows` (`_Paths.rows`)
    and tolerances `tol`.  A hinged pair its hinge line separates
    (`_separated_hinges`) does not overlap, and the rest go through one
    screen (`_screen_jobs`)."""
    tables = frames.tables
    # the hinge, if any, across which the two faces of each pair meet
    n_pairs = len(tables.pair_i)
    places = (np.arange(len(ids))[:, None] * n_pairs + frames.hinge_pairs.take(hinges)).ravel()
    order = np.argsort(places)
    places, at = places.take(order), net * n_pairs + pair
    found = np.searchsorted(places, at).clip(max=len(places) - 1)
    hinged = np.flatnonzero(places.take(found) == at)
    cols = paths.cols[:, :paths.n_rows]
    screen = np.ones(len(pair), dtype=bool)
    if hinged.size:
        hinge = hinges.take(order.take(found.take(hinged)))
        screen[hinged] = ~_separated_hinges(frames, cols, rows, net.take(hinged), hinge, tol)
    verdicts = np.zeros(len(pair), dtype=bool)
    verdicts[screen] = _screen_jobs(tables, cols, paths.boxes[4:], rows, ids, net[screen], pair[screen], tol)
    return verdicts


# A screen's rows, past which `_screen_jobs` starts another call.
_SCREEN_ROWS = 1 << 10


def _screen_jobs(tables: _Tables, cols: np.ndarray, centres: np.ndarray, rowmap: np.ndarray,
                 facemap: np.ndarray, net: np.ndarray, pair: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """`_screen_pairs` over the given jobs, in runs of about `_SCREEN_ROWS`
    rows (`_Tables.pair_rows`) so that its temporaries stay bounded: a run
    takes the jobs in order up to the first one that starts past its bound."""
    hits = np.zeros(len(pair), dtype=bool)
    if pair.size:
        rows = tables.pair_rows.take(pair)
        run = (np.cumsum(rows) - rows) // _SCREEN_ROWS
        bounds = [0, *(np.flatnonzero(np.diff(run)) + 1).tolist(), len(pair)]
        for start, end in zip(bounds, bounds[1:]):
            hits[start:end] = _screen_pairs(tables, cols, centres, rowmap, facemap, net[start:end],
                                            pair[start:end], tol)
    return hits


@np.errstate(divide="ignore", invalid="ignore")
def _screen_pairs(tables: _Tables, cols: np.ndarray, centres: np.ndarray, rowmap: np.ndarray,
                  facemap: np.ndarray, net: np.ndarray, pair: np.ndarray, tol: np.ndarray) -> np.ndarray:
    """Whether face pair `pair[k]` of net `net[k]` overlaps, for each k: the
    proper-crossing and strictly-inside tests of `check_overlap`, for every
    row of those pairs.

    Row k of net n's stack is row `rowmap[n, k]` of the edge columns `cols`
    (`_edge_columns`), the centroid of its face f is column `facemap[n, f]`
    of `centres`, a (2, ...) array, and `tol[n]` is its tolerance.
    """
    hits = np.zeros(len(pair), dtype=bool)
    # every edge of face i against every edge of face j
    job, row = _spans(tables.cross_first.take(pair), tables.cross_count.take(pair))
    at = net.take(job)
    x1, y1, d1x, d1y, l1 = cols[2:7].take(rowmap[at, tables.cross_e1.take(row)], axis=1)
    x2, y2, d2x, d2y, l2 = cols[2:7].take(rowmap[at, tables.cross_e2.take(row)], axis=1)
    rx, ry = x2 - x1, y2 - y1
    denom = d1x * d2y - d1y * d2x
    t = (rx * d2y - ry * d2x) / denom
    s = (rx * d1y - ry * d1x) / denom
    eps = tol.take(at) / np.maximum(l1, l2)
    skew = np.abs(denom) > RELATIVE_TOL * l1 * l2
    crossed = np.flatnonzero(skew & (eps < t) & (t < 1.0 - eps) & (eps < s) & (s < 1.0 - eps))
    hits[job.take(crossed)] = True

    # every probe of each face against every edge of the other: a probe is
    # inside when a ray from it crosses the other face's boundary an odd
    # number of times and it is near none of that face's edges
    n_cols = cols.shape[1]
    probe_xy = np.concatenate((cols[2:4], cols[7:9], centres), axis=1)
    probe_at = np.concatenate((rowmap, rowmap + n_cols, facemap + 2 * n_cols), axis=1)
    for first, count, probe, edges in tables.probes:
        job, group = _spans(first.take(pair), count.take(pair))
        at = net.take(job)
        x, y = probe_xy.take(probe_at[at, probe.take(group)], axis=1)
        ends = cols[1:6].take(rowmap[at, edges.take(group, axis=1)], axis=1)
        by, ax, ay, dx, dy = ends
        parity = ((ay > y) != (by > y)) & (x < ax + (y - ay) * dx / dy)
        odd = np.flatnonzero(np.logical_xor.reduce(parity))
        if odd.size:
            # the distance test, on the groups of odd parity only
            x, y, (_, ax, ay, dx, dy) = x.take(odd), y.take(odd), ends.take(odd, axis=2)
            ll = dx * dx + dy * dy
            along = np.where(ll != 0.0, ((x - ax) * dx + (y - ay) * dy) / ll, 0.0)
            along = np.minimum(np.maximum(along, 0.0), 1.0)
            reach = tol.take(at.take(odd))
            near = (x - (ax + along * dx)) ** 2 + (y - (ay + along * dy)) ** 2 <= reach * reach
            inside = np.flatnonzero(~np.logical_or.reduce(near))
            hits[job.take(odd.take(inside))] = True
    return hits


# The nets `rank_nets` unfolds before it screens them in one batch; the
# batch's temporaries grow with it.
_NET_BLOCK = 32


def rank_nets(
    spec: PolyhedronSpec,
    cuts: Sequence[tuple[tuple[int, ...], int]],
    graph,
) -> list[RankedNet]:
    """Unfold deduplicated cuts and rank them by radius of gyration.

    `cuts` holds (edge-id tuple, orbit size) pairs, the ids Python ints;
    edge ids refer to the canonical edge order of `graph`, the shell graph
    of `spec` (`build_shell_graph`).  Ranking is ascending in R_g with ties
    broken by the edge-id tuple, ranks 1-based.

    The cuts go in blocks of `_NET_BLOCK`.  A block's nets are unfolded in
    cut order; then one batch keeps what the block's per-net calls read
    (`_Paths`): the edge columns, boxes and moments of every hinge path the
    block added (`_Paths.settle`), the verdicts of the block's meeting face
    pairs not kept yet, screened together, and each net's overlap answer
    (`_screen_block`).  Then each net gets `centroid_and_rg` and
    `check_overlap`, in cut order, and finds its values kept.  If `unfold`
    fails, the block's earlier nets are measured and screened before the
    error is raised again, so the first error is the one a loop over the
    nets, one at a time, would meet.
    """
    edges = graph.edges
    entries = []
    todo = iter(cuts)
    while block := list(islice(todo, _NET_BLOCK)):
        layouts: list[NetLayout] = []
        failure = None
        for edge_ids, _ in block:
            try:
                layouts.append(unfold(spec, [edges[e] for e in edge_ids]))
            except Exception as error:  # raised below, after the nets before it
                failure = error
                break
        if layouts:
            paths = _PATHS[spec]
            paths.settle()
            _screen_block(paths, _frames(spec), layouts)
        for (edge_ids, orbit_size), layout in zip(block, layouts):
            _, rg = centroid_and_rg(layout)
            overlapping, witness = check_overlap(layout)
            entries.append((rg, tuple(edge_ids), orbit_size, layout, overlapping, witness))
        if failure is not None:
            raise failure
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
