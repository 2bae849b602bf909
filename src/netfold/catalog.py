"""Built-in catalog of 21 convex shells.

Coordinates come from standard constructions (sign/permutation families,
truncations, rectifications, polar duals); each face is recovered as the
vertices on a supporting plane through three vertices, and faces are
canonicalized so vertex and face numbering is deterministic.  Every entry
is validated against its expected vertex/edge/face counts at build time.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .errors import ValidationError
from .polyhedra import PolyhedronSpec
from .shellgraph import build_shell_graph

PHI = (1.0 + math.sqrt(5.0)) / 2.0
SQRT2 = math.sqrt(2.0)
# tribonacci constant, root of x^3 = x^2 + x + 1
TRIBONACCI = (1.0 + (19.0 + 3.0 * math.sqrt(33.0)) ** (1.0 / 3.0)
              + (19.0 - 3.0 * math.sqrt(33.0)) ** (1.0 / 3.0)) / 3.0

# a vertex within this fraction of the solid's radius of a plane lies on it
_PLANE_RTOL = 1e-9


def _faces_of_solid(points: np.ndarray) -> list[tuple[int, ...]]:
    """Faces of a convex solid as CCW-outside vertex cycles.

    Every plane through three vertices that has no vertex in front of it
    supports a face, and the face is the vertices on that plane.  A vertex on
    fewer than three faces lies inside a face or an edge, or inside the solid;
    two vertices on the same faces coincide.
    """
    n = len(points)
    centroid = points.mean(axis=0)
    radius = float(np.linalg.norm(points - centroid, axis=1).max())
    tol = _PLANE_RTOL * radius
    triples = np.fromiter(itertools.combinations(range(n), 3), np.dtype((np.intp, 3)), math.comb(n, 3))
    a, b, c = (points[triples[:, k]] for k in range(3))
    normals = np.cross(b - a, c - a)
    # twice each triangle's area; a collinear triple spans no plane
    area = np.linalg.norm(normals, axis=1)
    keep = area > tol * radius
    normals = normals[keep] / area[keep, None]
    a = a[keep]
    normals *= np.where(np.einsum("ij,ij->i", a - centroid, normals) < 0.0, -1.0, 1.0)[:, None]
    heights = points @ normals.T
    heights -= np.einsum("ij,ij->i", a, normals)
    supporting = ~(heights > tol).any(axis=0)
    on = np.abs(heights[:, supporting].T) <= tol
    members, first = np.unique(on, axis=0, return_index=True)
    if (members.sum(axis=0) < 3).any() or np.unique(members, axis=1).shape[1] < n:
        raise ValidationError("input points are not all extreme; not a convex solid")
    faces = []
    for row, normal in zip(members, normals[supporting][first]):
        idx = np.flatnonzero(row)
        q = points[idx] - points[idx].mean(axis=0)
        angle = np.arctan2(q @ np.cross(normal, q[0]), q @ q[0])
        faces.append(tuple(idx[np.argsort(angle)].tolist()))
    return faces


def _canonical_spec(name: str, points: np.ndarray) -> PolyhedronSpec:
    """Sort vertices, recover faces, and canonicalize face cycles."""
    pts = np.asarray(points, dtype=float)
    keys = [tuple(round(c, 9) for c in p) for p in pts]
    order = sorted(range(len(pts)), key=lambda i: keys[i])
    pts = pts[order]
    faces = _faces_of_solid(pts)
    canon_faces = []
    for f in faces:
        k = f.index(min(f))
        canon_faces.append(f[k:] + f[:k])
    canon_faces.sort()
    return PolyhedronSpec(name=name, faces=tuple(canon_faces), vertices=pts)


def _even_perms(a: float, b: float, c: float) -> list[tuple[float, float, float]]:
    return [(a, b, c), (b, c, a), (c, a, b)]


def _sign_family(base: tuple[float, float, float], even_only: bool = False) -> list[tuple[float, float, float]]:
    """All distinct sign combinations of the cyclic permutations of base."""
    out = set()
    for trip in _even_perms(*base):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            p = tuple(s * x for s, x in zip(signs, trip))
            out.add(p)
    return sorted(out)


def _all_perm_sign(base: tuple[float, float, float]) -> list[tuple[float, float, float]]:
    out = set()
    for perm in itertools.permutations(base):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            out.add(tuple(s * x for s, x in zip(signs, perm)))
    return sorted(out)


def _tetrahedron() -> np.ndarray:
    return np.array([(1, 1, 1), (1, -1, -1), (-1, 1, -1), (-1, -1, 1)], dtype=float)


def _cube() -> np.ndarray:
    return np.array(sorted(itertools.product((-1.0, 1.0), repeat=3)))


def _octahedron() -> np.ndarray:
    return np.array([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], dtype=float)


def _icosahedron() -> np.ndarray:
    return np.array(_sign_family((0.0, 1.0, PHI)))


def _dodecahedron() -> np.ndarray:
    pts = set(itertools.product((-1.0, 1.0), repeat=3))
    pts.update(_sign_family((0.0, 1.0 / PHI, PHI)))
    return np.array(sorted(pts))


def _octagon_ring(z: float) -> list[tuple[float, float, float]]:
    s = SQRT2 / 2.0
    ring = [(1, 0), (s, s), (0, 1), (-s, s), (-1, 0), (-s, -s), (0, -1), (s, -s)]
    return [(x, y, z) for x, y in ring]


def _octagonal_pyramid() -> np.ndarray:
    return np.array(_octagon_ring(0.0) + [(0.0, 0.0, 1.0)])


def _octagonal_dipyramid() -> np.ndarray:
    return np.array(_octagon_ring(0.0) + [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)])


def _truncate(parent: PolyhedronSpec, fraction: float) -> np.ndarray:
    """One vertex per directed edge, cut at `fraction` along the edge."""
    pts = parent.vertices
    out = []
    for u, v in parent.edge_list():
        out.append(pts[u] + fraction * (pts[v] - pts[u]))
        out.append(pts[v] + fraction * (pts[u] - pts[v]))
    return np.array(out)


def _cuboctahedron() -> np.ndarray:
    return np.array(_sign_family((1.0, 1.0, 0.0)))


def _icosidodecahedron() -> np.ndarray:
    ico = _builtin_spec("icosahedron")
    pts = ico.vertices
    return np.array([(pts[u] + pts[v]) / 2.0 for u, v in ico.edge_list()])


def _rhombicuboctahedron() -> np.ndarray:
    return np.array(_all_perm_sign((1.0, 1.0, 1.0 + SQRT2)))


def _truncated_cuboctahedron() -> np.ndarray:
    return np.array(_all_perm_sign((1.0, 1.0 + SQRT2, 1.0 + 2.0 * SQRT2)))


def _snub_cube() -> np.ndarray:
    t = TRIBONACCI
    base = (1.0, 1.0 / t, t)
    out = []
    for perm in itertools.permutations(range(3)):
        inversions = sum(
            1 for i in range(3) for j in range(i + 1, 3) if perm[i] > perm[j]
        )
        for signs in itertools.product((1.0, -1.0), repeat=3):
            minus = sum(1 for s in signs if s < 0)
            if (inversions + minus) % 2 == 0:
                out.append(tuple(signs[k] * base[perm[k]] for k in range(3)))
    return np.array(sorted(set(out)))


def _rhombicosidodecahedron() -> np.ndarray:
    pts = set()
    for base in ((1.0, 1.0, PHI ** 3), (PHI ** 2, PHI, 2.0 * PHI), (2.0 + PHI, 0.0, PHI ** 2)):
        for trip in _even_perms(*base):
            for signs in itertools.product((1.0, -1.0), repeat=3):
                pts.add(tuple(s * x for s, x in zip(signs, trip)))
    return np.array(sorted(pts))


# Solved offline: orbit of a seed under the 60 icosahedral rotations with the
# three edge orbits constrained to equal length (see tools/solve_snub.py).
_SNUB_DODECAHEDRON_POINTS = [
    (-4.1941076705041755, -0.66184204945968883, 0.7496433162291245),
    (-4.1941076705041755, 0.66184204945968883, -0.7496433162291245),
    (-3.9556779308404377, -1.2860592118281451, -1.1354307389338427),
    (-3.9556779308404377, 1.2860592118281451, 1.1354307389338427),
    (-3.4923728819716531, -2.4990075769260542, 0.38578742270471844),
    (-3.4923728819716531, 2.4990075769260542, -0.38578742270471844),
    (-3.2938358813807489, -1.6951000935781215, 2.2063136701435075),
    (-3.2938358813807489, 1.6951000935781215, -2.2063136701435075),
    (-2.9080484586760305, -1.456670353914383, -2.8305308325119642),
    (-2.9080484586760305, 1.456670353914383, 2.8305308325119642),
    (-2.8305308325119642, -2.9080484586760305, -1.456670353914383),
    (-2.8305308325119642, 2.9080484586760305, 1.456670353914383),
    (-2.4990075769260542, -0.38578742270471844, 3.4923728819716531),
    (-2.4990075769260542, 0.38578742270471844, -3.4923728819716531),
    (-2.2063136701435075, -3.2938358813807489, 1.6951000935781215),
    (-2.2063136701435075, 3.2938358813807489, -1.6951000935781215),
    (-1.6951000935781215, -2.2063136701435075, 3.2938358813807489),
    (-1.6951000935781215, 2.2063136701435075, -3.2938358813807489),
    (-1.456670353914383, -2.8305308325119642, -2.9080484586760305),
    (-1.456670353914383, 2.8305308325119642, 2.9080484586760305),
    (-1.2860592118281451, -1.1354307389338427, -3.9556779308404377),
    (-1.2860592118281451, 1.1354307389338427, 3.9556779308404377),
    (-1.1354307389338427, -3.9556779308404377, -1.2860592118281451),
    (-1.1354307389338427, 3.9556779308404377, 1.2860592118281451),
    (-0.7496433162291245, -4.1941076705041755, 0.66184204945968883),
    (-0.7496433162291245, 4.1941076705041755, -0.66184204945968883),
    (-0.66184204945968839, -0.7496433162291245, 4.1941076705041755),
    (-0.66184204945968839, 0.7496433162291245, -4.1941076705041755),
    (-0.38578742270471844, -3.4923728819716531, 2.4990075769260542),
    (-0.38578742270471844, 3.4923728819716531, -2.4990075769260542),
    (0.38578742270471844, -3.4923728819716531, -2.4990075769260542),
    (0.38578742270471844, 3.4923728819716531, 2.4990075769260542),
    (0.66184204945968839, -0.7496433162291245, -4.1941076705041755),
    (0.66184204945968839, 0.7496433162291245, 4.1941076705041755),
    (0.7496433162291245, -4.1941076705041755, -0.66184204945968883),
    (0.7496433162291245, 4.1941076705041755, 0.66184204945968883),
    (1.1354307389338427, -3.9556779308404377, 1.2860592118281451),
    (1.1354307389338427, 3.9556779308404377, -1.2860592118281451),
    (1.2860592118281451, -1.1354307389338427, 3.9556779308404377),
    (1.2860592118281451, 1.1354307389338427, -3.9556779308404377),
    (1.456670353914383, -2.8305308325119642, 2.9080484586760305),
    (1.456670353914383, 2.8305308325119642, -2.9080484586760305),
    (1.6951000935781215, -2.2063136701435075, -3.2938358813807489),
    (1.6951000935781215, 2.2063136701435075, 3.2938358813807489),
    (2.2063136701435075, -3.2938358813807489, -1.6951000935781215),
    (2.2063136701435075, 3.2938358813807489, 1.6951000935781215),
    (2.4990075769260542, -0.38578742270471844, -3.4923728819716531),
    (2.4990075769260542, 0.38578742270471844, 3.4923728819716531),
    (2.8305308325119642, -2.9080484586760305, 1.456670353914383),
    (2.8305308325119642, 2.9080484586760305, -1.456670353914383),
    (2.9080484586760305, -1.456670353914383, 2.8305308325119642),
    (2.9080484586760305, 1.456670353914383, -2.8305308325119642),
    (3.2938358813807489, -1.6951000935781215, -2.2063136701435075),
    (3.2938358813807489, 1.6951000935781215, 2.2063136701435075),
    (3.4923728819716531, -2.4990075769260542, -0.38578742270471844),
    (3.4923728819716531, 2.4990075769260542, 0.38578742270471844),
    (3.9556779308404377, -1.2860592118281451, 1.1354307389338427),
    (3.9556779308404377, 1.2860592118281451, -1.1354307389338427),
    (4.1941076705041755, -0.66184204945968883, -0.7496433162291245),
    (4.1941076705041755, 0.66184204945968883, 0.7496433162291245),
]


def _snub_dodecahedron() -> np.ndarray:
    return np.array(_SNUB_DODECAHEDRON_POINTS)


def _dual_points(spec: PolyhedronSpec) -> np.ndarray:
    """Polar dual vertices: the pole of each face plane of an origin-centered solid."""
    pts = spec.vertices
    out = []
    for f in spec.faces:
        p = pts[list(f)]
        c = p.mean(axis=0)
        n = np.cross(pts[f[1]] - pts[f[0]], pts[f[2]] - pts[f[1]])
        n = n / np.linalg.norm(n)
        if float(n @ c) < 0:
            n = -n
        d = float(n @ c)
        out.append(n / d)
    return np.array(out)


def _triakis_icosahedron() -> np.ndarray:
    return _dual_points(_builtin_spec("truncated_dodecahedron"))


def _pentakis_dodecahedron() -> np.ndarray:
    return _dual_points(_builtin_spec("truncated_icosahedron"))


@dataclass(frozen=True)
class CatalogEntry:
    """One built-in shell with its reference data.

    leaf_count and optimal_nets are the published reference values the
    package's own results are compared against.
    """

    name: str
    n_vertices: int
    n_faces: int
    n_edges: int
    leaf_count: int
    optimal_nets: int


CATALOG: tuple[CatalogEntry, ...] = (
    CatalogEntry("tetrahedron", 4, 4, 6, 3, 1),
    CatalogEntry("octahedron", 6, 8, 12, 4, 2),
    CatalogEntry("cube", 8, 6, 12, 4, 4),
    CatalogEntry("icosahedron", 12, 20, 30, 8, 21),
    CatalogEntry("dodecahedron", 20, 12, 30, 10, 21),
    CatalogEntry("octagonal_pyramid", 9, 9, 16, 8, 1),
    CatalogEntry("octagonal_dipyramid", 10, 16, 24, 8, 3),
    CatalogEntry("truncated_tetrahedron", 12, 8, 18, 6, 4),
    CatalogEntry("cuboctahedron", 12, 14, 24, 7, 34),
    CatalogEntry("truncated_cube", 24, 14, 36, 10, 399),
    CatalogEntry("snub_cube", 24, 38, 60, 16, 600),
    CatalogEntry("rhombicuboctahedron", 24, 26, 48, 15, 32),
    CatalogEntry("truncated_octahedron", 24, 14, 36, 12, 56),
    CatalogEntry("icosidodecahedron", 30, 32, 60, 16, 308_928),
    CatalogEntry("truncated_cuboctahedron", 48, 26, 72, 24, 244),
    CatalogEntry("truncated_icosahedron", 60, 32, 90, 30, 4_114),
    CatalogEntry("truncated_dodecahedron", 60, 32, 90, 22, 3_719_677_167),
    CatalogEntry("rhombicosidodecahedron", 60, 62, 120, 37, 77_952),
    CatalogEntry("snub_dodecahedron", 60, 92, 150, 39, 13_436_928),
    CatalogEntry("triakis_icosahedron", 32, 60, 90, 26, 664_128),
    CatalogEntry("pentakis_dodecahedron", 32, 60, 90, 22, 845_280),
)

_ENTRIES = {e.name: e for e in CATALOG}

_BUILDERS: dict[str, Callable[[], np.ndarray]] = {
    "tetrahedron": _tetrahedron,
    "octahedron": _octahedron,
    "cube": _cube,
    "icosahedron": _icosahedron,
    "dodecahedron": _dodecahedron,
    "octagonal_pyramid": _octagonal_pyramid,
    "octagonal_dipyramid": _octagonal_dipyramid,
    "cuboctahedron": _cuboctahedron,
    "icosidodecahedron": _icosidodecahedron,
    "rhombicuboctahedron": _rhombicuboctahedron,
    "truncated_cuboctahedron": _truncated_cuboctahedron,
    "snub_cube": _snub_cube,
    "rhombicosidodecahedron": _rhombicosidodecahedron,
    "snub_dodecahedron": _snub_dodecahedron,
    "triakis_icosahedron": _triakis_icosahedron,
    "pentakis_dodecahedron": _pentakis_dodecahedron,
}

_TRUNCATIONS: dict[str, tuple[str, float]] = {
    "truncated_tetrahedron": ("tetrahedron", 1.0 / 3.0),
    "truncated_cube": ("cube", 1.0 / (2.0 + SQRT2)),
    "truncated_octahedron": ("octahedron", 1.0 / 3.0),
    "truncated_icosahedron": ("icosahedron", 1.0 / 3.0),
    "truncated_dodecahedron": ("dodecahedron", 1.0 / (2.0 + PHI)),
}


def catalog_names() -> tuple[str, ...]:
    return tuple(e.name for e in CATALOG)


def catalog_entry(name: str) -> CatalogEntry:
    key = name.strip().lower().replace("-", "_").replace(" ", "_")
    if key not in _ENTRIES:
        raise ValidationError(f"unknown builtin shell {name!r}; known: {', '.join(catalog_names())}")
    return _ENTRIES[key]


@cache
def _builtin_spec(name: str) -> PolyhedronSpec:
    if name in _TRUNCATIONS:
        parent, fraction = _TRUNCATIONS[name]
        points = _truncate(_builtin_spec(parent), fraction)
    else:
        points = _BUILDERS[name]()
    spec = _canonical_spec(name, points)
    entry = _ENTRIES[name]
    graph = build_shell_graph(spec)
    if (graph.n, len(graph.faces), graph.m) != (entry.n_vertices, entry.n_faces, entry.n_edges):
        raise ValidationError(
            f"{name}: built V={graph.n} F={len(graph.faces)} E={graph.m}, "
            f"expected V={entry.n_vertices} F={entry.n_faces} E={entry.n_edges}"
        )
    if graph.boundary_edges:
        raise ValidationError(f"{name}: catalog shell is not closed")
    return spec


def builtin(name: str) -> PolyhedronSpec:
    """A catalog shell by name (case/hyphen-insensitive)."""
    return _builtin_spec(catalog_entry(name).name)
