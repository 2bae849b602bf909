"""Solve snub dodecahedron vertex coordinates.

The 60 vertices form one orbit of the icosahedral rotation group.  A seed
direction on the unit sphere has two free parameters; requiring the three
edge orbits of the solid to share one length fixes them.  The result is
verified through its convex hull (V=60, E=150, F=92 with 12 pentagons and 80
triangles, all edges equal) and printed as 17-significant-digit literals for
the catalog.

Needs scipy (`scipy.optimize`, `scipy.spatial`), which netfold itself does
not use at run time; it comes with the test extra (`pip install -e .[test]`).
Run it as `python tools/solve_snub.py`.
"""

import itertools
import math

import numpy as np
from scipy.optimize import least_squares
from scipy.spatial import ConvexHull

PHI = (1.0 + math.sqrt(5.0)) / 2.0


def icosahedron_points():
    pts = set()
    for trip in ((0.0, 1.0, PHI), (1.0, PHI, 0.0), (PHI, 0.0, 1.0)):
        for signs in itertools.product((1.0, -1.0), repeat=3):
            pts.add(tuple(s * x for s, x in zip(signs, trip)))
    return np.array(sorted(pts))


def rotation_group():
    """The 60 rotations preserving the icosahedron vertex set."""
    pts = icosahedron_points()
    keyset = {tuple(np.round(p, 8)) for p in pts}
    v1 = pts[0]
    nbrs = sorted(
        range(len(pts)), key=lambda i: np.linalg.norm(pts[i] - v1)
    )[1:6]
    v2 = pts[nbrs[0]]

    def frame(a, b):
        e1 = a / np.linalg.norm(a)
        e2 = b - (b @ e1) * e1
        e2 = e2 / np.linalg.norm(e2)
        return np.column_stack([e1, e2, np.cross(e1, e2)])

    f0 = frame(v1, v2)
    rots = []
    for i in range(len(pts)):
        for j in range(len(pts)):
            a, b = pts[i], pts[j]
            if abs(np.linalg.norm(a - b) - np.linalg.norm(v1 - v2)) > 1e-6:
                continue
            rot = frame(a, b) @ f0.T
            if abs(np.linalg.det(rot) - 1.0) > 1e-6:
                continue
            if all(tuple(np.round(rot @ p, 8)) in keyset for p in pts):
                rots.append(rot)
    uniq = {}
    for rot in rots:
        uniq[tuple(np.round(rot, 8).ravel())] = rot
    assert len(uniq) == 60, len(uniq)
    return list(uniq.values())


ROTS = rotation_group()


def orbit(theta, phi):
    p = np.array([
        math.sin(theta) * math.cos(phi),
        math.sin(theta) * math.sin(phi),
        math.cos(theta),
    ])
    return np.array([rot @ p for rot in ROTS])


def residuals(x):
    pts = orbit(*x)
    d = np.linalg.norm(pts[1:] - pts[0], axis=1)
    d.sort()
    near = d[:5]
    return near[1:] - near[0]


def main():
    best = None
    for theta in np.linspace(0.1, math.pi / 2, 120):
        for phi in np.linspace(0.0, 2 * math.pi / 5, 120):
            r = residuals((theta, phi))
            score = float(np.abs(r).sum())
            pts = orbit(theta, phi)
            dmin = np.min(np.linalg.norm(pts[1:] - pts[0], axis=1))
            if dmin < 0.3:
                continue
            if best is None or score < best[0]:
                best = (score, theta, phi)
    _, theta, phi = best
    sol = least_squares(residuals, (theta, phi), xtol=1e-15, ftol=1e-15, gtol=1e-15)
    # freeze the identity of the four nearest partners to make the
    # residual smooth, then polish to machine precision
    pts = orbit(*sol.x)
    d = np.linalg.norm(pts[1:] - pts[0], axis=1)
    nearest = list(np.argsort(d)[:5] + 1)

    def smooth_residuals(x):
        pts = orbit(*x)
        dd = np.linalg.norm(pts[nearest] - pts[0], axis=1)
        return dd[1:] - dd[0]

    sol = least_squares(
        smooth_residuals, sol.x,
        xtol=2.3e-16, ftol=2.3e-16, gtol=2.3e-16, diff_step=1e-8,
    )
    pts = orbit(*sol.x)
    hull = ConvexHull(pts)

    edges = set()
    for simplex in hull.simplices:
        for a, b in itertools.combinations(simplex, 2):
            edges.add((min(a, b), max(a, b)))
    # coplanar merge to count real faces
    normals = hull.equations[:, :3]
    parent = list(range(len(hull.simplices)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for fi in range(len(hull.simplices)):
        for fj in hull.neighbors[fi]:
            if normals[fi] @ normals[fj] > 1.0 - 1e-7:
                parent[find(fi)] = find(int(fj))
    groups = {}
    for fi in range(len(hull.simplices)):
        groups.setdefault(find(fi), []).append(fi)
    sizes = sorted(len(g) for g in groups.values())
    n_faces = len(groups)
    # edges interior to a merged face are not shell edges
    shell_edges = set()
    for members, group in groups.items():
        pass
    edge_faces = {}
    for fi in range(len(hull.simplices)):
        g = find(fi)
        for a, b in itertools.combinations(hull.simplices[fi], 2):
            edge_faces.setdefault((min(a, b), max(a, b)), set()).add(g)
    for e, gs in edge_faces.items():
        if len(gs) == 2:
            shell_edges.add(e)
    lengths = [np.linalg.norm(pts[a] - pts[b]) for a, b in shell_edges]
    print("residual:", np.abs(residuals(sol.x)).max())
    print("V:", len(pts), "E:", len(shell_edges), "F:", n_faces)
    print("face sizes (in hull triangles):", sizes.count(1), "triangles,",
          sizes.count(3), "pentagon patches")
    print("edge length spread:", (max(lengths) - min(lengths)) / min(lengths))
    scale = 2.0 / np.mean(lengths)  # edge length 2, matching the other solids
    pts = pts * scale
    print("_SNUB_DODECAHEDRON_POINTS = [")
    for p in pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]:
        print(f"    ({p[0]:.17g}, {p[1]:.17g}, {p[2]:.17g}),")
    print("]")


if __name__ == "__main__":
    main()
