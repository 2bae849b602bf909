"""Independent overlap oracle for unfolded nets, and the references it derives.

Every catalog face is convex, so two placed faces overlap exactly when the
convex polygon of their intersection has positive area.  The intersection is
computed by clipping one face against each edge line of the other
(Sutherland-Hodgman); shared edges, shared corners and collinear edges that
meet at a vertex all clip to a polygon of zero area and are not overlap.

Run as a script to re-derive the rank references the benchmark checks:

    PYTHONPATH=src python3 perfbench/oracle.py truncated_cube rhombicuboctahedron
"""

from __future__ import annotations

import math
import sys
from typing import Sequence

Point = tuple[float, float]

# An intersection counts as overlap above this share of the squared mean edge
# length; rounding leaves slivers near 1e-16 of it on touching faces.
AREA_RTOL = 1e-9


def polygon_area(points: Sequence[Point]) -> float:
    """Signed shoelace area, positive for a counter-clockwise cycle."""
    total = 0.0
    n = len(points)
    for k in range(n):
        x0, y0 = points[k]
        x1, y1 = points[(k + 1) % n]
        total += x0 * y1 - x1 * y0
    return total / 2.0


def clip_convex(subject: Sequence[Point], clipper: Sequence[Point]) -> list[Point]:
    """Part of `subject` inside the counter-clockwise convex `clipper`."""
    out = list(subject)
    n = len(clipper)
    for k in range(n):
        if not out:
            break
        ax, ay = clipper[k]
        bx, by = clipper[(k + 1) % n]
        ex, ey = bx - ax, by - ay
        side = [ex * (py - ay) - ey * (px - ax) for px, py in out]
        kept: list[Point] = []
        for i, cur in enumerate(out):
            prev = out[i - 1]
            s_cur, s_prev = side[i], side[i - 1]
            if (s_cur >= 0.0) != (s_prev >= 0.0):
                t = s_prev / (s_prev - s_cur)
                kept.append((prev[0] + t * (cur[0] - prev[0]), prev[1] + t * (cur[1] - prev[1])))
            if s_cur >= 0.0:
                kept.append(cur)
        out = kept
    return out


def intersection_area(p: Sequence[Point], q: Sequence[Point]) -> float:
    """Area of the intersection of two counter-clockwise convex polygons."""
    clipped = clip_convex(p, q)
    return polygon_area(clipped) if len(clipped) >= 3 else 0.0


def net_overlaps(polygons: Sequence[Sequence[Point]], mean_edge: float) -> bool:
    """Does any pair of placed faces intersect with positive area?"""
    limit = AREA_RTOL * mean_edge * mean_edge
    polys = [[(float(x), float(y)) for x, y in poly] for poly in polygons]
    boxes = [
        (min(x for x, _ in p), min(y for _, y in p), max(x for x, _ in p), max(y for _, y in p))
        for p in polys
    ]
    for i in range(len(polys)):
        ax0, ay0, ax1, ay1 = boxes[i]
        for j in range(i + 1, len(polys)):
            bx0, by0, bx1, by1 = boxes[j]
            if ax0 >= bx1 or bx0 >= ax1 or ay0 >= by1 or by0 >= ay1:
                continue
            if intersection_area(polys[i], polys[j]) > limit:
                return True
    return False


def radius_of_gyration(polygons: Sequence[Sequence[Point]]) -> float:
    """R_g of the union of non-overlapping polygons, from shoelace moments."""
    area = sx = sy = polar = 0.0
    for poly in polygons:
        n = len(poly)
        for k in range(n):
            x0, y0 = (float(c) for c in poly[k])
            x1, y1 = (float(c) for c in poly[(k + 1) % n])
            cross = x0 * y1 - x1 * y0
            area += cross / 2.0
            sx += (x0 + x1) * cross / 6.0
            sy += (y0 + y1) * cross / 6.0
            polar += (x0 * x0 + x0 * x1 + x1 * x1 + y0 * y0 + y0 * y1 + y1 * y1) * cross / 12.0
    cx, cy = sx / area, sy / area
    return math.sqrt(polar / area - cx * cx - cy * cy)


def derive_rank_reference(name: str) -> dict:
    """Overlapping-net count and best R_g / mean edge for one catalog shell.

    Nets come from the program's own search, dedupe and unfolding in catalog
    labelling; only the overlap verdict and R_g are computed here.
    """
    from netfold import builtin, build_shell_graph, dedupe_cuts, enumerate_mlsts, find_automorphisms
    from netfold.geometry import unfold

    spec = builtin(name)
    graph = build_shell_graph(spec)
    classes = dedupe_cuts(graph, enumerate_mlsts(graph, workers=1).cuts, find_automorphisms(graph))
    overlapping = 0
    best = math.inf
    for cls in classes:
        layout = unfold(spec, [graph.edges[e] for e in cls.edges])
        if net_overlaps(layout.polygons, layout.mean_edge_length()):
            overlapping += 1
        else:
            best = min(best, radius_of_gyration(layout.polygons) / layout.mean_edge_length())
    return {"nets": len(classes), "overlapping": overlapping, "rg_per_edge": best}


if __name__ == "__main__":
    for shell in sys.argv[1:]:
        print(shell, derive_rank_reference(shell))
