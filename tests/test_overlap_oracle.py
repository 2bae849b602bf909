"""The overlap screen against a slow, independent reference.

Every catalog face is convex, so two placed faces overlap exactly when the
region they share has positive area.  The reference clips one face by each
edge line of the other (Sutherland-Hodgman) and measures what is left with
the shoelace formula.  Contact along an edge or at a corner leaves a region
of zero area, up to rounding.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from netfold.catalog import CATALOG, builtin
from netfold.geometry import check_overlap, unfold
from netfold.mlst import enumerate_mlsts
from netfold.shellgraph import build_shell_graph
from netfold.symmetry import dedupe_cuts, find_automorphisms

# Shared area counts as overlap above this share of the squared mean edge
# length; touching faces leave rounding slivers many orders below it.
AREA_RTOL = 1e-9

SHELLS = [e.name for e in CATALOG if not e.long_run and e.optimal_nets <= 400]


def shoelace(points):
    return 0.5 * sum(
        x0 * y1 - x1 * y0 for (x0, y0), (x1, y1) in zip(points, points[1:] + points[:1])
    )


def clipped(subject, clipper):
    """The part of `subject` on the left of every edge of the ccw convex `clipper`."""
    region = [tuple(map(float, p)) for p in subject]
    corners = [tuple(map(float, p)) for p in clipper]
    for (ax, ay), (bx, by) in zip(corners, corners[1:] + corners[:1]):
        if not region:
            break
        side = [(bx - ax) * (y - ay) - (by - ay) * (x - ax) for x, y in region]
        kept = []
        for k in range(len(region)):
            (px, py), (qx, qy) = region[k - 1], region[k]
            sp, sq = side[k - 1], side[k]
            if (sp >= 0.0) != (sq >= 0.0):
                w = sp / (sp - sq)
                kept.append((px + w * (qx - px), py + w * (qy - py)))
            if sq >= 0.0:
                kept.append((qx, qy))
        region = kept
    return region


def shared_area(p, q):
    region = clipped(p, q)
    return shoelace(region) if len(region) >= 3 else 0.0


def pair_overlaps(layout, i, j):
    limit = AREA_RTOL * layout.mean_edge_length() ** 2
    return shared_area(layout.polygons[i], layout.polygons[j]) > limit


def oracle_overlaps(layout):
    polys = layout.polygons
    lo = [p.min(axis=0) for p in polys]
    hi = [p.max(axis=0) for p in polys]
    return any(
        pair_overlaps(layout, i, j)
        for i in range(len(polys))
        for j in range(i + 1, len(polys))
        if (lo[i] < hi[j]).all() and (lo[j] < hi[i]).all()
    )


def moved(layout, theta, scale):
    c, s = math.cos(theta), math.sin(theta)
    rot = np.array([[c, -s], [s, c]]) * scale
    return replace(layout, polygons=tuple(p @ rot.T for p in layout.polygons))


def folded_back(layout):
    """The layout with its last-placed face reflected onto its parent's side."""
    parent, child, (u, v) = layout.hinges[-1]
    face = layout.spec.faces[child]
    poly = layout.polygons[child]
    a, b = poly[face.index(u)], poly[face.index(v)]
    axis = (b - a) / np.linalg.norm(b - a)
    rel = poly - a
    mirrored = a + 2.0 * np.outer(rel @ axis, axis) - rel
    polygons = list(layout.polygons)
    polygons[child] = mirrored[::-1]  # reversed, so it stays counter-clockwise
    return replace(layout, polygons=tuple(polygons))


def test_oracle_on_touching_and_overlapping_squares():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    assert shared_area(square, square + [0.5, 0.5]) == pytest.approx(0.25)
    assert shared_area(square, square + [1.0, 0.0]) == pytest.approx(0.0, abs=1e-15)
    assert shared_area(square, square + [0.5, 1.0]) == pytest.approx(0.0, abs=1e-15)
    assert shared_area(square, square * 0.5 + 0.25) == pytest.approx(0.25)


@pytest.mark.parametrize("name", SHELLS)
def test_screen_matches_oracle_on_every_catalog_net(name):
    spec = builtin(name)
    graph = build_shell_graph(spec)
    classes = dedupe_cuts(graph, enumerate_mlsts(graph).cuts, find_automorphisms(graph))
    for k, cls in enumerate(classes):
        layout = unfold(spec, [graph.edges[e] for e in cls.edges])
        # a rigid motion and scale leave the reference verdict as it is
        copy = moved(layout, 0.01 + 0.0314 * (k % 200), (1e-3, 1e3)[k % 2])
        truth = oracle_overlaps(layout)
        folded = folded_back(copy)
        for net, expected in ((layout, truth), (copy, truth), (folded, oracle_overlaps(folded))):
            overlapping, witness = check_overlap(net)
            assert overlapping == expected, (name, cls.edges)
            if overlapping:
                i, j = witness
                assert i < j and pair_overlaps(net, i, j), (name, cls.edges, witness)
