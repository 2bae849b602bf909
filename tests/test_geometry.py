import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import cut_tuples, reference_check_overlap
from netfold.catalog import builtin
from netfold.errors import FallbackExhaustedError, ValidationError
import netfold.geometry as geometry
from netfold.geometry import (
    NetLayout,
    centroid_and_rg,
    check_overlap,
    rank_nets,
    select_optimal_net,
    unfold,
)
from netfold.holes import remove_faces
from netfold.mlst import enumerate_mlsts
from netfold.polyhedra import PolyhedronSpec
from netfold.shellgraph import build_shell_graph, cut_leaves
from netfold.svg import export_svg
from netfold.symmetry import dedupe_cuts, find_automorphisms

UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])

TWO_SQUARES = PolyhedronSpec(
    name="two-squares",
    vertices=np.array([
        [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0], [1, 0, 1], [1, 1, 1],
    ], dtype=float),
    faces=((0, 1, 2, 3), (1, 4, 5, 2)),
)


def synthetic_layout(*polygons):
    return NetLayout(
        spec=TWO_SQUARES, cut=(), root_face=0,
        polygons=tuple(np.asarray(p, dtype=float) for p in polygons),
        hinges=(), markers=(),
    )


def ranked_for(name):
    spec = builtin(name)
    g = build_shell_graph(spec)
    classes = dedupe_cuts(g, enumerate_mlsts(g).cuts, find_automorphisms(g))
    return spec, g, rank_nets(spec, [(c.edges, c.orbit_size) for c in classes], graph=g)


def test_unit_square_radius_of_gyration():
    _, rg = centroid_and_rg(synthetic_layout(UNIT_SQUARE))
    assert abs(rg - math.sqrt(1 / 6)) < 1e-12


def test_two_hinged_squares_unfold_to_rectangle():
    cut = [(0, 1), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2)]
    layout = unfold(TWO_SQUARES, cut)
    assert len(layout.polygons) == 2 and len(layout.hinges) == 1
    (centroid, rg) = centroid_and_rg(layout)
    assert abs(rg * rg - 5 / 12) < 1e-12
    overlapping, _ = check_overlap(layout)
    assert not overlapping


def test_cube_cross_net_structure():
    spec, g, ranked = ranked_for("cube")
    assert len(ranked) == 4
    best = ranked[0]
    assert len(best.layout.polygons) == 6
    assert len(best.layout.hinges) == 5
    assert len(best.layout.markers) == 4
    assert not best.overlapping
    # the most compact cube net is the cross: one face hinged to four others
    from collections import Counter
    degrees = Counter()
    for a, b, _ in best.layout.hinges:
        degrees[a] += 1
        degrees[b] += 1
    assert max(degrees.values()) == 4
    assert select_optimal_net(ranked).rank == 1


def test_tetrahedron_fan_net():
    spec, g, ranked = ranked_for("tetrahedron")
    assert len(ranked) == 1
    layout = ranked[0].layout
    assert len(layout.polygons) == 4
    assert len(layout.hinges) == 3
    assert len(layout.markers) == 3
    assert not ranked[0].overlapping


def test_marker_count_equals_leaf_count_everywhere():
    for name in ("cube", "octahedron", "icosahedron", "octagonal_dipyramid"):
        spec = builtin(name)
        g = build_shell_graph(spec)
        result = enumerate_mlsts(g)
        classes = dedupe_cuts(g, result.cuts, find_automorphisms(g))
        for cls in classes:
            layout = unfold(spec, [g.edges[e] for e in cls.edges])
            assert len(layout.markers) == result.leaf_count
            marked = sorted(m.vertex for m in layout.markers)
            assert marked == sorted(cut_leaves(g, cls.edges))


def test_marker_far_points_equidistant_from_connection():
    spec, g, ranked = ranked_for("cube")
    for net in ranked:
        for marker in net.layout.markers:
            p = np.array(marker.point)
            d0 = np.linalg.norm(np.array(marker.far_points[0]) - p)
            d1 = np.linalg.norm(np.array(marker.far_points[1]) - p)
            assert math.isclose(d0, d1, rel_tol=1e-9)


def test_faces_stay_isometric():
    spec, g, ranked = ranked_for("octahedron")
    for net in ranked:
        for f, poly in enumerate(net.layout.polygons):
            pts3 = spec.vertices[list(spec.faces[f])]
            k = len(spec.faces[f])
            for i in range(k):
                l3 = np.linalg.norm(pts3[(i + 1) % k] - pts3[i])
                l2 = np.linalg.norm(poly[(i + 1) % k] - poly[i])
                assert abs(l3 - l2) <= 1e-9 * l3


def test_root_face_does_not_change_rg():
    spec = builtin("cube")
    g = build_shell_graph(spec)
    cut = cut_tuples(enumerate_mlsts(g))[0]
    pairs = [g.edges[e] for e in cut]
    values = []
    for root in range(spec.n_faces):
        _, rg = centroid_and_rg(unfold(spec, pairs, root_face=root))
        values.append(rg)
    assert max(values) - min(values) <= 1e-9 * values[0]


@settings(max_examples=25)
@given(
    angle=st.floats(0, 2 * math.pi, allow_nan=False),
    axis=st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)).filter(
        lambda a: sum(x * x for x in a) > 1e-2
    ),
    shift=st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
)
def test_rigid_motion_invariance(angle, axis, shift):
    spec = builtin("tetrahedron")
    g = build_shell_graph(spec)
    cut = cut_tuples(enumerate_mlsts(g))[0]
    pairs = [g.edges[e] for e in cut]
    _, rg0 = centroid_and_rg(unfold(spec, pairs))
    ax = np.array(axis, dtype=float)
    ax /= np.linalg.norm(ax)
    k = np.array([[0, -ax[2], ax[1]], [ax[2], 0, -ax[0]], [-ax[1], ax[0], 0]])
    rot = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
    moved = PolyhedronSpec(
        name="moved", vertices=spec.vertices @ rot.T + np.array(shift), faces=spec.faces,
    )
    _, rg1 = centroid_and_rg(unfold(moved, pairs))
    assert abs(rg1 - rg0) <= 1e-9 * rg0


def test_vertex_connections_are_cut_leaves():
    spec = builtin("cube")
    g = build_shell_graph(spec)
    cut = cut_tuples(enumerate_mlsts(g))[0]
    markers = unfold(spec, [g.edges[e] for e in cut]).markers
    assert tuple(sorted(m.vertex for m in markers)) == cut_leaves(g, cut)


def test_hole_net_markers_avoid_boundary():
    spec = builtin("rhombicuboctahedron")
    cap = [f for f in range(spec.n_faces)
           if all(spec.vertices[v][2] > 0.9 for v in spec.faces[f])]
    open_spec = remove_faces(spec, cap)
    g = build_shell_graph(open_spec)
    result = enumerate_mlsts(g)
    boundary_vertices = {v for e in g.boundary_edges for v in g.edges[e]}
    cut = cut_tuples(result)[0]
    layout = unfold(open_spec, [g.edges[e] for e in cut])
    assert len(layout.polygons) == open_spec.n_faces
    assert len(layout.markers) == result.leaf_count
    assert not ({m.vertex for m in layout.markers} & boundary_vertices)


def test_unfold_rejects_non_tree_complement():
    spec = builtin("cube")
    g = build_shell_graph(spec)
    cut = cut_tuples(enumerate_mlsts(g))[0]
    pairs = [g.edges[e] for e in cut]
    with pytest.raises(ValidationError):
        unfold(spec, pairs[:-1])  # one hinge too many
    with pytest.raises(ValidationError):
        unfold(spec, [(0, 7)])  # not a shell edge


@pytest.mark.parametrize("root", [1.7, 2.0, True, False, np.True_, "2", [1]])
def test_unfold_rejects_a_root_face_that_is_not_an_integer(root):
    spec = builtin("cube")
    g = build_shell_graph(spec)
    pairs = [g.edges[e] for e in cut_tuples(enumerate_mlsts(g))[0]]
    with pytest.raises(ValidationError, match=r"root face .* is not an integer") as info:
        unfold(spec, pairs, root_face=root)
    assert repr(root) in str(info.value)


def test_unfold_takes_a_numpy_integer_root_face():
    spec = builtin("cube")
    g = build_shell_graph(spec)
    pairs = [g.edges[e] for e in cut_tuples(enumerate_mlsts(g))[0]]
    layout, expected = unfold(spec, pairs, root_face=np.int64(2)), unfold(spec, pairs, root_face=2)
    assert type(layout.root_face) is int and layout.root_face == 2
    assert layout.points.tobytes() == expected.points.tobytes() and layout.hinges == expected.hinges
    for root in (-1, 6, np.int32(6)):
        with pytest.raises(ValidationError, match="out of range"):
            unfold(spec, pairs, root_face=root)


@pytest.mark.parametrize("scale", [0, 0.0, -100, math.nan, math.inf, -math.inf, True, "100", None])
def test_export_svg_rejects_a_scale_that_is_not_finite_and_positive(tmp_path, scale):
    path = tmp_path / "net.svg"
    with pytest.raises(ValidationError, match="scale must be a finite positive number"):
        export_svg(synthetic_layout(UNIT_SQUARE), path, scale=scale)
    assert not path.exists()


def test_export_svg_scales_the_drawing():
    square = synthetic_layout(UNIT_SQUARE)
    assert b'width="110.0000"' in export_svg(square)
    assert b'width="55.0000"' in export_svg(square, scale=np.float64(50.0))
    assert b'width="1.1000"' in export_svg(square, scale=1)


def rotated(poly, theta, scale=1.0):
    c, s = math.cos(theta), math.sin(theta)
    return (np.asarray(poly) * scale) @ np.array([[c, -s], [s, c]]).T


ROTATIONS = [0.01 + 0.0314 * k for k in range(200)]
SCALES = (1e-3, 1.0, 1e3)


def test_overlap_detection_on_synthetic_layouts():
    cases = [
        (UNIT_SQUARE + np.array([0.5, 0.5]), True),  # shifted
        (UNIT_SQUARE + np.array([1.0, 0.0]), False),  # sharing a full edge is not overlap
        (UNIT_SQUARE + np.array([1.0, 1.0]), False),  # sharing one corner is not overlap
        (UNIT_SQUARE.copy(), True),  # exact coincidence is overlap
        (UNIT_SQUARE * 0.5 + np.array([0.25, 0.25]), True),  # containment without edge crossings
    ]
    # the verdicts hold in any orientation and at any scale
    for theta in (0.0, ROTATIONS[1], ROTATIONS[77], ROTATIONS[199]):
        for scale in SCALES:
            for other, expected in cases:
                layout = synthetic_layout(rotated(UNIT_SQUARE, theta, scale), rotated(other, theta, scale))
                assert check_overlap(layout) == ((True, (0, 1)) if expected else (False, None)), (theta, scale)


@pytest.mark.parametrize("scale", SCALES)
def test_collinear_partial_edge_contact_is_not_overlap(scale):
    # the squares share half of a horizontal edge and no area; after a
    # rotation the two edges are collinear only up to rounding
    upper = UNIT_SQUARE + np.array([0.5, 1.0])
    flagged = [
        theta for theta in ROTATIONS
        if check_overlap(synthetic_layout(rotated(UNIT_SQUARE, theta, scale), rotated(upper, theta, scale)))[0]
    ]
    assert flagged == []


def test_witness_is_the_first_overlapping_pair_in_row_major_order():
    far = UNIT_SQUARE + np.array([5.0, 0.0])
    layout = synthetic_layout(UNIT_SQUARE, far, far + 0.5, UNIT_SQUARE + 0.5)
    assert check_overlap(layout) == (True, (0, 3))


def test_witness_merges_the_probe_and_crossing_tests():
    # pair (0, 1): a square inside another, which only the probe test sees;
    # pair (2, 3): two bars crossing with no probe of one inside the other,
    # which only the crossing test sees
    inner = UNIT_SQUARE * 0.5 + 0.25
    bar = np.array([[10.0, 0.0], [14.0, 0.0], [14.0, 0.2], [10.0, 0.2]])
    post = np.array([[11.0, -1.0], [11.2, -1.0], [11.2, 3.0], [11.0, 3.0]])
    layout = synthetic_layout(UNIT_SQUARE, inner, bar, post)
    assert check_overlap(layout) == reference_check_overlap(layout) == (True, (0, 1))
    assert check_overlap(synthetic_layout(bar, post)) == (True, (0, 1))


def test_zero_area_layout_rejected():
    degenerate = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValidationError):
        centroid_and_rg(synthetic_layout(degenerate))


def test_warped_face_fails_the_isometry_check():
    warped = PolyhedronSpec(
        name="warped", vertices=np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0.5], [0, 1, 0]], dtype=float),
        faces=((0, 1, 2, 3),),
    )
    # the face never passes, so it is checked again on every repeat
    for _ in range(3):
        with pytest.raises(ValidationError, match="differs from shell length"):
            unfold(warped, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert geometry._PATHS[warped].unchecked == {0}


def test_clockwise_face_rejected():
    with pytest.raises(ValidationError, match="counter-clockwise"):
        centroid_and_rg(synthetic_layout(UNIT_SQUARE + 2.0, UNIT_SQUARE[::-1]))


def test_ranking_is_ascending_with_deterministic_ties():
    spec, g, ranked = ranked_for("cube")
    assert [n.rank for n in ranked] == [1, 2, 3, 4]
    values = [n.radius_of_gyration for n in ranked]
    assert values == sorted(values)


def test_select_raises_when_everything_overlaps():
    spec, g, ranked = ranked_for("tetrahedron")
    from dataclasses import replace

    bad = [replace(n, overlapping=True) for n in ranked]
    with pytest.raises(FallbackExhaustedError):
        select_optimal_net(bad)
