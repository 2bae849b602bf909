"""The overlap screen against a slow, independent reference, and the
batched geometry against the per-face code it replaced.

Every catalog face is convex, so two placed faces overlap exactly when the
region they share has positive area.  The reference clips one face by each
edge line of the other (Sutherland-Hodgman) and measures what is left with
the shoelace formula.  Contact along an edge or at a corner leaves a region
of zero area, up to rounding.

`unfold`, `centroid_and_rg` and `check_overlap` must give what the per-face
code in `helpers` gives, bit for bit: the ranking writes R_g with `repr`.
`unfold` keeps each shell's placements and markers, so it must give those
bits whatever it unfolded before.  The screen skips hinged pairs that their
hinge line separates, so it must also give the verdict and witness of the
screen over every pair.
"""

import gc
import math
import os
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from helpers import (
    DESK_SHELLS,
    reference_centroid_and_rg,
    reference_check_overlap,
    reference_local_coords,
    reference_unfold,
    relabeled_spec,
)
from netfold.catalog import CATALOG, builtin
from netfold.errors import ValidationError
import netfold.geometry as geometry
from netfold.geometry import NetLayout, centroid_and_rg, check_overlap, rank_nets, unfold
from netfold.holes import remove_faces
from netfold.mlst import enumerate_mlsts
from netfold.polyhedra import PolyhedronSpec, canon_edge, edge_face_table
from netfold.shellgraph import build_shell_graph
from netfold.symmetry import cut_group, dedupe_cuts, find_automorphisms

# Shared area counts as overlap above this share of the squared mean edge
# length; touching faces leave rounding slivers many orders below it.
AREA_RTOL = 1e-9

SHELLS = [e.name for e in CATALOG if e.name in DESK_SHELLS and e.optimal_nets <= 400]


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


def class_cuts(spec):
    """One cut (as vertex pairs) per net class of a shell."""
    graph = build_shell_graph(spec)
    classes = dedupe_cuts(graph, enumerate_mlsts(graph).cuts, cut_group(graph))
    return [[graph.edges[e] for e in row] for row in classes.cuts.tolist()]


def assert_same_layout(layout, reference):
    assert layout.cut == reference.cut and layout.hinges == reference.hinges, layout.cut
    assert layout.root_face == reference.root_face
    # repr tells -0.0 from 0.0
    assert repr(layout.markers) == repr(reference.markers), layout.cut
    assert [p.tobytes() for p in layout.polygons] == [p.tobytes() for p in reference.polygons], layout.cut


def assert_geometry_matches_reference(spec):
    for k, cut in enumerate(class_cuts(spec)):
        layout, reference = unfold(spec, cut), reference_unfold(spec, cut)
        assert_same_layout(layout, reference)
        assert repr(centroid_and_rg(layout)) == repr(reference_centroid_and_rg(reference)), (spec.name, cut)
        copy = moved(layout, 0.01 + 0.0314 * (k % 200), (1e-3, 1e3)[k % 2])
        for net in (layout, copy, folded_back(copy)):
            assert check_overlap(net) == reference_check_overlap(net), (spec.name, cut)


@pytest.mark.parametrize("name", SHELLS)
def test_geometry_matches_the_per_face_reference(name):
    assert_geometry_matches_reference(builtin(name))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_geometry_matches_the_per_face_reference_when_relabelled(seed):
    # vertices renamed and rotated, faces shuffled and each started elsewhere
    spec = builtin("truncated_cube")
    relabeled, perm = relabeled_spec(spec, seed)
    q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
    rotation = q * np.sign(np.diag(r))
    rotation[:, 0] *= np.sign(np.linalg.det(rotation))
    vertices = np.empty_like(spec.vertices)
    vertices[perm] = spec.vertices @ rotation.T
    assert_geometry_matches_reference(PolyhedronSpec(name=spec.name, faces=relabeled.faces, vertices=vertices))


@pytest.mark.parametrize("seed", [None, 1, 2])
def test_face_coordinates_keep_the_bits_of_np_cross(seed):
    # `_face_basis` writes the cross products out component by component;
    # every face's 2D coordinates must keep the bits np.cross gives, on each
    # catalog shell as built and renamed, shuffled and turned
    for entry in CATALOG:
        spec = copy_of(builtin(entry.name))
        if seed is not None:
            relabeled, perm = relabeled_spec(spec, seed)
            q, r = np.linalg.qr(np.random.default_rng(seed).normal(size=(3, 3)))
            vertices = np.empty_like(spec.vertices)
            vertices[perm] = spec.vertices @ (q * np.sign(np.diag(r))).T
            spec = PolyhedronSpec(name=spec.name, faces=relabeled.faces, vertices=vertices)
        coords = [c.tobytes() for c in geometry._frames(spec).coords]
        assert coords == [reference_local_coords(spec, f).tobytes() for f in range(spec.n_faces)], entry.name


# an L-shaped parent and a quad hinged on the edge (2, 1)-(1, 1) next to the
# L's reflex corner: the quad lies wholly beyond the hinge line, as a child
# folded out does, but so does the L's upper arm, which the quad overlaps;
# the hinge line separates nothing here
CONCAVE_FLAT = np.array([[0, 0], [2, 0], [2, 1], [1, 1], [1, 2], [0, 2], [2, 1.8], [0.5, 1.8]], dtype=float)


def concave_parent_spec():
    return PolyhedronSpec(name="concave-parent", vertices=np.column_stack((CONCAVE_FLAT, np.zeros(8))),
                          faces=((0, 1, 2, 3, 4, 5), (3, 2, 6, 7)))


def test_child_over_a_concave_parent_is_still_flagged():
    flat = CONCAVE_FLAT
    layout = NetLayout(spec=concave_parent_spec(), cut=(), root_face=0, polygons=(flat[:6], flat[[3, 2, 6, 7]]),
                       hinges=((0, 1, (2, 3)),), markers=())
    arm = np.array([[0, 1], [1, 1], [1, 2], [0, 2]], dtype=float)
    assert shared_area(layout.polygons[1], arm) == pytest.approx(0.2)
    assert check_overlap(layout) == reference_check_overlap(layout) == (True, (0, 1))


def test_pair_tables_are_built_once_per_shell_and_freed_with_it(monkeypatch):
    source = builtin("truncated_cube")
    spec = PolyhedronSpec(name=source.name, faces=source.faces, vertices=source.vertices.copy())
    built = []
    monkeypatch.setattr(geometry, "_tables", lambda counts: built.append(counts) or _tables(counts))
    layouts = [unfold(spec, cut) for cut in class_cuts(spec)[:20]]
    verdicts = [check_overlap(layout) for layout in layouts]
    values = [centroid_and_rg(layout) for layout in layouts]
    copies = [moved(layout, 0.3, 2.0) for layout in layouts]
    assert [check_overlap(copy) for copy in copies] == verdicts
    # a layout made by hand with the shell's face sizes shares its tables too,
    # though without hinges the hinge rule has nothing to drop
    unhinged = [replace(layout, hinges=()) for layout in layouts]
    assert all(layout.hinge_ids.size == 0 for layout in unhinged)
    assert [check_overlap(layout) for layout in unhinged] == verdicts
    assert len(built) == 1
    tables = layouts[0].tables
    for layout in layouts + copies + unhinged:
        # one stack per net, its polygons views of it, and the shell's tables
        assert layout.tables is tables
        assert all(polygon.base is layout.points for polygon in layout.polygons)
    freed = [weakref.ref(tables.cross_e1)]
    # the path state goes with the spec too: the kept placements, moments and verdicts
    paths = geometry._PATHS[spec]
    assert paths.placed and paths.verdicts and (paths.moments[0].take(layouts[0].path_ids) > 0).all()
    freed += [weakref.ref(paths), weakref.ref(paths.points), weakref.ref(paths.moments),
              weakref.ref(paths.cols), weakref.ref(paths.boxes)]
    assert [centroid_and_rg(layout) for layout in layouts] == values
    del spec, layouts, copies, unhinged, tables, layout, paths
    gc.collect()
    assert [ref() for ref in freed] == [None] * len(freed)


def test_unfold_hands_its_stack_to_the_layout(monkeypatch):
    # unfold fills one stack, and its layout keeps that array: nothing is
    # stacked again.  A layout built from the same polygons, as
    # reference_unfold builds one, stacks its own copy into the same net.
    spec = copy_of(builtin("truncated_cube"))
    cuts = class_cuts(spec)[:20]
    unfold(spec, cuts[0])  # the shell's tables are stacked once, here
    stacked = []
    concatenate = np.concatenate
    monkeypatch.setattr(np, "concatenate", lambda *args, **kwargs: stacked.append(1) or concatenate(*args, **kwargs))
    layouts = [unfold(spec, cut) for cut in cuts]
    assert stacked == []
    monkeypatch.undo()
    for cut, layout in zip(cuts, layouts):
        # the polygons are cut from the stack when first read, and kept
        assert vars(layout)["polygons"] is None
        polygons = layout.polygons
        assert all(polygon.base is layout.points for polygon in polygons) and layout.polygons is polygons
        built = NetLayout(spec=spec, cut=layout.cut, root_face=layout.root_face, polygons=layout.polygons,
                          hinges=layout.hinges, markers=layout.markers)
        assert built.points is not layout.points and np.array_equal(built.points, layout.points)
        assert vars(built)["polygons"] is None
        assert all(polygon.base is built.points for polygon in built.polygons)
        # the same attribute order, so that all layouts share one dict of keys
        assert list(vars(built)) == list(vars(layout)) == [f.name for f in fields(NetLayout)]
        assert built.tables is layout.tables
        assert built.hinge_ids.dtype == layout.hinge_ids.dtype == np.intp
        assert np.array_equal(built.hinge_ids, layout.hinge_ids)
        assert check_overlap(built) == check_overlap(layout) == reference_check_overlap(layout)
        assert centroid_and_rg(built) == centroid_and_rg(layout)
        reference = reference_unfold(spec, cut)
        assert np.array_equal(reference.points, layout.points) and reference.tables is layout.tables


def copy_of(spec):
    """The same shell as a new spec object, whose placements are not yet kept."""
    return PolyhedronSpec(name=spec.name, faces=spec.faces, vertices=spec.vertices.copy())


CACHE_SHELLS = [("truncated_cube", None), ("rhombicuboctahedron", None), ("snub_cube", 0)]


@pytest.mark.parametrize("name, hole", CACHE_SHELLS)
def test_unfold_gives_the_reference_bits_whatever_ran_before(name, hole):
    shell = builtin(name) if hole is None else remove_faces(builtin(name), [hole])
    cuts = class_cuts(shell)[:400]
    other = shell.n_faces // 2
    # forward and then backward on one spec, and backward on a new spec with
    # nothing kept yet; each net from face 0 and then from a middle face
    warm = copy_of(shell)
    for spec, order in ((warm, cuts), (warm, cuts[::-1]), (copy_of(shell), cuts[::-1])):
        for cut in order:
            for root in (0, other):
                assert_same_layout(unfold(spec, cut, root_face=root), reference_unfold(spec, cut, root_face=root))
    assert 0 < len(geometry._PATHS[warm].placed) < 2 * len(cuts) * (shell.n_faces - 1)


def test_a_hinge_that_changes_length_fails_on_every_repeat():
    # face 0 is warped, so its hinge edge (1, 2) is shorter in the plane it
    # is placed in than in face 1's
    spec = PolyhedronSpec(
        name="warped-hinge",
        vertices=np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0.5], [0, 1, 0], [1, 0, 1], [1, 1, 1]], dtype=float),
        faces=((0, 1, 2, 3), (1, 4, 5, 2)),
    )
    cut = [(0, 1), (2, 3), (3, 0), (1, 4), (4, 5), (5, 2)]
    for _ in range(3):
        with pytest.raises(ValidationError, match=r"hinge edge \(1, 2\) changes length between faces"):
            unfold(spec, cut)
    assert geometry._PATHS[spec].placed == {}


def test_writing_into_a_layout_leaves_later_nets_as_they_were():
    spec = copy_of(builtin("truncated_cube"))
    cuts = class_cuts(spec)[:20]
    for cut in cuts:
        layout = unfold(spec, cut)
        layout.points[:] = 7.0
    for cut in cuts:
        assert_same_layout(unfold(spec, cut), reference_unfold(spec, cut))


def test_one_placement_and_one_marker_is_kept_per_distinct_path():
    spec = copy_of(builtin("truncated_cube"))
    faces_of = edge_face_table(spec)
    layouts = [unfold(spec, cut) for cut in class_cuts(spec)]
    assert len(layouts) == 399
    # a face's path is the hinges from the root to it, in placing order
    placements, markers = set(), set()
    for layout in layouts:
        path = {layout.root_face: ()}
        for hinge in layout.hinges:
            parent, child, _ = hinge
            placements.add((path[parent], hinge))
            path[child] = path[parent] + (hinge,)
        for marker in layout.markers:
            a, b = faces_of[canon_edge(marker.vertex, marker.far_vertex)]
            markers.add((marker.vertex, marker.far_vertex, path[a], path[b]))
    paths = geometry._PATHS[spec]
    assert len(paths.placed) == len(placements) == 196
    assert len(paths.markers) == len(markers)


def answers(layout):
    return repr((centroid_and_rg(layout), check_overlap(layout)))


# every class of each shell, or of snub_cube minus a face every 100th
# (113,436 classes; all of them under NETFOLD_LONG_RUN=1, about 11 minutes)
LONG_RUN = os.environ.get("NETFOLD_LONG_RUN", "") not in ("", "0")
WARM_SHELLS = [("truncated_cube", None, 1), ("rhombicuboctahedron", None, 1), ("snub_cube", None, 1),
               ("snub_cube", 0, 1 if LONG_RUN else 100)]


@pytest.mark.parametrize("name, hole, stride", WARM_SHELLS)
def test_kept_moments_and_verdicts_give_the_first_answers(name, hole, stride):
    # a first pass keeps each path's moments and each path pair's verdict,
    # and a second reads them: a layout of the second must answer as the
    # first did, as a rebuilt layout with no path ids does and as the
    # per-face reference does, from face 0 and from a middle face
    shell = builtin(name) if hole is None else remove_faces(builtin(name), [hole])
    spec = copy_of(shell)
    cuts = class_cuts(spec)[::stride]
    tolerances = set()
    for root in (0, spec.n_faces // 2):
        first = []
        for cut in cuts:
            layout = unfold(spec, cut, root_face=root)
            first.append(answers(layout))
            tolerances.add(geometry.RELATIVE_TOL * layout.mean_edge_length())
        for cut, expected in zip(cuts, first):
            layout = unfold(spec, cut, root_face=root)
            assert answers(layout) == answers(layout) == expected, (name, cut, root)
            rebuilt = NetLayout(spec=spec, cut=layout.cut, root_face=root, polygons=layout.polygons,
                                hinges=layout.hinges, markers=layout.markers)
            assert rebuilt.path_ids.size == 0 and answers(rebuilt) == expected, (name, cut, root)
            reference = repr((reference_centroid_and_rg(layout), reference_check_overlap(layout)))
            assert reference == expected, (name, cut, root)
    # each net's verdicts are kept under its own tolerance
    assert set(geometry._PATHS[spec].verdicts) == tolerances


def kept_state(paths):
    """Everything a shell's path state holds, as plain values."""
    rows = paths.n_rows
    return (dict(paths.placed), dict(paths.markers), rows, {tol: dict(v) for tol, v in paths.verdicts.items()},
            paths.points[:rows].tobytes(), paths.cols[:, :rows].tobytes(), paths.first.tobytes(),
            paths.boxes.tobytes(), paths.moments.tobytes(), set(paths.unchecked))


@pytest.mark.parametrize("name", ["truncated_cube", "rhombicuboctahedron"])
def test_a_second_pass_adds_no_kept_state(monkeypatch, name):
    # every net of a second pass over the same cuts hits the kept
    # placements, markers, moments and verdicts: a key that changed between
    # passes would turn hits into misses and screen again
    spec = copy_of(builtin(name))
    graph = build_shell_graph(spec)
    classes = dedupe_cuts(graph, enumerate_mlsts(graph).cuts, cut_group(graph))
    cuts = list(zip(classes.cuts.tolist(), classes.orbit_sizes.tolist()))
    screened = []
    screen_pairs = geometry._screen_pairs
    monkeypatch.setattr(geometry, "_screen_pairs", lambda *args: screened.append(args) or screen_pairs(*args))
    first = rank_nets(spec, cuts, graph=graph)
    assert screened
    # the block batch screens in runs of rows, not net by net: at most one
    # call per started run of `_SCREEN_ROWS` rows in each block
    pair_rows = geometry._frames(spec).tables.pair_rows
    rows = sum(int(pair_rows.take(args[6]).sum()) for args in screened)
    blocks = -(-len(cuts) // geometry._NET_BLOCK)
    assert len(screened) <= blocks + rows // geometry._SCREEN_ROWS
    paths = geometry._PATHS[spec]
    state = kept_state(paths)
    del screened[:]
    second = rank_nets(spec, cuts, graph=graph)
    assert screened == []
    assert kept_state(paths) == state
    ranked = [[(n.cut, repr(n.radius_of_gyration), n.overlapping, n.overlap_witness) for n in nets]
              for nets in (first, second)]
    assert ranked[0] == ranked[1]


def test_an_unfolded_overlapping_net_keeps_its_verdict():
    spec = concave_parent_spec()
    layout = unfold(spec, [])
    assert layout.path_ids.size == 2
    assert check_overlap(layout) == (True, (0, 1)) and geometry._PATHS[spec].verdicts
    assert check_overlap(layout) == check_overlap(unfold(spec, [])) == (True, (0, 1))
    assert check_overlap(layout) == reference_check_overlap(layout)


def test_a_layout_written_into_gets_the_reference_answers():
    # a face turned and moved onto face 0 after unfold, a rigid motion that
    # keeps every edge length: its paths' kept moments, verdicts, edge
    # columns and boxes no longer describe the layout, so none of them may
    # be used.  Its centroid goes to face 0's centroid or, every other net,
    # to face 0's first corner, where only the moved face's edges show the
    # overlap: its own centroid lies on face 0's boundary
    spec = copy_of(builtin("truncated_cube"))
    frames = geometry._frames(spec)
    for k, cut in enumerate(class_cuts(spec)[:20]):
        layout = unfold(spec, cut)
        expected = answers(layout)
        rows = layout.tables.slices
        moved_face = layout.points[rows[-1]]
        before = geometry._edge_columns(layout.points, layout.tables.successor)
        c, s = math.cos(0.3 + 0.1 * k), math.sin(0.3 + 0.1 * k)
        face_0 = layout.points[rows[0]]
        target = face_0.mean(axis=0) if k % 2 == 0 else face_0[0].copy()
        moved_face[:] = (moved_face - moved_face.mean(axis=0)) @ np.array([[c, s], [-s, c]])
        moved_face += target
        geometry._check_isometric(layout.points, frames)
        after = geometry._edge_columns(layout.points, layout.tables.successor)
        # every column of the face changed but its edge lengths
        assert (before[:6, rows[-1]] != after[:6, rows[-1]]).all()
        assert check_overlap(layout)[0] and check_overlap(layout) == reference_check_overlap(layout)
        rg = centroid_and_rg(layout)
        assert repr(rg) == repr(reference_centroid_and_rg(layout)) and repr(rg) not in expected
        # and the kept state still gives the untouched net its answers
        assert answers(unfold(spec, cut)) == expected


_tables = geometry._tables


@pytest.mark.parametrize("name", ["truncated_cube", "rhombicuboctahedron"])
def test_a_layout_with_other_face_sizes_gets_the_reference_verdict(name):
    # a layout whose faces are not the shell's own gets tables of its own
    # and no hinge rule, so the screen must give the reference verdict
    spec = builtin(name)
    shell_tables = geometry._frames(spec).tables
    flagged = 0
    for k, cut in enumerate(class_cuts(spec)[:40]):
        folded = folded_back(unfold(spec, cut))
        polygons = list(folded.polygons)
        big = max(range(len(polygons)), key=lambda f: len(polygons[f]))
        polygons[big] = polygons[big][:3]
        for net in (replace(folded, polygons=folded.polygons[:-1]), replace(folded, polygons=tuple(polygons))):
            assert net.tables is not shell_tables and net.hinge_ids.size == 0
            verdict = check_overlap(net)
            assert verdict == reference_check_overlap(net), (name, cut)
            flagged += verdict[0]
    assert flagged


def test_a_stacked_layout_takes_every_field_by_name():
    # a field left out, as a field added to NetLayout and not passed by
    # unfold would be, fails at once; so does a name that is no field
    spec = builtin("cube")
    layout = unfold(spec, class_cuts(spec)[0])
    values = {f.name: getattr(layout, f.name) for f in fields(NetLayout) if f.name != "polygons"}
    again = NetLayout._stacked(**values)
    assert list(vars(again)) == list(vars(layout)) and again.points is layout.points
    assert vars(again)["polygons"] is None and all(p.base is again.points for p in again.polygons)
    with pytest.raises(KeyError, match="markers"):
        NetLayout._stacked(**{k: v for k, v in values.items() if k != "markers"})
    with pytest.raises(TypeError, match="no fields"):
        NetLayout._stacked(**values, colour="red")


def ranked_values(nets):
    return [(n.cut, repr(n.radius_of_gyration), n.overlapping, n.overlap_witness) for n in nets]


def per_net_ranking(spec, cuts, graph):
    """What `rank_nets` answers, from a loop over the nets one at a time:
    `unfold`, then `centroid_and_rg`, then `check_overlap`."""
    rows = []
    for edge_ids, _ in cuts:
        layout = unfold(spec, [graph.edges[e] for e in edge_ids])
        rg = centroid_and_rg(layout)[1]
        rows.append((rg, tuple(edge_ids), check_overlap(layout)))
    rows.sort(key=lambda row: row[:2])
    return [(cut, repr(rg), overlapping, witness) for rg, cut, (overlapping, witness) in rows]


def ranked_cuts(shell):
    graph = build_shell_graph(shell)
    classes = dedupe_cuts(graph, enumerate_mlsts(graph).cuts, cut_group(graph))
    return graph, list(zip(classes.cuts.tolist(), classes.orbit_sizes.tolist()))


# every class of each shell, or of snub_cube minus a face every 100th
BLOCK_SHELLS = [("truncated_cube", None, 1), ("rhombicuboctahedron", None, 1), ("snub_cube", None, 1),
                ("truncated_cube", 0, 1), ("snub_cube", 0, 1 if LONG_RUN else 100)]


@pytest.mark.parametrize("name, hole, stride", BLOCK_SHELLS)
def test_blocks_of_any_size_give_the_per_net_answers_and_state(monkeypatch, name, hole, stride):
    # blocks of one net, of seven nets and one block of every net rank as
    # the per-net loop does, and leave the same placements, markers, moments
    # and verdicts kept
    shell = builtin(name) if hole is None else remove_faces(builtin(name), [hole])
    graph, cuts = ranked_cuts(shell)
    cuts = cuts[::stride]
    spec = copy_of(shell)
    expected = per_net_ranking(spec, cuts, graph)
    state = kept_state(geometry._PATHS[spec])
    for block in (1, 7, len(cuts) + 1):
        monkeypatch.setattr(geometry, "_NET_BLOCK", block)
        spec = copy_of(shell)
        assert ranked_values(rank_nets(spec, cuts, graph)) == expected, (name, hole, block)
        assert kept_state(geometry._PATHS[spec]) == state, (name, hole, block)
        assert len(geometry._PATHS[spec].answers) == 0  # each net took its answer


def patched_copy(shell, changes):
    """A new spec of the shell whose frames place the child across each hinge
    h of `changes` by `changes[h](*move)`, from the hinge's placing data
    (`_Frames.moves`)."""
    spec = copy_of(shell)
    frames = geometry._frames(spec)
    moves = list(frames.moves)
    for h, change in changes.items():
        moves[h] = change(*moves[h])
    geometry._FRAMES[spec] = frames._replace(moves=tuple(moves))
    return spec


def longer(iu, iv, rel, d, dx, dy, length):
    """The child's copy of its hinge edge a millionth longer than the parent's."""
    return iu, iv, rel, d, dx, dy, length * (1.0 + 1e-6)


def mirrored(iu, iv, rel, d, dx, dy, length):
    """The child reflected in its hinge line, which turns it clockwise and
    keeps every edge length."""
    axis = d / length
    return iu, iv, 2.0 * np.outer(rel @ axis, axis) - rel, d, dx, dy, length


def per_net_error(spec, cuts, graph):
    """The type and message of the first error of the per-net loop."""
    with pytest.raises(ValidationError) as caught:
        per_net_ranking(spec, cuts, graph)
    return type(caught.value), str(caught.value)


def rank_nets_error(spec, cuts, graph):
    with pytest.raises(ValidationError) as caught:
        rank_nets(spec, cuts, graph)
    return type(caught.value), str(caught.value)


def test_errors_in_a_block_come_in_the_per_net_order(monkeypatch):
    # net 1 has a face turned clockwise, which only its R_g notices, and
    # net `late` crosses a hinge that changes length, which its unfold
    # notices: in one block the late net's unfold fails first, yet the
    # block's earlier nets are measured before its error is raised, so
    # either order fails as the per-net loop does
    shell = builtin("truncated_cube")
    graph, cuts = ranked_cuts(shell)
    hinges = [set(unfold(shell, [graph.edges[e] for e in cut]).hinge_ids.tolist()) for cut, _ in cuts]
    turned = next(h for h in sorted(hinges[1] - hinges[0])
                  if "counter-clockwise" in per_net_error(patched_copy(shell, {h: mirrored}), cuts[1:2], graph)[1])
    late, changed = next((k, h) for k in range(2, len(cuts)) for h in sorted(hinges[k] - hinges[0] - hinges[1]))
    changes = {turned: mirrored, changed: longer}
    for order, message in (([0, 1, late], "counter-clockwise"), ([0, late, 1], "changes length")):
        ordered = [cuts[k] for k in order]
        expected = per_net_error(patched_copy(shell, changes), ordered, graph)
        assert message in expected[1]
        for block in (1, 2, 7, geometry._NET_BLOCK):
            monkeypatch.setattr(geometry, "_NET_BLOCK", block)
            assert rank_nets_error(patched_copy(shell, changes), ordered, graph) == expected, (order, block)


def test_a_hinge_that_changes_length_mid_block_fails_as_the_per_net_loop(monkeypatch):
    # the first nets of the block unfold and the fourth crosses the hinge
    shell = builtin("rhombicuboctahedron")
    graph, cuts = ranked_cuts(shell)
    hinges = [set(unfold(shell, [graph.edges[e] for e in cut]).hinge_ids.tolist()) for cut, _ in cuts]
    changed = min(hinges[3] - hinges[0] - hinges[1] - hinges[2])
    expected = per_net_error(patched_copy(shell, {changed: longer}), cuts, graph)
    assert "changes length" in expected[1]
    for block in (1, 7, len(cuts)):
        monkeypatch.setattr(geometry, "_NET_BLOCK", block)
        spec = patched_copy(shell, {changed: longer})
        assert rank_nets_error(spec, cuts, graph) == expected, block
        # the nets before it were measured, and their paths kept
        assert geometry._PATHS[spec].moments[0].any()


# the L-shaped parent with a second quad hinged on its other reflex edge,
# (1, 1)-(1, 2): it reaches down over the L's lower arm and over the first
# quad, so all three face pairs overlap
TWO_CHILD_FLAT = np.vstack((CONCAVE_FLAT, [[1.8, 0.2], [1.8, 2.0]]))


def two_child_spec():
    return PolyhedronSpec(name="concave-parent-two-children", vertices=np.column_stack((TWO_CHILD_FLAT, np.zeros(10))),
                          faces=((0, 1, 2, 3, 4, 5), (3, 2, 6, 7), (4, 3, 8, 9)))


@pytest.mark.parametrize("make_spec, overlapping", [
    (concave_parent_spec, [(0, 1)]),
    (two_child_spec, [(0, 1), (0, 2), (1, 2)]),
])
def test_rank_nets_keeps_the_lowest_overlapping_pair_as_witness(make_spec, overlapping):
    # the hinge lines separate none of these pairs, so the block's screen
    # must test them, and the witness is the lowest pair that overlaps
    spec = make_spec()
    (net,) = rank_nets(spec, [((), 1)], build_shell_graph(spec))
    faces = range(spec.n_faces)
    assert [(i, j) for i in faces for j in faces if i < j and pair_overlaps(net.layout, i, j)] == overlapping
    assert (net.overlapping, net.overlap_witness) == (True, overlapping[0])
    assert check_overlap(net.layout) == reference_check_overlap(net.layout) == (True, overlapping[0])
