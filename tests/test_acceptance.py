"""Acceptance gate: one test per release criterion.

Each criterion is a single test named test_criterion_NN_*; the terminal
summary hook in conftest.py prints one CRITERION line per result.  Criterion
5 runs the largest catalog shell end to end and is gated behind
NETFOLD_LONG_RUN=1 (a few minutes); everything else finishes in seconds.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest

from helpers import ratio_rank_correlation
from netfold.analysis import build_statistics_table, estimate_comparison, plot_data
from netfold.catalog import CATALOG, builtin
from netfold.geometry import centroid_and_rg, rank_nets, unfold
from netfold.holes import boundary_edge_ids, enumerate_hole_cuts, remove_faces
from netfold.io import write_estimates, write_plot_data
from netfold.mlst import count_labeled_cuts, enumerate_interiors, enumerate_mlsts
from netfold.polyhedra import PolyhedronSpec
from netfold.shellgraph import (
    ShellGraph,
    build_shell_graph,
    count_spanning_trees,
    cut_leaves,
    enumerate_spanning_trees,
)
from netfold.symmetry import (
    count_net_classes,
    dedupe_cuts,
    edge_set_stabilizer,
    find_automorphisms,
)
from netfold.cli import main as cli_main

LONG_RUN = os.environ.get("NETFOLD_LONG_RUN", "") not in ("", "0")


def _classes(name):
    spec = builtin(name)
    graph = build_shell_graph(spec)
    result = enumerate_mlsts(graph)
    classes = dedupe_cuts(graph, result.cuts, find_automorphisms(graph))
    return spec, graph, result, classes


def test_criterion_01_small_solid_reproduction():
    """Leaf counts, labeled cut counts, and net classes of the five classics."""
    expected = {
        "tetrahedron": (3, None, 1),
        "cube": (4, 120, 4),
        "octahedron": (4, None, 2),
        "icosahedron": (8, None, 21),
        "dodecahedron": (10, 1980, 21),
    }
    for name, (leaves, labeled, n_classes) in expected.items():
        _, _, result, classes = _classes(name)
        assert result.leaf_count == leaves, name
        if labeled is not None:
            assert len(result.cuts) == labeled, name
        assert len(classes) == n_classes, name


def test_criterion_02_spanning_tree_counts():
    """Determinant spanning-tree counts, exactly; K4 against the oracle."""
    for name, count in (("cube", 384), ("octahedron", 384), ("dodecahedron", 5_184_000)):
        assert count_spanning_trees(build_shell_graph(builtin(name))) == count, name
    k4 = ShellGraph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert count_spanning_trees(k4) == 16
    assert len(enumerate_spanning_trees(k4)) == 16


def test_criterion_03_mid_size_catalog():
    """Exact optimal-net class counts across the mid-size catalog."""
    expected = {
        "truncated_tetrahedron": 4,
        "cuboctahedron": 34,
        "truncated_cube": 399,
        "truncated_octahedron": 56,
        "rhombicuboctahedron": 32,
        "snub_cube": 600,
        "truncated_cuboctahedron": 244,
    }
    for name, n_classes in expected.items():
        graph = build_shell_graph(builtin(name))
        interiors = enumerate_interiors(graph)
        labeled = count_labeled_cuts(interiors)
        if name == "rhombicuboctahedron":
            assert labeled == 1536
        group = find_automorphisms(graph)
        assert count_net_classes(graph, interiors.interiors, group) == n_classes, name


def test_criterion_04_open_shells():
    """Hole cuts: the open cube has one; a nine-face cap leaves 720/90."""
    open_cube = remove_faces(builtin("cube"), [0])
    g = build_shell_graph(open_cube, require_closed=False)
    assert len(enumerate_hole_cuts(g).cuts) == 1

    spec = builtin("rhombicuboctahedron")
    cap = [f for f in range(spec.n_faces)
           if all(spec.vertices[v][2] > 0.9 for v in spec.faces[f])]
    assert len(cap) == 9
    open_spec = remove_faces(spec, cap)
    g9 = build_shell_graph(open_spec, require_closed=False)
    result = enumerate_hole_cuts(g9)
    assert len(result.cuts) == 720
    group = find_automorphisms(g9)
    stabilizer = edge_set_stabilizer(g9, group, boundary_edge_ids(g9))
    assert len(dedupe_cuts(g9, result.cuts, stabilizer)) == 90


@pytest.mark.skipif(not LONG_RUN, reason="set NETFOLD_LONG_RUN=1 to run the largest shell")
def test_criterion_05_truncated_icosahedron_end_to_end():
    """Full pipeline on the 90-edge shell: counts and compactness spectrum."""
    spec, graph, result, classes = _classes("truncated_icosahedron")
    assert result.leaf_count == 30
    assert len(result.cuts) == 484_800
    assert len(classes) == 4114
    ranked = rank_nets(spec, [(c.edges, c.orbit_size) for c in classes], graph=graph)
    rg = [net.radius_of_gyration for net in ranked]
    assert rg == sorted(rg)
    assert 1.35 <= rg[-1] / rg[0] <= 1.45
    assert 1.20 <= rg[2056] / rg[0] <= 1.26
    assert not any(net.overlapping for net in ranked)


def test_criterion_06_oracle_equivalence_suite():
    """Search output equals the brute-force filter wherever the oracle reaches."""
    checked = []
    for entry in CATALOG:
        if entry.long_run:
            continue
        graph = build_shell_graph(builtin(entry.name))
        n_st = count_spanning_trees(graph)
        if n_st > 1_000_000:
            continue
        trees = enumerate_spanning_trees(graph)
        assert len(trees) == n_st, entry.name
        best = max(len(cut_leaves(graph, t)) for t in trees)
        filtered = sorted(t for t in trees if len(cut_leaves(graph, t)) == best)
        result = enumerate_mlsts(graph)
        assert result.leaf_count == best, entry.name
        found = sorted(tuple(int(e) for e in row) for row in result.cuts)
        assert found == [tuple(t) for t in filtered], entry.name
        checked.append(entry.name)
    assert set(checked) >= {
        "tetrahedron", "cube", "octahedron", "octagonal_pyramid",
        "octagonal_dipyramid", "truncated_tetrahedron", "cuboctahedron",
    }


def test_criterion_07_geometry_properties():
    """Radius of gyration exactness, invariances, isometry, and markers."""
    # A unit square's radius of gyration about its centroid is sqrt(1/6).
    square = PolyhedronSpec(
        name="unit-square",
        vertices=np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float),
        faces=((0, 1, 2, 3),),
    )
    _, rg_square = centroid_and_rg(unfold(square, []))
    assert abs(rg_square - math.sqrt(1 / 6)) < 1e-12

    spec, graph, result, classes = _classes("cube")
    pairs = [(c.edges, c.orbit_size) for c in classes]
    base = rank_nets(spec, pairs, graph=graph)

    # Rigid motion of the solid leaves every radius of gyration unchanged.
    angle = 0.7
    axis = np.array([1.0, 2.0, 3.0]) / math.sqrt(14.0)
    k = np.array([
        [0.0, -axis[2], axis[1]],
        [axis[2], 0.0, -axis[0]],
        [-axis[1], axis[0], 0.0],
    ])
    rot = np.eye(3) + math.sin(angle) * k + (1 - math.cos(angle)) * (k @ k)
    moved = PolyhedronSpec(
        name="cube-moved",
        vertices=spec.vertices @ rot.T + np.array([3.0, -1.0, 2.5]),
        faces=spec.faces,
    )
    for a, b in zip(base, rank_nets(moved, pairs, graph=graph)):
        assert math.isclose(a.radius_of_gyration, b.radius_of_gyration, rel_tol=1e-9)

    # The unfolded shape does not depend on which face anchors the layout.
    cut_pairs = [graph.edges[e] for e in classes[0].edges]
    rg_by_root = [
        centroid_and_rg(unfold(spec, cut_pairs, root_face=f))[1]
        for f in range(spec.n_faces)
    ]
    for rg in rg_by_root[1:]:
        assert math.isclose(rg, rg_by_root[0], rel_tol=1e-9)

    # Every placed polygon keeps its 3D edge lengths, and marker count equals
    # the leaf count on every net class of every small closed shell.
    for name in ("tetrahedron", "cube", "octahedron", "icosahedron", "dodecahedron"):
        spec_n, graph_n, result_n, classes_n = _classes(name)
        for cls in classes_n:
            layout = unfold(spec_n, [graph_n.edges[e] for e in cls.edges])
            for face, poly in enumerate(layout.polygons):
                pts3 = spec_n.vertices[list(spec_n.faces[face])]
                for i in range(len(poly)):
                    j = (i + 1) % len(poly)
                    flat = float(np.linalg.norm(poly[j] - poly[i]))
                    solid = float(np.linalg.norm(pts3[j] - pts3[i]))
                    assert math.isclose(flat, solid, rel_tol=1e-9)
            assert len(layout.markers) == result_n.leaf_count


def test_criterion_08_estimate_reproduction(tmp_path):
    """Trend tables are emitted; the cut-share slope is negative; residuals land on disk."""
    rows = build_statistics_table(names=[e.name for e in CATALOG if not e.long_run])
    assert all(row.status == "complete" for row in rows)

    series = plot_data(rows)
    assert len(series["leaves_vs_edges"]) == len(rows)
    closed_rows = [r for r in rows if r.closed]
    assert len(series["optimal_ratio_vs_edges"]) == len(closed_rows)

    # Leaf counts grow with edge count; the optimal-cut share falls.
    xs = [x for x, _ in series["leaves_vs_edges"]]
    ys = [y for _, y in series["leaves_vs_edges"]]
    from scipy.stats import spearmanr
    assert spearmanr(xs, ys).statistic > 0
    assert ratio_rank_correlation(rows) < 0

    write_plot_data(tmp_path / "plots", series)
    write_estimates(tmp_path / "estimates.tsv", estimate_comparison(rows))
    report = (tmp_path / "estimates.tsv").read_text().splitlines()
    assert len(report) == 1 + len(rows)
    assert report[0].split("\t")[0] == "name"
    assert sorted(p.name for p in (tmp_path / "plots").iterdir()) == [
        "leaves_vs_edges.tsv",
        "optimal_ratio_vs_edges.tsv",
        "trees_per_automorphism_vs_edges.tsv",
    ]


def test_criterion_09_deterministic_result_files(tmp_path):
    """Byte-identical result files across repeated runs and worker counts."""
    file_sets = []
    for tag, workers in (("w1", "1"), ("w4", "4"), ("again", "1")):
        out = tmp_path / tag
        rc = cli_main([
            "rank", "--builtin", "cube", "--workers", workers,
            "--out-dir", str(out), "--svg-ranks", "1",
        ])
        assert rc == 0
        rc = cli_main([
            "enumerate", "--builtin", "cube", "--workers", workers,
            "--out-dir", str(out),
        ])
        assert rc == 0
        file_sets.append({
            p.name: p.read_bytes() for p in sorted(Path(out).iterdir())
        })
    assert sorted(file_sets[0]) == [
        "classes.json", "enumeration.json", "net-rank-0001.svg", "ranking.csv",
    ]
    assert file_sets[0] == file_sets[1] == file_sets[2]
