"""Self-tests of the benchmark: input generator, overlap oracle, metric names.

Run from the repository root: python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from netfold import build_shell_graph, builtin, dedupe_cuts, enumerate_mlsts, find_automorphisms  # noqa: E402

from oracle import derive_rank_reference, intersection_area, net_overlaps  # noqa: E402
from run import END_TO_END_UNITS, tally  # noqa: E402
from shells import relabel  # noqa: E402
from spans import UNITS, layer_metrics, span_table  # noqa: E402
from workloads import EXPECTED, WORKLOADS, mean_face_edge_length, shell_edges  # noqa: E402

SEEDS = (1, 2, 3)


def signed_volume(vertices, faces) -> float:
    total = 0.0
    for face in faces:
        a = vertices[face[0]]
        for k in range(1, len(face) - 1):
            total += float(np.dot(a, np.cross(vertices[face[k]], vertices[face[k + 1]])))
    return total / 6.0


@pytest.mark.parametrize("name", ["cube", "cuboctahedron"])
@pytest.mark.parametrize("seed", SEEDS)
def test_relabelling_is_congruent(name, seed):
    spec = builtin(name)
    shell = relabel(name, spec.vertices, spec.faces, seed, hole=0)
    n = spec.n_vertices
    assert sorted(shell.vertex_map.tolist()) == list(range(n))
    assert sorted(shell.face_order.tolist()) == list(range(spec.n_faces))
    # same cycles up to a cyclic shift, never reversed
    for k, face in enumerate(shell.faces):
        mapped = [int(shell.vertex_map[v]) for v in spec.faces[shell.face_order[k]]]
        assert any(face == tuple(mapped[s:] + mapped[:s]) for s in range(len(mapped)))
    assert shell.face_order[shell.hole] == 0
    # a similarity: all distances scale by one factor, orientation kept
    old = spec.vertices
    new = shell.vertices[shell.vertex_map]
    d_old = np.linalg.norm(old[:, None] - old[None], axis=-1)
    d_new = np.linalg.norm(new[:, None] - new[None], axis=-1)
    assert np.allclose(d_new, shell.scale * d_old, rtol=1e-12, atol=1e-12)
    assert np.isclose(np.linalg.det(shell.rotation), 1.0)
    vol_old = signed_volume(old, spec.faces)
    vol_new = signed_volume(shell.vertices, shell.faces)
    assert vol_old > 0 and np.isclose(vol_new, vol_old * shell.scale**3)
    # the program's counts do not depend on the labelling
    doc = shell.document()
    assert np.isclose(mean_face_edge_length(doc), shell.scale * mean_face_edge_length(
        {"vertices": spec.vertices.tolist(), "faces": spec.faces}))
    from netfold.io import polyhedron_from_doc

    graph = build_shell_graph(polyhedron_from_doc(json.loads(json.dumps(doc))))
    assert list(graph.edges) == shell_edges(doc)
    result = enumerate_mlsts(graph, workers=1)
    reference = enumerate_mlsts(build_shell_graph(spec), workers=1)
    assert result.leaf_count == reference.leaf_count
    assert len(result.cuts) == len(reference.cuts)
    classes = dedupe_cuts(graph, result.cuts, find_automorphisms(graph))
    assert len(classes) == builtin_classes(name)


def builtin_classes(name):
    from netfold.catalog import catalog_entry

    return catalog_entry(name).optimal_nets


def test_same_seed_same_shell():
    spec = builtin("snub_cube")
    a = relabel("snub_cube", spec.vertices, spec.faces, 7, hole=0)
    b = relabel("snub_cube", spec.vertices, spec.faces, 7, hole=0)
    c = relabel("snub_cube", spec.vertices, spec.faces, 8, hole=0)
    assert a.document() == b.document() and a.hole == b.hole
    assert a.document() != c.document()


def test_hole_face_is_off_the_three_fold_axes():
    spec = builtin("snub_cube")
    hole = WORKLOADS["enumerate-open"][0].hole
    face = spec.faces[hole]
    centre = spec.vertices[list(face)].mean(axis=0)
    direction = np.abs(centre / np.linalg.norm(centre))
    assert len(face) == 3
    assert not np.allclose(direction, 1 / np.sqrt(3))


UNIT_SQUARE = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]


def shifted(poly, dx, dy, scale=1.0):
    return [(x * scale + dx, y * scale + dy) for x, y in poly]


@pytest.mark.parametrize("other, overlaps", [
    (shifted(UNIT_SQUARE, 0.5, 0.5), True),           # partial overlap
    (shifted(UNIT_SQUARE, 1.0, 0.0), False),          # shared edge
    (shifted(UNIT_SQUARE, 1.0, 1.0), False),          # shared corner
    (list(UNIT_SQUARE), True),                        # coincidence
    (shifted(UNIT_SQUARE, 0.25, 0.25, 0.5), True),    # containment
    ([(1.0, 0.0), (2.0, 0.0), (1.5, -1.0)], False),   # collinear edges meeting at a vertex
    ([(1.0, 0.0), (3.0, 0.0), (2.0, 2.0)], False),    # collinear edges sharing a vertex, triangle beside
    ([(2.0, 0.0), (3.0, 0.0), (2.5, 1.0)], False),    # disjoint
])
def test_oracle_on_synthetic_layouts(other, overlaps):
    assert net_overlaps([UNIT_SQUARE, other], 1.0) is overlaps
    assert net_overlaps([other, UNIT_SQUARE], 1.0) is overlaps
    # rotated and scaled, so touching edges are no longer exactly axis-aligned
    c, s = np.cos(0.7), np.sin(0.7)
    turn = np.array([[c, -s], [s, c]]) * 1.7
    moved = [(np.asarray(p) @ turn.T).tolist() for p in (UNIT_SQUARE, other)]
    assert net_overlaps(moved, 1.7) is overlaps


def test_intersection_area_of_offset_squares():
    assert intersection_area(UNIT_SQUARE, shifted(UNIT_SQUARE, 0.5, 0.5)) == pytest.approx(0.25)
    assert intersection_area(UNIT_SQUARE, shifted(UNIT_SQUARE, 0.25, 0.25, 0.5)) == pytest.approx(0.25)


def test_rank_references_rederive():
    for (command, name), want in EXPECTED.items():
        if command != "rank":
            continue
        got = derive_rank_reference(name)
        assert got["nets"] == want["classes"]
        assert got["overlapping"] == want["overlapping"]
        assert got["rg_per_edge"] == pytest.approx(want["rg_per_edge"], rel=1e-12)


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_metric_names_and_units_match_benchmark_json():
    spec = benchmark_spec()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == UNITS


def test_tally_counts_each_operation_once_over_passes():
    records = [
        {"id": "a", "exact": [], "screen": []},
        {"id": "b", "exact": [], "screen": []},
        {"id": "a", "exact": [], "screen": ["overlap screen flags 3 nets"]},
        {"id": "b", "exact": [], "screen": []},
    ]
    assert tally(records, 2) == {"correct": True, "attempted": 2, "failed": 1}
    records[1]["exact"].append("classes: got 1, expected 2")
    assert tally(records, 2) == {"correct": False, "attempted": 2, "failed": 2}


def test_layer_metrics_cover_every_per_layer_name():
    dump = {
        "spans": [
            [0, None, "op", "cli.count", 0.0, 10.0],
            [1, 0, "op", "mlst.enumerate_interiors", 1.0, 7.0],
            [2, 0, "op", "symmetry.count_net_classes", 7.0, 9.0],
        ],
        "counters": [("op", "mlst.nodes", 3_000_000), ("op", "mlst.interiors", 300),
                     ("op", "mlst.last_level_nodes", 1_500_000)],
    }
    values = layer_metrics(dump)
    values.update({"setup.import_s": 1.0, "process.cpu_s": 1.0, "trace.overhead_s": 0.1})
    assert set(values) == set(UNITS)
    assert values["mlst.search_s"] == 6.0
    assert values["mlst.nodes_per_s"] == 500_000.0
    assert values["mlst.interiors_per_mnode"] == 100.0
    assert values["mlst.last_level_node_share"] == 0.5
    assert values["trace.coverage"] == 0.8
    table = span_table(dump["spans"])
    assert table["cli.count"]["self_s"] == pytest.approx(2.0)
    assert table["mlst.enumerate_interiors"]["self_s"] == 6.0


def run_child(tmp_path, mode, ops):
    plan = {"mode": mode, "ops": ops, "result": f"result-{mode}.json"}
    (tmp_path / f"plan-{mode}.json").write_text(json.dumps(plan), encoding="utf-8")
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": ""}
    subprocess.run([sys.executable, str(BENCH / "child.py"), f"plan-{mode}.json"],
                   cwd=tmp_path, env=env, check=True, timeout=120)
    return json.loads((tmp_path / plan["result"]).read_text(encoding="utf-8"))


def test_traced_pass_spans_the_real_cli(tmp_path):
    spec = builtin("cuboctahedron")
    relabel("cuboctahedron", spec.vertices, spec.faces, 1, hole=None).write(tmp_path / "shell.json")
    argv = ["rank", "--input", "shell.json", "--workers", "1", "--svg-ranks", "1", "--out-dir"]
    plain = run_child(tmp_path, "cli", [{"id": "a", "argv": argv + ["out-cli"]}])
    traced = run_child(tmp_path, "traced", [{"id": "a", "argv": argv + ["out-traced"]}])
    assert plain["ops"][0]["rc"] == traced["ops"][0]["rc"] == 0
    assert plain["ops"][0]["stdout"].replace("out-cli", "out-traced") == traced["ops"][0]["stdout"]
    assert plain["ops"][0]["backends"] == traced["ops"][0]["backends"] == ["python"]
    for name in ("ranking.csv", "net-rank-0001.svg"):
        assert (tmp_path / "out-cli" / name).read_bytes() == (tmp_path / "out-traced" / name).read_bytes()
    spans = traced["trace"]["spans"]
    table = span_table(spans)
    nets = builtin_classes("cuboctahedron")
    assert table["cli.rank"]["calls"] == 1
    for name in ("geometry.unfold", "geometry.centroid_and_rg", "geometry.check_overlap"):
        assert table[name]["calls"] == nets
    # per-net spans sit inside the real rank_nets, which sits inside the command
    by_id = {s[0]: s for s in spans}
    overlap = next(s for s in spans if s[3] == "geometry.check_overlap")
    assert by_id[overlap[1]][3] == "geometry.rank_nets"
    assert by_id[by_id[overlap[1]][1]][3] == "cli.rank"
    values = layer_metrics(traced["trace"])
    assert values["geometry.nets"] == values["symmetry.classes"] == nets
    assert values["io.bytes_written"] == sum(p.stat().st_size for p in (tmp_path / "out-traced").iterdir())


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "count-closed", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
