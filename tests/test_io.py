"""Shell documents and result files: round trips, diagnostics, determinism."""

import json

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from netfold import io as nio
from netfold.catalog import builtin
from netfold.errors import MissingGeometryError, ValidationError
from netfold.geometry import rank_nets
from netfold.io import (
    load_polyhedron,
    polyhedron_from_doc,
    polyhedron_to_doc,
    save_polyhedron,
    write_dedup,
    write_enumeration,
    write_estimates,
    write_plot_data,
    write_ranking,
    write_statistics,
)
from netfold.analysis import build_statistics_table, estimate_comparison
from netfold.mlst import enumerate_mlsts
from netfold.shellgraph import build_shell_graph
from netfold.cli import EXIT_OK, main
from netfold.symmetry import CutClasses, dedupe_cuts, find_automorphisms


def test_polyhedron_round_trip(tmp_path):
    spec = builtin("cube")
    path = tmp_path / "cube.json"
    save_polyhedron(spec, path)
    loaded = load_polyhedron(path)
    assert loaded.name == spec.name
    assert loaded.faces == spec.faces
    assert np.allclose(loaded.vertices, spec.vertices)


def test_faces_only_round_trip(tmp_path):
    doc = {"name": "square-tube", "vertices": None,
           "faces": [[0, 1, 5, 4], [1, 2, 6, 5], [2, 3, 7, 6], [3, 0, 4, 7]]}
    path = tmp_path / "tube.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    spec = load_polyhedron(path)
    assert spec.vertices is None
    assert len(spec.faces) == 4
    with pytest.raises(MissingGeometryError, match="square-tube"):
        spec.require_geometry()
    # Re-saving reproduces the same document content.
    out = tmp_path / "tube-out.json"
    save_polyhedron(spec, out)
    assert json.loads(out.read_text())["vertices"] is None


@pytest.mark.parametrize(
    "doc, fragment",
    [
        ([1, 2], "must be an object"),
        ({"name": "x", "faces": [[0, 1, 2]], "extra": 1}, "unknown shell document fields: 'extra'$"),
        ({"name": "x", "faces": [[0, 1, 2]], "k" * 5000: 1}, "unknown shell document fields: a string$"),
        ({"name": "x", "faces": [[0, 1, 2]], **dict.fromkeys("edcba", 1)},
         "unknown shell document fields: 'a', 'b', 'c' and 2 more$"),
        ({"name": "", "faces": [[0, 1, 2]]}, "'name'"),
        ({"name": "x", "faces": []}, "'faces'"),
        ({"name": "x", "faces": [[0, 1]]}, "face 0 must list at least 3"),
        ({"name": "x", "faces": [[0, 1, 2], [0, 1, "2"]]}, "face 1 entry 2 is '2'"),
        ({"name": "x", "faces": [[0, 1, -2]]}, "face 0 entry 2 is -2"),
        ({"name": "x", "faces": [[0, 1, 2]], "vertices": 5}, "'vertices'"),
        ({"name": "x", "faces": [[0, 1, 2]], "vertices": [[0.0, 1.0]]}, "vertex 0"),
        ({"name": "x", "faces": [[0, 1, None]]}, "face 0 entry 2 is None;"),
        ({"name": "x", "faces": [[0, 1, [2]]]}, "face 0 entry 2 is a list;"),
        ({"name": "x", "faces": [[0, 1, {"v": 2}]]}, "face 0 entry 2 is an object;"),
        ({"name": "x", "faces": [[0, 1, "2" * 100]]}, "face 0 entry 2 is a string;"),
    ],
)
def test_malformed_documents_name_the_fault(doc, fragment):
    with pytest.raises(ValidationError, match=fragment):
        polyhedron_from_doc(doc)


def test_load_reports_path_and_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"name": "x",\n  faces: []}', encoding="utf-8")
    with pytest.raises(ValidationError) as exc:
        load_polyhedron(path)
    assert "broken.json" in str(exc.value)
    assert "line 2" in str(exc.value)


def _canonical_json(doc):
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def test_enumeration_doc_and_file(tmp_path):
    graph = build_shell_graph(builtin("tetrahedron"))
    result = enumerate_mlsts(graph)
    path = tmp_path / "enum.json"
    write_enumeration(
        path,
        graph=graph,
        leaf_count=result.leaf_count,
        cuts=result.cuts,
        nodes_visited=result.nodes_visited,
        shell_name="tetrahedron",
    )
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["leaf_count"] == 3
    assert doc["n_labeled_cuts"] == 4
    assert doc["cuts"] == sorted(doc["cuts"]) == result.cuts.tolist()
    assert doc["edges"] == [list(e) for e in graph.edges]
    # the streamed file is the canonical dump of the document it holds
    assert path.read_text(encoding="utf-8") == _canonical_json(doc)


def test_enumeration_rows_must_be_in_order(tmp_path):
    graph = build_shell_graph(builtin("tetrahedron"))
    cuts = enumerate_mlsts(graph).cuts
    for bad in (cuts[::-1], np.concatenate([cuts, cuts[-1:]])):
        with pytest.raises(ValidationError, match="lexicographic"):
            write_enumeration(
                tmp_path / "enum.json", graph=graph, leaf_count=3, cuts=bad,
                nodes_visited=0, shell_name="tetrahedron",
            )


def test_dedup_doc_totals(tmp_path):
    graph = build_shell_graph(builtin("cube"))
    result = enumerate_mlsts(graph)
    classes = dedupe_cuts(graph, result.cuts, find_automorphisms(graph))
    path = tmp_path / "classes.json"
    write_dedup(path, classes, "cube")
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert doc["n_classes"] == 4
    assert doc["n_labeled_cuts"] == 120
    assert doc["classes"] == [
        {"cut": list(c.edges), "orbit_size": c.orbit_size} for c in classes
    ]
    assert path.read_text(encoding="utf-8") == _canonical_json(doc)
    # the writer lists rows as given and does not sort them
    with pytest.raises(ValidationError, match="lexicographic"):
        write_dedup(tmp_path / "reversed.json", classes[::-1], "cube")


@pytest.mark.parametrize("classes", [
    CutClasses(np.empty((0, 3), dtype=np.int32), np.empty(0, dtype=np.int64)),
    CutClasses(np.array([[0, 1, 2]]), np.array([4])),
])
def test_dedup_file_is_the_canonical_dump(tmp_path, classes):
    graph = build_shell_graph(builtin("tetrahedron"))
    path = tmp_path / "classes.json"
    write_dedup(path, classes, "tétraèdre")
    assert path.read_text(encoding="utf-8") == _canonical_json({
        "shell": "tétraèdre",
        "n_classes": len(classes),
        "n_labeled_cuts": sum(c.orbit_size for c in classes),
        "classes": [{"cut": list(c.edges), "orbit_size": c.orbit_size} for c in classes],
    })


def test_enumeration_file_streams_blocks_of_rows(tmp_path, monkeypatch):
    # blocks of 3 rows split the cube's 120 cuts unevenly
    monkeypatch.setattr(nio, "_ROW_BLOCK", 3)
    graph = build_shell_graph(builtin("cube"))
    result = enumerate_mlsts(graph)
    path = tmp_path / "enum.json"
    write_enumeration(
        path, graph=graph, leaf_count=result.leaf_count, cuts=result.cuts,
        nodes_visited=result.nodes_visited, shell_name="cube",
    )
    assert path.read_text(encoding="utf-8") == _canonical_json({
        "shell": "cube", "n_vertices": 8, "n_edges": 12,
        "edges": [list(e) for e in graph.edges], "leaf_count": 4,
        "n_labeled_cuts": 120, "nodes_visited": result.nodes_visited,
        "cuts": result.cuts.tolist(),
    })


def test_enumerate_files_are_canonical_dumps_across_blocks(tmp_path, monkeypatch, capsys):
    # blocks of 7 rows split 3,280 cuts unevenly and 420 classes evenly; the
    # rows mix 1- and 2-digit edge ids with orbit sizes 2, 4 and 8
    monkeypatch.setattr(nio, "_ROW_BLOCK", 7)
    argv = ["enumerate", "--builtin", "truncated_cube", "--hole", "0", "--out-dir", str(tmp_path)]
    assert main(argv) == EXIT_OK
    enumeration, classes = (
        (tmp_path / name).read_text(encoding="utf-8") for name in ("enumeration.json", "classes.json")
    )
    enumeration_doc, classes_doc = json.loads(enumeration), json.loads(classes)
    assert len(enumeration_doc["cuts"]) == 3280
    assert len(classes_doc["classes"]) == 420
    assert {c["orbit_size"] for c in classes_doc["classes"]} == {2, 4, 8}
    assert enumeration == json.dumps(enumeration_doc, indent=2, sort_keys=True) + "\n"
    assert classes == json.dumps(classes_doc, indent=2, sort_keys=True) + "\n"


# values of each digit count up to the int64 range, 0 included
_VALUES = st.one_of(
    st.just(0),
    st.integers(1, 19).flatmap(lambda d: st.integers(10 ** (d - 1), min(10 ** d, 2 ** 63) - 1)),
)


@st.composite
def _row_blocks(draw):
    """A row template of either listing, whose pieces end at odd and even
    bytes, a block of rows for it, and the column `_arrays` splits it at."""
    template = draw(st.sampled_from([nio._cut_row_format, nio._class_row_format]))
    row_format = template(draw(st.integers(1, 30)))
    n_fields = row_format.count("%d")
    row = st.lists(_VALUES, min_size=n_fields, max_size=n_fields)
    return row_format, draw(st.lists(row, min_size=1, max_size=12)), draw(st.integers(1, n_fields))


def _arrays(rows, split):
    """`rows` as one array, or its columns split between two at `split`:
    int32 where the values fit, as the cuts are, else int64."""
    rows = np.array(rows, dtype=np.int64)
    parts = [rows[:, :split], rows[:, split:]] if split < rows.shape[1] else [rows]
    return [part.astype(np.int32) if part.max() < 2 ** 31 else part for part in parts]


@given(_row_blocks())
@example((nio._cut_row_format(1), [[7]], 1))
@example((nio._class_row_format(1), [[0, 100]], 1))
@example((nio._cut_row_format(3), [[0, 5, 10 ** 18], [2 ** 63 - 1, 99, 1000]], 3))
def test_format_rows_matches_percent_formatting(block):
    row_format, rows, split = block
    want = ",\n".join([row_format] * len(rows)) % tuple(v for row in rows for v in row)
    assert nio._format_rows(row_format, *_arrays(rows, split)) == want.encode("utf-8")


def test_class_rows_format_int64_orbit_sizes_apart_from_their_cuts():
    # the class writer passes the int32 cuts and the int64 orbit sizes as
    # two arrays; sizes of 1 to 19 digits share a block with 2-digit ids
    cuts = np.array([[3, 17, 42], [3, 17, 43], [5, 60, 99]] * 7, dtype=np.int32)
    sizes = np.array([10 ** d + d for d in range(4, 19)] + [0, 1, 12, 2 ** 63 - 1, 120, 9999],
                     dtype=np.int64)
    row_format = nio._class_row_format(3)
    want = ",\n".join([row_format] * len(sizes)) % tuple(
        v for cut, size in zip(cuts.tolist(), sizes.tolist()) for v in (*cut, size)
    )
    assert nio._format_rows(row_format, cuts, sizes[:, None]) == want.encode("utf-8")


@pytest.mark.parametrize("rows", [[[-1]], [[5], [-12]]])
def test_format_rows_rejects_negative_values(rows):
    with pytest.raises(ValidationError, match="non-negative"):
        nio._format_rows(nio._cut_row_format(1), np.array(rows))


@pytest.mark.parametrize("columns, fragment", [
    ([np.zeros((2, 3), dtype=np.int32)], "rows of 3 values for a template with 4 fields"),
    ([np.zeros((2, 3), dtype=np.int32), np.zeros((3, 1), dtype=np.int64)], "differ in length"),
])
def test_format_rows_rejects_misshapen_blocks(columns, fragment):
    with pytest.raises(ValidationError, match=fragment):
        nio._format_rows(nio._class_row_format(3), *columns)


def test_ranking_csv_shape(tmp_path):
    spec = builtin("cube")
    graph = build_shell_graph(spec)
    result = enumerate_mlsts(graph)
    classes = dedupe_cuts(graph, result.cuts, find_automorphisms(graph))
    ranked = rank_nets(spec, [(c.edges, c.orbit_size) for c in classes], graph=graph)
    path = tmp_path / "ranking.csv"
    write_ranking(path, ranked)
    lines = path.read_text().splitlines()
    assert lines[0] == "rank,radius_of_gyration,overlapping,overlap_witness,orbit_size,cut_edges"
    assert len(lines) == 1 + 4
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[1]) == pytest.approx(2.357023, abs=1e-6)
    assert first[2] == "0"


def test_statistics_and_estimates_files(tmp_path):
    rows = build_statistics_table(names=["tetrahedron", "cube"])
    stats_path = tmp_path / "statistics.tsv"
    write_statistics(stats_path, rows)
    lines = stats_path.read_text().splitlines()
    assert lines[0].split("\t")[:4] == ["name", "V", "E", "F"]
    cube_line = next(l for l in lines if l.startswith("cube\t"))
    fields = cube_line.split("\t")
    assert fields[1:4] == ["8", "12", "6"]
    assert fields[5] == "384"      # spanning trees
    assert fields[10] == "5/16"    # optimal ratio 120/384

    est_path = tmp_path / "estimates.tsv"
    write_estimates(est_path, estimate_comparison(rows))
    est_lines = est_path.read_text().splitlines()
    assert est_lines[0].startswith("name\tV\tE\tL_exact")
    assert len(est_lines) == 3


def test_plot_data_files(tmp_path):
    series = {"b_series": [(1.0, 2.0)], "a_series": [(3.0, 4.5), (5.0, 6.0)]}
    written = write_plot_data(tmp_path / "plots", series)
    assert [p.name for p in written] == ["a_series.tsv", "b_series.tsv"]
    assert (tmp_path / "plots" / "a_series.tsv").read_text() == "3.0\t4.5\n5.0\t6.0\n"


def test_rewrites_are_byte_identical(tmp_path):
    spec = builtin("octahedron")
    graph = build_shell_graph(spec)
    result = enumerate_mlsts(graph)
    classes = dedupe_cuts(graph, result.cuts, find_automorphisms(graph))
    ranked = rank_nets(spec, [(c.edges, c.orbit_size) for c in classes], graph=graph)

    blobs = []
    for round_no in (1, 2):
        d = tmp_path / f"run{round_no}"
        d.mkdir()
        save_polyhedron(spec, d / "shell.json")
        write_enumeration(
            d / "enum.json", graph=graph, leaf_count=result.leaf_count,
            cuts=result.cuts, nodes_visited=result.nodes_visited,
            shell_name=spec.name,
        )
        write_dedup(d / "classes.json", classes, spec.name)
        write_ranking(d / "ranking.csv", ranked)
        blobs.append(tuple(
            (p.name, p.read_bytes()) for p in sorted(d.iterdir())
        ))
    assert blobs[0] == blobs[1]
