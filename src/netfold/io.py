"""Reading shell documents and writing result files.

One native JSON schema describes a shell: `{"name": ..., "vertices": [[x,y,z],
...] or null, "faces": [[i,j,k,...], ...]}`.  A document without coordinates
still supports every combinatorial operation; geometry then raises cleanly.

All writers emit canonical bytes: keys sorted, rows canonically ordered, no
timestamps or wall-clock fields, floats via repr.  Re-running a pipeline with
any worker count reproduces the files byte for byte.  The cut and class
listings, which run to tens of megabytes, are streamed to the file in blocks
of rows with the bytes `json.dumps(indent=2, sort_keys=True)` would give.
Each block is turned into text in numpy: a row is a fixed-width byte buffer
holding the row template's literal bytes and one slot per value, the value's
digits right-aligned in it by integer division and its unused leading bytes
0, and one boolean mask drops those pad bytes from the whole block.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .analysis import EstimateRow, ShellStatistics
from .errors import ValidationError
from .geometry import RankedNet
from .polyhedra import PolyhedronSpec
from .shellgraph import ShellGraph
from .symmetry import CutClasses, rows_in_lex_order

PathLike = Union[str, Path]


def polyhedron_to_doc(spec: PolyhedronSpec) -> dict:
    return {
        "name": spec.name,
        "vertices": None if spec.vertices is None else [
            [float(c) for c in row] for row in spec.vertices
        ],
        "faces": [list(face) for face in spec.faces],
    }


def polyhedron_from_doc(doc: object) -> PolyhedronSpec:
    if not isinstance(doc, dict):
        raise ValidationError(f"shell document must be an object, got {type(doc).__name__}")
    unknown = set(doc) - {"name", "vertices", "faces"}
    if unknown:
        raise ValidationError(f"unknown shell document fields: {sorted(unknown)}")
    name = doc.get("name")
    if not isinstance(name, str) or not name:
        raise ValidationError("field 'name' must be a non-empty string")
    faces_raw = doc.get("faces")
    if not isinstance(faces_raw, list) or not faces_raw:
        raise ValidationError("field 'faces' must be a non-empty list of index lists")
    faces = []
    for fi, face in enumerate(faces_raw):
        if not isinstance(face, list) or len(face) < 3:
            raise ValidationError(f"face {fi} must list at least 3 vertex indices")
        for k, idx in enumerate(face):
            if not isinstance(idx, int) or isinstance(idx, bool) or idx < 0:
                raise ValidationError(
                    f"face {fi} entry {k} is {idx!r}; vertex indices are non-negative integers"
                )
        faces.append(tuple(face))
    vertices_raw = doc.get("vertices")
    vertices: Optional[np.ndarray]
    if vertices_raw is None:
        vertices = None
    else:
        if not isinstance(vertices_raw, list):
            raise ValidationError("field 'vertices' must be null or a list of [x, y, z] rows")
        for vi, row in enumerate(vertices_raw):
            if not isinstance(row, list) or len(row) != 3 or not all(
                isinstance(c, (int, float)) and not isinstance(c, bool) for c in row
            ):
                raise ValidationError(f"vertex {vi} must be a [x, y, z] number triple")
        vertices = np.asarray(vertices_raw, dtype=float)
    return PolyhedronSpec(name=name, vertices=vertices, faces=tuple(faces))


# rows formatted per call by the streaming writers
_ROW_BLOCK = 4096


def _json_text(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)


def _write_json(doc: object, path: PathLike) -> None:
    Path(path).write_text(_json_text(doc) + "\n", encoding="utf-8")


def load_polyhedron(path: PathLike) -> PolyhedronSpec:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValidationError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text at byte {exc.start}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: not valid JSON at line {exc.lineno}: {exc.msg}") from exc
    try:
        return polyhedron_from_doc(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def save_polyhedron(spec: PolyhedronSpec, path: PathLike) -> None:
    _write_json(polyhedron_to_doc(spec), path)


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def _format_rows(row_format: str, rows: np.ndarray) -> bytes:
    """`",\n".join([row_format] * len(rows)) % tuple(rows.ravel())`, UTF-8
    encoded: each row of a 2-D array of non-negative ints filled into
    `row_format`, a template with one %d per column.

    A row is laid out as the template's pieces between the %d's, each value
    in a slot as wide as the block's widest value, and the ",\n" that joins
    it to the next; the pad bytes (0) and the last row's ",\n" are dropped.
    """
    pieces = [piece.encode("utf-8") for piece in (row_format + ",\n").split("%d")]
    n_rows, width = rows.shape
    if not width or width != len(pieces) - 1:
        raise ValidationError(f"rows of {width} values for a template with {len(pieces) - 1} fields")
    if not n_rows:
        return b""
    if rows.min() < 0:
        raise ValidationError("listed values must be non-negative")
    top = int(rows.max())
    digits = len(str(top))
    line = np.zeros(sum(map(len, pieces)) + width * digits, dtype=np.uint8)
    starts = np.empty(width, dtype=np.intp)
    at = 0
    for i, piece in enumerate(pieces):
        line[at:at + len(piece)] = np.frombuffer(piece, dtype=np.uint8)
        at += len(piece)
        if i < width:
            starts[i] = at
            at += digits
    block = np.tile(line, (n_rows, 1))
    # units place first; the smallest unsigned type divides fastest
    quotient = rows.astype(np.min_scalar_type(top))
    digit = np.empty(rows.shape, dtype=np.uint8)
    for place in range(digits - 1, -1, -1):
        np.remainder(quotient, 10, out=digit, casting="unsafe")
        digit += ord("0")
        if place < digits - 1:
            digit *= quotient != 0  # a leading place the value does not reach
        block[:, starts + place] = digit
        quotient //= 10
    block = block.ravel()
    return block[block != 0][:-2].tobytes()


def _write_json_with_rows(
    path: PathLike, doc: dict, key: str, row_format: str, blocks: Iterable[np.ndarray],
) -> None:
    """Write `doc` with `doc[key]` set to a list of rows, streamed.

    The bytes are those of `_write_json` on the whole document.  Each row is
    `row_format`, a %-template at two levels of indentation.  `blocks` yields
    non-empty 2-D int arrays, one row per listed row; each block is
    formatted by `_format_rows` and written straight to the file, so the
    whole text is never held in memory.
    """
    placeholder = "\u0000rows\u0000"
    # the row list's key sorts before "shell", the one free-text field, so
    # the placeholder's first occurrence is the row list's
    head, _, tail = _json_text({**doc, key: placeholder}).partition(json.dumps(placeholder))
    with open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        opening = b"[\n"
        for rows in blocks:
            fh.write(opening)
            fh.write(_format_rows(row_format, rows))
            opening = b",\n"
        fh.write((("[]" if opening == b"[\n" else "\n  ]") + tail + "\n").encode("utf-8"))


def _int_list_format(indent: int, width: int) -> str:
    """%-template of a JSON list of `width` ints as `json.dumps(indent=2)`
    lays it out when the list opens at `indent` spaces; `width` >= 1."""
    inner = " " * (indent + 2)
    return "[\n" + ",\n".join([inner + "%d"] * width) + "\n" + " " * indent + "]"


def _cut_row_format(width: int) -> str:
    """%-template of one row of `enumeration.json`: a cut of `width` edge ids."""
    return "    " + _int_list_format(4, width)


def _class_row_format(width: int) -> str:
    """%-template of one row of `classes.json`: a cut of `width` edge ids,
    then its orbit size."""
    return '    {\n      "cut": ' + _int_list_format(6, width) + ',\n      "orbit_size": %d\n    }'


def write_enumeration(
    path: PathLike,
    graph: ShellGraph,
    leaf_count: int,
    cuts: np.ndarray,
    nodes_visited: int,
    shell_name: str,
) -> None:
    """Enumeration result file.  `cuts` holds one ascending row of edge ids
    per labeled cut, rows in lexicographic order (as `MlstResult.cuts`)."""
    cuts = np.asarray(cuts)
    if cuts.ndim != 2 or not cuts.shape[1]:
        raise ValidationError(f"cuts must be a 2-D array of edge ids, got shape {cuts.shape}")
    if not rows_in_lex_order(cuts):
        raise ValidationError("cut rows must be distinct and in lexicographic order")
    doc = {
        "shell": shell_name,
        "n_vertices": graph.n,
        "n_edges": graph.m,
        "edges": [list(e) for e in graph.edges],
        "leaf_count": leaf_count,
        "n_labeled_cuts": cuts.shape[0],
        "nodes_visited": nodes_visited,
    }
    blocks = (cuts[at:at + _ROW_BLOCK] for at in range(0, cuts.shape[0], _ROW_BLOCK))
    _write_json_with_rows(path, doc, "cuts", _cut_row_format(cuts.shape[1]), blocks)


def write_dedup(path: PathLike, graph: ShellGraph, classes: CutClasses, shell_name: str) -> None:
    """Class listing file: each class's smallest labeled cut and orbit size,
    rows in lexicographic order of the cuts (as `dedupe_cuts` returns them)."""
    cuts, sizes = classes.cuts, classes.orbit_sizes
    if len(classes) and not cuts.shape[1]:
        raise ValidationError("class cuts must list at least one edge id")
    if not rows_in_lex_order(cuts):
        raise ValidationError("class rows must be distinct and in lexicographic order")
    doc = {
        "shell": shell_name,
        "n_classes": len(classes),
        "n_labeled_cuts": int(sizes.sum()),
    }
    blocks = (
        np.column_stack((cuts[at:at + _ROW_BLOCK], sizes[at:at + _ROW_BLOCK]))
        for at in range(0, len(classes), _ROW_BLOCK)
    )
    _write_json_with_rows(path, doc, "classes", _class_row_format(cuts.shape[1]), blocks)


def write_ranking(path: PathLike, ranked: Sequence[RankedNet]) -> None:
    """Ranking as CSV: rank, radius of gyration, overlap flag and witness,
    orbit size, and the cut's edge ids."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([
            "rank", "radius_of_gyration", "overlapping", "overlap_witness",
            "orbit_size", "cut_edges",
        ])
        for net in ranked:
            witness = "" if net.overlap_witness is None else f"{net.overlap_witness[0]}:{net.overlap_witness[1]}"
            writer.writerow([
                net.rank,
                repr(net.radius_of_gyration),
                int(net.overlapping),
                witness,
                net.orbit_size,
                " ".join(str(e) for e in net.cut),
            ])


STATISTICS_COLUMNS = (
    "name", "V", "E", "F", "closed", "N_ST", "N_aut", "L",
    "N_optimal_cuts", "N_optimal_nets", "optimal_ratio", "nodes_visited",
    "status", "note",
)


def write_statistics(path: PathLike, rows: Sequence[ShellStatistics]) -> None:
    """Catalog statistics as a tab-delimited table, one shell per row."""
    lines = ["\t".join(STATISTICS_COLUMNS)]
    for row in rows:
        ratio = row.optimal_ratio
        lines.append("\t".join([
            row.name,
            str(row.n_vertices), str(row.n_edges), str(row.n_faces),
            "yes" if row.closed else "no",
            str(row.n_spanning_trees), str(row.n_automorphisms),
            "" if row.leaf_count is None else str(row.leaf_count),
            "" if row.n_optimal_cuts is None else str(row.n_optimal_cuts),
            "" if row.n_optimal_nets is None else str(row.n_optimal_nets),
            "" if ratio is None else _fraction_str(ratio),
            str(row.nodes_visited),
            row.status,
            row.note,
        ]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_plot_data(out_dir: PathLike, series: dict[str, list[tuple[float, float]]]) -> list[Path]:
    """One two-column file per series, x then y, tab-delimited."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written = []
    for name in sorted(series):
        path = out / f"{name}.tsv"
        lines = [f"{repr(x)}\t{repr(y)}" for x, y in series[name]]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path)
    return written


def write_estimates(path: PathLike, rows: Sequence[EstimateRow]) -> None:
    """Estimate-versus-exact residual table, tab-delimited."""
    header = (
        "name", "V", "E", "L_exact", "L_trend", "L_residual",
        "L_trend_from_V", "V_trend_from_E", "log2_ratio_exact",
        "log2_ratio_trend", "log2_ratio_residual",
    )
    lines = ["\t".join(header)]
    for row in rows:
        lines.append("\t".join([
            row.name, str(row.n_vertices), str(row.n_edges),
            "" if row.leaf_count is None else str(row.leaf_count),
            _fraction_str(row.leaf_trend),
            "" if row.leaf_residual is None else _fraction_str(row.leaf_residual),
            _fraction_str(row.leaf_trend_v),
            _fraction_str(row.vertex_trend),
            "" if row.ratio_log2 is None else repr(row.ratio_log2),
            _fraction_str(row.ratio_trend_log2),
            "" if row.ratio_log2_residual is None else repr(row.ratio_log2_residual),
        ]))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
