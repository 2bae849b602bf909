"""Reading shell documents and writing result files.

One native JSON schema describes a shell: `{"name": ..., "vertices": [[x,y,z],
...] or null, "faces": [[i,j,k,...], ...]}`.  A document without coordinates
still supports every combinatorial operation; geometry then raises cleanly.

All writers emit canonical bytes: keys sorted, rows canonically ordered, no
timestamps or wall-clock fields, floats via repr.  Re-running a pipeline with
any worker count reproduces the files byte for byte.  The cut and class
listings, which run to tens of megabytes, are streamed to the file in blocks
of rows with the bytes `json.dumps(indent=2, sort_keys=True)` would give.
Each block is turned into text in numpy: a row is a fixed-width buffer of
uint16 words holding the row template's literal bytes and one slot per
value, each value's digit pairs looked up in a table of 00 to 99 and written,
right-aligned, through one strided view per run of equally spaced slots,
with 0 bytes for the leading places a value does not reach and for
alignment; one `bytearray.replace` drops every 0 byte from the block.
"""

from __future__ import annotations

import csv
import json
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .analysis import EstimateRow, ShellStatistics
from .errors import ValidationError, writing
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


# the longest value an error message quotes; a longer one is named by type
_QUOTED = 40
# the most unknown fields an error message names; the rest are counted
_NAMED = 3


def _quoted(value: object) -> str:
    """A value read from a document, for an error message: its repr when
    that is short, else its JSON type, so that a nested list, an object or
    a long string is not echoed whole."""
    if isinstance(value, list):
        return "a list"
    if isinstance(value, dict):
        return "an object"
    text = repr(value)
    if len(text) <= _QUOTED:
        return text
    return "a string" if isinstance(value, str) else "a number"


def polyhedron_from_doc(doc: object) -> PolyhedronSpec:
    if not isinstance(doc, dict):
        raise ValidationError(f"shell document must be an object, got {type(doc).__name__}")
    unknown = sorted(set(doc) - {"name", "vertices", "faces"})
    if unknown:
        named = ", ".join(_quoted(key) for key in unknown[:_NAMED])
        more = f" and {len(unknown) - _NAMED} more" if len(unknown) > _NAMED else ""
        raise ValidationError(f"unknown shell document fields: {named}{more}")
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
                    f"face {fi} entry {k} is {_quoted(idx)}; vertex indices are non-negative integers"
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
        try:
            vertices = np.asarray(vertices_raw, dtype=float)
        except OverflowError:
            raise ValidationError("a vertex coordinate is too large for a float") from None
    return PolyhedronSpec(name=name, vertices=vertices, faces=tuple(faces))


# rows formatted per call by the streaming writers
_ROW_BLOCK = 4096


def _json_text(doc: object) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)


def _write_json(doc: object, path: PathLike) -> None:
    with writing(path):
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
    except ValueError as exc:  # an integer longer than Python converts
        raise ValidationError(f"{path}: a number has too many digits to read") from exc
    except RecursionError as exc:
        raise ValidationError(f"{path}: the document nests too deeply to read") from exc
    try:
        return polyhedron_from_doc(doc)
    except ValidationError as exc:
        raise ValidationError(f"{path}: {exc}") from exc


def save_polyhedron(spec: PolyhedronSpec, path: PathLike) -> None:
    _write_json(polyhedron_to_doc(spec), path)


def _fraction_str(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}" if value.denominator != 1 else str(value.numerator)


def _pair_table(zero: bytes) -> np.ndarray:
    """The text of 0..99 as uint16 digit pairs in native byte order: entries
    0..99 for a value's leading pair, a 0 byte in place of a leading zero
    digit and `zero` for 0 itself, then entries 100..199 for a pair with
    more digits before it."""
    leading = zero + b"".join(b"%2d" % p for p in range(1, 100)).replace(b" ", b"\0")
    return np.frombuffer(leading + b"".join(b"%02d" % p for p in range(100)), dtype=np.uint16)


# a value's units pair, which keeps the one digit of 0, and its higher pairs
_UNITS_PAIRS = _pair_table(b"\x000")
_HIGH_PAIRS = _pair_table(b"\0\0")


def _runs(starts: Sequence[int]) -> list[tuple[int, int, int, int]]:
    """Split slot starts into runs of equally spaced slots:
    (first slot, slot count, first start, spacing) each."""
    runs = []
    at = 0
    while at < len(starts):
        end = at + 1
        step = starts[end] - starts[at] if end < len(starts) else 1
        while end < len(starts) and starts[end] - starts[end - 1] == step:
            end += 1
        runs.append((at, end - at, starts[at], step))
        at = end
    return runs


def _format_rows(row_format: str, *columns: np.ndarray) -> bytearray:
    """`",\n".join([row_format] * n) % tuple(np.hstack(columns).ravel())`,
    UTF-8 encoded: each of the n rows of the 2-D arrays of non-negative ints
    in `columns`, side by side, filled into `row_format`, a template with
    one %d per column.

    A row is laid out as uint16 words: the template's pieces between the
    %d's, each value in a slot of as many digit pairs as the widest value
    of its array needs, and the ",\n" that joins it to the next, with a 0
    byte after any piece that ends at an odd byte.  A
    value's digit pairs, units first, are looked up in `_UNITS_PAIRS` and
    `_HIGH_PAIRS`, which give 0 bytes for the leading places it does not
    reach, and each pair place is written to every slot of a run of equally
    spaced slots through one strided view.  One `replace` then drops the 0
    bytes from the block's buffer, and the last row's ",\n" is cut off.
    """
    pieces = [piece.encode("utf-8") for piece in (row_format + ",\n").split("%d")]
    width = sum(values.shape[1] for values in columns)
    if not width or width != len(pieces) - 1:
        raise ValidationError(f"rows of {width} values for a template with {len(pieces) - 1} fields")
    n_rows = len(columns[0])
    if any(len(values) != n_rows for values in columns):
        raise ValidationError("the arrays of one block of rows differ in length")
    if not n_rows:
        return bytearray()
    if any(values.min() < 0 for values in columns):
        raise ValidationError("listed values must be non-negative")
    pairs = [-(-len(str(int(values.max()))) // 2) for values in columns]
    slots = []
    for values, n_pairs in zip(columns, pairs):
        slots += [n_pairs] * values.shape[1]
    line = bytearray()
    starts = []  # in uint16 words
    for piece, slot in zip(pieces, slots + [0]):
        line += piece + b"\0" * ((len(line) + len(piece)) % 2)
        starts.append(len(line) // 2)
        line += b"\0\0" * slot
    text = bytearray(len(line) * n_rows)
    block = np.frombuffer(text, dtype=np.uint16).reshape(n_rows, -1)
    block[:] = np.frombuffer(line, dtype=np.uint16)
    first_slot = 0
    for values, n_pairs in zip(columns, pairs):
        runs = _runs(starts[first_slot:first_slot + values.shape[1]])
        first_slot += values.shape[1]
        quotient = values
        for place in range(n_pairs):
            if place < n_pairs - 1:
                quotient, pair = np.divmod(quotient, 100)
                np.add(pair, 100, out=pair, where=quotient != 0)
            else:
                pair = quotient
            digits = (_HIGH_PAIRS if place else _UNITS_PAIRS).take(pair)
            for slot, count, start, step in runs:
                at = start + n_pairs - 1 - place
                block[:, at:at + step * (count - 1) + 1:step] = digits[:, slot:slot + count]
    text = text.replace(b"\0", b"")
    del text[-2:]
    return text


def _write_json_with_rows(
    path: PathLike, doc: dict, key: str, row_format: str, blocks: Iterable[tuple[np.ndarray, ...]],
) -> None:
    """Write `doc` with `doc[key]` set to a list of rows, streamed.

    The bytes are those of `_write_json` on the whole document.  Each row is
    `row_format`, a %-template at two levels of indentation.  `blocks` yields
    the arrays of non-empty blocks of rows, one row per listed row, which
    `_format_rows` fills into the template side by side; each block is
    written straight to the file, so the whole text is never held in
    memory.
    """
    placeholder = "\u0000rows\u0000"
    # the row list's key sorts before "shell", the one free-text field, so
    # the placeholder's first occurrence is the row list's
    head, _, tail = _json_text({**doc, key: placeholder}).partition(json.dumps(placeholder))
    with writing(path), open(path, "wb") as fh:
        fh.write(head.encode("utf-8"))
        opening = b"[\n"
        for columns in blocks:
            fh.write(opening)
            fh.write(_format_rows(row_format, *columns))
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
    blocks = ((cuts[at:at + _ROW_BLOCK],) for at in range(0, cuts.shape[0], _ROW_BLOCK))
    _write_json_with_rows(path, doc, "cuts", _cut_row_format(cuts.shape[1]), blocks)


def write_dedup(path: PathLike, classes: CutClasses, shell_name: str) -> None:
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
        (cuts[at:at + _ROW_BLOCK], sizes[at:at + _ROW_BLOCK, None])
        for at in range(0, len(classes), _ROW_BLOCK)
    )
    _write_json_with_rows(path, doc, "classes", _class_row_format(cuts.shape[1]), blocks)


def write_ranking(path: PathLike, ranked: Sequence[RankedNet]) -> None:
    """Ranking as CSV: rank, radius of gyration, overlap flag and witness,
    orbit size, and the cut's edge ids."""
    with writing(path), open(path, "w", newline="", encoding="utf-8") as fh:
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
    with writing(path):
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_plot_data(out_dir: PathLike, series: dict[str, list[tuple[float, float]]]) -> list[Path]:
    """One two-column file per series, x then y, tab-delimited."""
    out = Path(out_dir)
    written = []
    with writing(out):
        out.mkdir(parents=True, exist_ok=True)
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
    with writing(path):
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
