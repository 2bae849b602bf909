"""Workload definitions, reference values and output checks.

One operation is one CLI command on one generated shell.  A workload's
operations run one at a time in one process: a closed loop with one client.

- rank-closed: `rank --svg-ranks 1` on truncated_cube (399 nets with
  octagons: long pair scans) and rhombicuboctahedron (32 nets of triangles
  and squares).  Exercises the `geometry` layer: the overlap screen,
  unfolding and R_g take about 95 % of the time.  snub_cube (600 nets) is
  left out: its ranking time falls by up to a third with the number of nets
  the overlap screen falsely flags (flagged nets end the pair scan early),
  and that number varies from 0 to 333 between seeds, so wall_s spread far
  beyond its bound.  rhombicuboctahedron shows the same false positives on
  most seeds, for about a second of work.
- count-closed: `count` on truncated_cuboctahedron (interior size 24, |G|=48)
  and pentakis_dodecahedron (interior size 10, |G|=120).  Exercises the
  `mlst` search and Burnside counting, and no geometry.
- enumerate-open: `enumerate --hole` on snub_cube minus a triangle off the
  3-fold axes (trivial stabilizer).  Exercises the hole search, cut
  expansion, the per-cut hole check, listing dedupe and the JSON writers.

Each check sorts a failure into one of two kinds.  An "exact" failure means a
count, class, R_g or file the program must reproduce exactly came out wrong;
it makes the run incorrect.  A "screen" failure means the overlap screen's
verdicts disagree with the oracle reference (`oracle.py`); the operation
counts as failed, but the run stays correct, because this is a known defect
of `check_overlap` that depends on the labelling.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

WORKERS = min(2, os.cpu_count() or 1)


@dataclass(frozen=True)
class Op:
    command: str
    shell: str
    hole: Optional[int] = None  # catalog face index to remove

    @property
    def input_name(self) -> str:
        return self.shell if self.hole is None else f"{self.shell}-hole{self.hole}"


# Catalog face 0 of snub_cube is a triangle off the 3-fold axes.
WORKLOADS: dict[str, tuple[Op, ...]] = {
    "rank-closed": (Op("rank", "truncated_cube"), Op("rank", "rhombicuboctahedron")),
    "count-closed": (Op("count", "truncated_cuboctahedron"), Op("count", "pentakis_dodecahedron")),
    "enumerate-open": (Op("enumerate", "snub_cube", hole=0),),
}

# Catalog values, identical for every seed.  "overlapping" and "rg_per_edge"
# (R_g of the most compact non-overlapping net over the mean edge length) come
# from `PYTHONPATH=src python3 perfbench/oracle.py truncated_cube rhombicuboctahedron`.
EXPECTED: dict[tuple[str, str], dict] = {
    ("rank", "truncated_cube"): dict(
        leaf=10, cuts=18_144, classes=399, overlapping=0, rg_per_edge=2.80134661320551),
    ("rank", "rhombicuboctahedron"): dict(
        leaf=15, cuts=1_536, classes=32, overlapping=0, rg_per_edge=2.522483285065167),
    ("count", "truncated_cuboctahedron"): dict(leaf=24, cuts=11_712, classes=244, group=48),
    ("count", "pentakis_dodecahedron"): dict(leaf=22, cuts=101_321_280, classes=845_280, group=120),
    ("enumerate", "snub_cube"): dict(leaf=15, cuts=113_436, classes=113_436, group=24),
}

RG_RTOL = 1e-9


def argv_for(op: Op, hole: Optional[int], input_path: str, out_dir: str) -> list[str]:
    """CLI arguments of one operation; `hole` is the face index in the generated shell."""
    argv = [op.command, "--input", input_path, "--workers", str(WORKERS)]
    if op.hole is not None:
        argv += ["--hole", str(hole)]
    if op.command == "rank":
        argv += ["--svg-ranks", "1", "--out-dir", out_dir]
    elif op.command == "enumerate":
        argv += ["--out-dir", out_dir]
    return argv


def _stdout_int(stdout: str, label: str) -> Optional[int]:
    found = re.search(rf"^{re.escape(label)}: (\d+)$", stdout, re.MULTILINE)
    return None if found is None else int(found.group(1))


def _compare(exact: list[str], what: str, got, want) -> None:
    if got != want:
        exact.append(f"{what}: got {got}, expected {want}")


def shell_edges(doc: dict) -> list[tuple[int, int]]:
    """Edges in the program's canonical order: sorted (min, max) pairs."""
    found = set()
    for face in doc["faces"]:
        for k in range(len(face)):
            u, v = face[k], face[(k + 1) % len(face)]
            found.add((min(u, v), max(u, v)))
    return sorted(found)


def mean_face_edge_length(doc: dict) -> float:
    """Mean length over face-edge incidences, as `NetLayout.mean_edge_length`."""
    pts = doc["vertices"]
    lengths = [
        math.dist(pts[face[k]], pts[face[(k + 1) % len(face)]])
        for face in doc["faces"] for k in range(len(face))
    ]
    return sum(lengths) / len(lengths)


def check_op(op: Op, doc: dict, record: dict, out_dir: Path) -> dict:
    """Check one operation's exit code, printed counts and result files.

    `doc` is the generated shell document the operation read.
    """
    exact: list[str] = []
    screen: list[str] = []
    want = EXPECTED[(op.command, op.shell)]
    if record["rc"] != 0:
        exact.append(f"exit code {record['rc']}: {(record.get('error') or '').strip()[-300:]}")
        return {"exact": exact, "screen": screen}
    try:
        if op.command == "rank":
            _check_rank(doc, record["stdout"], out_dir, want, exact, screen)
        elif op.command == "count":
            out = record["stdout"]
            _compare(exact, "automorphisms", _stdout_int(out, "automorphisms"), want["group"])
            _compare(exact, "leaf count", _stdout_int(out, "leaf count"), want["leaf"])
            _compare(exact, "labeled cuts", _stdout_int(out, "labeled optimal cuts"), want["cuts"])
            _compare(exact, "classes", _stdout_int(out, "optimal net classes"), want["classes"])
        else:
            _check_enumerate(record["stdout"], out_dir, want, exact)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        exact.append(f"unreadable result: {exc!r}")
    return {"exact": exact, "screen": screen}


def _leaves(edges: list[tuple[int, int]], cut: list[int]) -> int:
    degree: dict[int, int] = {}
    for e in cut:
        for v in edges[e]:
            degree[v] = degree.get(v, 0) + 1
    return sum(1 for d in degree.values() if d == 1)


def _check_rank(doc, stdout, out_dir, want, exact, screen) -> None:
    with open(out_dir / "ranking.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    edges = shell_edges(doc)
    _compare(exact, "classes", len(rows), want["classes"])
    _compare(exact, "labeled cuts", sum(int(r["orbit_size"]) for r in rows), want["cuts"])
    leaf_counts = {_leaves(edges, [int(e) for e in r["cut_edges"].split()]) for r in rows}
    _compare(exact, "leaf counts", sorted(leaf_counts), [want["leaf"]])
    _compare(exact, "ranks", [int(r["rank"]) for r in rows], list(range(1, len(rows) + 1)))
    rgs = [float(r["radius_of_gyration"]) for r in rows]
    if rgs != sorted(rgs):
        exact.append("ranking is not ascending in R_g")
    if not (out_dir / "net-rank-0001.svg").stat().st_size:
        exact.append("empty SVG for rank 1")
    mean_edge = mean_face_edge_length(doc)
    ref = want["rg_per_edge"]
    if rows and not math.isclose(rgs[0] / mean_edge, ref, rel_tol=RG_RTOL):
        exact.append(f"rank-1 R_g/edge {rgs[0] / mean_edge!r}, expected {ref!r}")

    flagged = sum(int(r["overlapping"]) for r in rows)
    if flagged != want["overlapping"]:
        screen.append(f"overlap screen flags {flagged} nets, oracle finds {want['overlapping']}")
    found = re.search(r"^selected net: rank (\d+) ", stdout, re.MULTILINE)
    selected = int(found.group(1)) if found else None
    if selected is None:
        screen.append("no net selected")
    elif not math.isclose(rgs[selected - 1] / mean_edge, ref, rel_tol=RG_RTOL):
        screen.append(f"selected net (rank {selected}) R_g/edge {rgs[selected - 1] / mean_edge!r}, expected {ref!r}")


def _check_enumerate(stdout, out_dir, want, exact) -> None:
    _compare(exact, "leaf count", _stdout_int(stdout, "leaf count"), want["leaf"])
    _compare(exact, "labeled cuts", _stdout_int(stdout, "labeled optimal cuts"), want["cuts"])
    _compare(exact, "classes", _stdout_int(stdout, f"classes under {want['group']} automorphisms"), want["classes"])
    classes = json.loads((out_dir / "classes.json").read_text(encoding="utf-8"))
    _compare(exact, "classes.json classes", len(classes["classes"]), want["classes"])
    _compare(exact, "classes.json orbit sum", sum(c["orbit_size"] for c in classes["classes"]), want["cuts"])
    enumeration = json.loads((out_dir / "enumeration.json").read_text(encoding="utf-8"))
    _compare(exact, "enumeration.json cuts", len(enumeration["cuts"]), want["cuts"])
    _compare(exact, "enumeration.json leaf count", enumeration["leaf_count"], want["leaf"])
