"""In-memory spans and counters, and the per-layer metrics derived from them.

A span records a name, its start and end, the span that caused it and the
operation it belongs to.  Spans stay in memory and are written out once, when
the traced process ends.  A span's self time is its duration minus the part
of it covered by its children.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Iterator, Optional


class Tracer:
    """Span and counter recorder for one traced process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, op, name, start, end]
        self.counters: list[tuple[str, str, float]] = []  # (op, name, value)
        self._stack: list[int] = []
        self.op: Optional[str] = None

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        sid = len(self.spans)
        record = [sid, self._stack[-1] if self._stack else None, self.op, name, time.perf_counter(), None]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[5] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, value: float) -> None:
        self.counters.append((self.op, name, value))

    def dump(self) -> dict:
        return {"spans": self.spans, "counters": self.counters}


# Span name -> per-layer time metric.  Spans named "cli.<command>" are the
# operation roots; every other span is one call into a public function.
TIME_METRICS = {
    "io.load_polyhedron": "io.load_s",
    "io.write_ranking": "io.write_s",
    "io.write_enumeration": "io.write_s",
    "io.write_dedup": "io.write_s",
    "holes.remove_faces": "holes.remove_faces_s",
    "holes.enumerate_hole_cuts": "holes.enumerate_s",
    "polyhedra.validate_polyhedron": "polyhedra.validate_s",
    "shellgraph.build_shell_graph": "shellgraph.build_s",
    "shellgraph.count_spanning_trees": "shellgraph.spanning_trees_s",
    "symmetry.find_automorphisms": "symmetry.automorphisms_s",
    "symmetry.edge_set_stabilizer": "symmetry.stabilizer_s",
    "symmetry.dedupe_cuts": "symmetry.dedupe_s",
    "symmetry.count_net_classes": "symmetry.burnside_s",
    "mlst.enumerate_mlsts": "mlst.search_s",
    "mlst.enumerate_interiors": "mlst.search_s",
    "mlst.count_labeled_cuts": "mlst.count_labeled_s",
    "geometry.unfold": "geometry.unfold_s",
    "geometry.centroid_and_rg": "geometry.rg_s",
    "geometry.check_overlap": "geometry.overlap_s",
    "svg.export_svg": "svg.export_s",
}

COUNT_METRICS = (
    "geometry.nets",
    "geometry.overlap_flagged",
    "mlst.nodes",
    "mlst.interiors",
    "mlst.cuts",
    "holes.cuts",
    "holes.nodes",
    "symmetry.group_order",
    "symmetry.classes",
    "io.bytes_written",
)

# Name -> unit, in the order metrics are reported.
UNITS = {
    **{m: "s" for m in sorted(set(TIME_METRICS.values()))},
    "geometry.overlap_ms_per_net": "ms",
    "mlst.nodes_per_s": "1/s",
    "mlst.interiors_per_mnode": "1/Mnode",
    "mlst.last_level_node_share": "share",
    "io.bytes_written": "bytes",
    **{m: "count" for m in COUNT_METRICS if m != "io.bytes_written"},
    "setup.import_s": "s",
    "process.cpu_s": "s",
    "trace.overhead_s": "s",
    "trace.coverage": "share",
}


def span_table(spans: list[list]) -> dict[str, dict[str, float]]:
    """Total and self time per span name."""
    covered = defaultdict(float)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            covered[parent] += end - start
    table: dict[str, dict[str, float]] = {}
    for sid, _, _, name, start, end in spans:
        row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - covered[sid]
    return table


def layer_metrics(dump: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass (summed over its operations).

    Only spans and counters enter here; the caller adds the start-up, CPU
    and overhead figures measured around the traced process.
    """
    spans, counters = dump["spans"], dump["counters"]
    values: dict[str, float] = {m: 0.0 for m in UNITS if UNITS[m] == "s"}
    for _, _, _, name, start, end in spans:
        metric = TIME_METRICS.get(name)
        if metric is not None:
            values[metric] += end - start
    counts = {m: 0 for m in COUNT_METRICS}
    last_level_nodes = 0
    for _, name, value in counters:
        if name == "mlst.last_level_nodes":
            last_level_nodes += value
        else:
            counts[name] += value
    values.update(counts)
    nodes = counts["mlst.nodes"]
    values["mlst.nodes_per_s"] = nodes / values["mlst.search_s"] if values["mlst.search_s"] else 0.0
    values["mlst.interiors_per_mnode"] = counts["mlst.interiors"] / (nodes / 1e6) if nodes else 0.0
    values["mlst.last_level_node_share"] = last_level_nodes / nodes if nodes else 0.0
    nets = counts["geometry.nets"]
    values["geometry.overlap_ms_per_net"] = 1000.0 * values["geometry.overlap_s"] / nets if nets else 0.0

    roots = {sid: end - start for sid, parent, _, _, start, end in spans if parent is None}
    covered = sum(end - start for _, parent, _, _, start, end in spans if parent in roots)
    total = sum(roots.values())
    values["trace.coverage"] = covered / total if total else 0.0
    return values
