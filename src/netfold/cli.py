"""Command-line surface for the whole pipeline.

Subcommands: enumerate, rank, verify, estimate, count, export-svg.  Every
output file is canonically ordered, so identical configurations reproduce
identical bytes.

Exit codes: 0 success, 1 usage or validation failure, 2 verification
mismatch, 3 budget exhausted (partial files are flagged), 4 every candidate
net overlaps.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import io as nio
from .analysis import build_statistics_table, estimate_comparison, plot_data
from .catalog import builtin, catalog_entry
from .errors import (
    BudgetExceededError,
    FallbackExhaustedError,
    NetfoldError,
    ValidationError,
)
from .geometry import rank_nets, select_optimal_net
from .holes import remove_faces
from .mlst import (
    DEFAULT_NODE_BUDGET,
    count_labeled_cuts,
    enumerate_interiors,
    enumerate_mlsts,
)
from .shellgraph import (
    ORACLE_CAP,
    build_shell_graph,
    count_spanning_trees,
    cut_leaves,
    enumerate_spanning_trees,
)
from .symmetry import (
    count_net_classes,
    dedupe_cuts,
    edge_set_stabilizer,
    find_automorphisms,
)
from .svg import export_svg

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_MISMATCH = 2
EXIT_BUDGET = 3
EXIT_ALL_OVERLAP = 4


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="netfold",
        description="Enumerate, deduplicate, unfold, and rank optimal cuts of polyhedral shells.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, geometry: bool = False) -> None:
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--builtin", metavar="NAME", help="catalog shell name")
        src.add_argument("--input", metavar="FILE", help="shell document (JSON)")
        p.add_argument(
            "--hole", type=int, nargs="+", metavar="FACE", default=None,
            help="face indices to remove before cutting (open shell)",
        )
        p.add_argument("--budget-nodes", type=float, default=DEFAULT_NODE_BUDGET,
                       help="search node allowance (default %(default).0f)")
        p.add_argument("--time-limit", type=float, default=None,
                       help="search wall-time allowance in seconds")
        p.add_argument("--workers", type=int, default=None,
                       help="accepted and ignored (the search phases run in order); "
                            "kept while the benchmark harness passes it")
        p.add_argument("--long-run", action="store_true",
                       help="allow shells whose enumeration exceeds a desk-scale budget")
        p.add_argument("--out-dir", default=None, metavar="DIR",
                       help="directory for result files (default: print only)")

    p_enum = sub.add_parser("enumerate", help="list optimal cuts and their classes")
    add_common(p_enum)

    p_rank = sub.add_parser("rank", help="unfold classes and rank nets by radius of gyration")
    add_common(p_rank)
    p_rank.add_argument("--svg-ranks", type=int, nargs="+", metavar="RANK", default=None,
                        help="write an SVG for each listed rank")

    p_verify = sub.add_parser("verify", help="cross-check exact counts against brute-force oracles")
    add_common(p_verify)

    p_est = sub.add_parser("estimate", help="trend estimates vs exact values across the catalog")
    p_est.add_argument("--builtin", metavar="NAME", default=None,
                       help="single catalog shell (default: whole catalog)")
    p_est.add_argument("--budget-nodes", type=float, default=DEFAULT_NODE_BUDGET)
    p_est.add_argument("--time-limit", type=float, default=None)
    p_est.add_argument("--long-run", action="store_true",
                       help="also run the shells beyond the desk-scale budget")
    p_est.add_argument("--out-dir", default=None, metavar="DIR")

    p_count = sub.add_parser("count", help="exact counts without materializing the cut list")
    add_common(p_count)

    p_svg = sub.add_parser("export-svg", help="write SVG drawings of ranked nets")
    add_common(p_svg)
    p_svg.add_argument("--svg-ranks", type=int, nargs="+", metavar="RANK", default=[1],
                       help="ranks to draw (default: 1)")

    return parser


def _load_shell(args):
    if args.builtin is not None:
        entry = catalog_entry(args.builtin)
        if entry.long_run and not args.long_run and args.command in ("enumerate", "rank", "count", "export-svg"):
            raise ValidationError(
                f"{entry.name} is a long-run shell; pass --long-run to proceed"
            )
        spec = builtin(args.builtin)
    else:
        spec = nio.load_polyhedron(args.input)
    if args.hole:
        spec = remove_faces(spec, args.hole)
    return spec, build_shell_graph(spec)


def _search_kwargs(args) -> dict:
    return dict(budget_nodes=int(args.budget_nodes), time_limit=args.time_limit)


def _enumerate_cuts(args, graph):
    """Labeled cuts plus their classes under the boundary-preserving group."""
    group = find_automorphisms(graph)
    result = enumerate_mlsts(graph, **_search_kwargs(args))
    classes = dedupe_cuts(
        graph, result.cuts, edge_set_stabilizer(graph, group, graph.boundary_edges),
    )
    return result, classes, group


def _out_dir(args) -> Optional[Path]:
    if args.out_dir is None:
        return None
    path = Path(args.out_dir)
    path.mkdir(parents=True, exist_ok=True)
    return path


def cmd_enumerate(args) -> int:
    spec, graph = _load_shell(args)
    result, classes, group = _enumerate_cuts(args, graph)
    print(f"shell: {spec.name} (V={graph.n} E={graph.m} F={len(graph.faces)}"
          f"{' open' if graph.boundary_edges else ''})")
    print(f"leaf count: {result.leaf_count}")
    print(f"labeled optimal cuts: {len(result.cuts)}")
    print(f"classes under {group.order} automorphisms: {len(classes)}")
    print(f"search nodes: {result.nodes_visited}")
    out = _out_dir(args)
    if out is not None:
        nio.write_enumeration(
            out / "enumeration.json", graph=graph, leaf_count=result.leaf_count,
            cuts=result.cuts, nodes_visited=result.nodes_visited, shell_name=spec.name,
        )
        nio.write_dedup(out / "classes.json", graph, classes, spec.name)
        print(f"wrote {out / 'enumeration.json'} and {out / 'classes.json'}")
    return EXIT_OK


def _ranked(args):
    spec, graph = _load_shell(args)
    result, classes, _ = _enumerate_cuts(args, graph)
    ranked = rank_nets(spec, list(zip(classes.cuts.tolist(), classes.orbit_sizes.tolist())), graph=graph)
    return spec, ranked


def _write_nets(args, ranked, svg_ranks, ranking: bool) -> None:
    """Write `ranking.csv` when `ranking` is set, then an SVG of each rank
    in `svg_ranks`, into the output directory.  Every rank is checked first,
    so an out-of-range one writes nothing."""
    ranks = sorted(set(svg_ranks))
    for rank in ranks:
        if not 1 <= rank <= len(ranked):
            raise ValidationError(f"rank {rank} out of range 1..{len(ranked)}")
    out = _out_dir(args)
    if ranking:
        nio.write_ranking(out / "ranking.csv", ranked)
        print(f"wrote {out / 'ranking.csv'}")
    for rank in ranks:
        path = out / f"net-rank-{rank:04d}.svg"
        export_svg(ranked[rank - 1].layout, path)
        print(f"wrote {path}")


def cmd_rank(args) -> int:
    spec, ranked = _ranked(args)
    print(f"shell: {spec.name}; {len(ranked)} nets ranked by radius of gyration")
    head = ranked[: min(5, len(ranked))]
    for net in head:
        flag = " overlapping" if net.overlapping else ""
        print(f"  rank {net.rank}: R_g={net.radius_of_gyration:.6f}{flag}")
    if len(ranked) > len(head):
        print(f"  ... {len(ranked) - len(head)} more")
    if args.out_dir is not None:
        _write_nets(args, ranked, args.svg_ranks or [], ranking=True)
    try:
        best = select_optimal_net(ranked)
    except FallbackExhaustedError:
        print("every net overlaps itself; no selection possible")
        return EXIT_ALL_OVERLAP
    print(f"selected net: rank {best.rank} (R_g={best.radius_of_gyration:.6f})")
    return EXIT_OK


def cmd_verify(args) -> int:
    spec, graph = _load_shell(args)
    print(f"shell: {spec.name}")
    failures = 0
    skipped = []
    n_st = count_spanning_trees(graph)
    try:
        trees = enumerate_spanning_trees(graph)
    except BudgetExceededError:
        trees = None
        skipped.append(f"spanning-tree oracle (count {n_st} exceeds cap {ORACLE_CAP})")
    if trees is not None:
        ok = len(trees) == n_st
        failures += not ok
        print(f"  determinant count vs oracle enumeration: {n_st} vs {len(trees)}"
              f" {'ok' if ok else 'MISMATCH'}")
        if not graph.boundary_edges:
            best = max(len(cut_leaves(graph, t)) for t in trees)
            filtered = sorted(t for t in trees if len(cut_leaves(graph, t)) == best)
            result = enumerate_mlsts(graph, **_search_kwargs(args))
            ok_leaf = result.leaf_count == best
            found = sorted(tuple(int(e) for e in row) for row in result.cuts)
            ok_set = found == [tuple(t) for t in filtered]
            failures += (not ok_leaf) + (not ok_set)
            print(f"  leaf count vs oracle max: {result.leaf_count} vs {best}"
                  f" {'ok' if ok_leaf else 'MISMATCH'}")
            print(f"  optimal cut set vs filtered oracle: {len(result.cuts)} vs {len(filtered)}"
                  f" {'equal' if ok_set else 'MISMATCH'}")
    for line in skipped:
        print(f"  skipped: {line}")
    if failures:
        print(f"{failures} verification failure(s)")
        return EXIT_MISMATCH
    print("all verifications passed")
    return EXIT_OK


def cmd_estimate(args) -> int:
    names = [catalog_entry(args.builtin).name] if args.builtin else None
    rows = build_statistics_table(
        names=names, budget_nodes=int(args.budget_nodes), long_run=args.long_run,
        time_limit=args.time_limit,
    )
    comparison = estimate_comparison(rows)
    for row in comparison:
        exact = "?" if row.leaf_count is None else str(row.leaf_count)
        print(f"  {row.name}: E={row.n_edges} leaf trend {row.leaf_trend} vs exact {exact}")
    out = _out_dir(args)
    if out is not None:
        nio.write_statistics(out / "statistics.tsv", rows)
        nio.write_estimates(out / "estimates.tsv", comparison)
        written = nio.write_plot_data(out / "plots", plot_data(rows))
        print(f"wrote {out / 'statistics.tsv'}, {out / 'estimates.tsv'}, "
              f"and {len(written)} plot files")
    if any(row.status == "partial" for row in rows):
        print("some rows are partial (budget exhausted)")
        return EXIT_BUDGET
    return EXIT_OK


def cmd_count(args) -> int:
    spec, graph = _load_shell(args)
    group = find_automorphisms(graph)
    n_st = count_spanning_trees(graph)
    print(f"shell: {spec.name} (V={graph.n} E={graph.m} F={len(graph.faces)})")
    print(f"spanning trees: {n_st}")
    print(f"automorphisms: {group.order}")
    interiors = enumerate_interiors(graph, **_search_kwargs(args))
    labeled = count_labeled_cuts(interiors)
    stab = edge_set_stabilizer(graph, group, graph.boundary_edges)
    classes = count_net_classes(graph, interiors.sets, stab)
    print(f"leaf count: {interiors.leaf_count}")
    print(f"labeled optimal cuts: {labeled}")
    print(f"optimal net classes: {classes}")
    print(f"search nodes: {interiors.nodes_visited}")
    return EXIT_OK


def cmd_export_svg(args) -> int:
    if args.out_dir is None:
        raise ValidationError("export-svg requires --out-dir")
    spec, ranked = _ranked(args)
    _write_nets(args, ranked, args.svg_ranks, ranking=False)
    return EXIT_OK


_COMMANDS = {
    "enumerate": cmd_enumerate,
    "rank": cmd_rank,
    "verify": cmd_verify,
    "estimate": cmd_estimate,
    "count": cmd_count,
    "export-svg": cmd_export_svg,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NetfoldError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
