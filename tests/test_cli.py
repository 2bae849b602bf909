"""Command-line interface: subcommands, exit codes, reproducible files."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import netfold

from netfold.cli import (
    EXIT_ALL_OVERLAP,
    EXIT_BUDGET,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_USAGE,
    main,
)


def test_exit_code_values_are_distinct():
    codes = [EXIT_OK, EXIT_USAGE, EXIT_MISMATCH, EXIT_BUDGET, EXIT_ALL_OVERLAP]
    assert codes == [0, 1, 2, 3, 4]


def test_enumerate_cube(tmp_path, capsys):
    rc = main(["enumerate", "--builtin", "cube", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "leaf count: 4" in out
    assert "labeled optimal cuts: 120" in out
    assert "classes under 48 automorphisms: 4" in out
    doc = json.loads((tmp_path / "enumeration.json").read_text())
    assert doc["leaf_count"] == 4 and doc["n_labeled_cuts"] == 120
    classes = json.loads((tmp_path / "classes.json").read_text())
    assert classes["n_classes"] == 4


def test_rank_cube_with_svg(tmp_path, capsys):
    rc = main([
        "rank", "--builtin", "cube", "--out-dir", str(tmp_path),
        "--svg-ranks", "1", "2",
    ])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "4 nets ranked" in out
    assert "selected net: rank 1" in out
    assert (tmp_path / "ranking.csv").exists()
    svg = (tmp_path / "net-rank-0001.svg").read_bytes()
    assert svg.startswith(b"<svg") and b"data-face" in svg
    assert (tmp_path / "net-rank-0002.svg").exists()


def test_rank_svg_rank_out_of_range(tmp_path, capsys):
    rc = main([
        "rank", "--builtin", "tetrahedron", "--out-dir", str(tmp_path),
        "--svg-ranks", "99",
    ])
    assert rc == EXIT_USAGE
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["rank", "export-svg"])
def test_out_of_range_svg_rank_writes_nothing(tmp_path, capsys, command):
    # every rank is checked before ranking.csv or any drawing is written
    out = tmp_path / "out"
    rc = main([command, "--builtin", "cube", "--out-dir", str(out), "--svg-ranks", "1", "99"])
    assert rc == EXIT_USAGE
    assert capsys.readouterr().err == "error: rank 99 out of range 1..4\n"
    assert list(out.glob("*")) == []


def test_svg_ranks_need_an_out_dir(capsys):
    # like export-svg, rank refuses drawings it has nowhere to write, before
    # it searches and whatever the ranks
    assert main(["rank", "--builtin", "cube", "--svg-ranks", "99"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: --svg-ranks requires --out-dir\n"
    assert captured.out == ""


def test_verify_tetrahedron(capsys):
    rc = main(["verify", "--builtin", "tetrahedron"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "16 vs 16 ok" in out
    assert "all verifications passed" in out


def test_count_cube(capsys):
    rc = main(["count", "--builtin", "cube"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "spanning trees: 384" in out
    assert "labeled optimal cuts: 120" in out
    assert "optimal net classes: 4" in out


def test_enumerate_open_cube_via_hole(capsys):
    rc = main(["enumerate", "--builtin", "cube", "--hole", "0"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "open" in out
    assert "labeled optimal cuts: 1" in out


def test_estimate_single_shell(tmp_path, capsys):
    rc = main(["estimate", "--builtin", "cube", "--out-dir", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "cube: E=12" in out
    assert (tmp_path / "statistics.tsv").exists()
    assert (tmp_path / "estimates.tsv").exists()
    assert sorted(p.name for p in (tmp_path / "plots").iterdir()) == [
        "leaves_vs_edges.tsv",
        "optimal_ratio_vs_edges.tsv",
        "trees_per_automorphism_vs_edges.tsv",
    ]


def test_estimate_budget_exhausted_is_flagged(capsys):
    rc = main(["estimate", "--builtin", "icosahedron", "--budget-nodes", "50"])
    out = capsys.readouterr().out
    assert rc == EXIT_BUDGET
    assert "partial" in out


@pytest.mark.parametrize("command", ["count", "estimate"])
@pytest.mark.parametrize("flag,value", [
    ("--budget-nodes", "inf"),
    ("--budget-nodes", "nan"),
    ("--budget-nodes", "0.5"),
    ("--budget-nodes", "0"),
    ("--budget-nodes", "-3"),
    ("--time-limit", "nan"),
    ("--time-limit", "0"),
    ("--time-limit", "-1"),
])
def test_bad_search_bounds_are_usage_errors(capsys, command, flag, value):
    # a node budget is a whole number >= 1 and a time limit a positive
    # number of seconds; anything else is named, not run or traced back
    rc = main([command, "--builtin", "cube", flag, value])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.err.startswith(f"error: {flag} must be ")
    assert captured.err.rstrip().endswith(f"got {float(value)}")
    assert captured.out == ""


def test_whole_float_budgets_and_an_infinite_time_limit_run(capsys):
    rc = main(["count", "--builtin", "cube", "--budget-nodes", "1e7", "--time-limit", "inf"])
    assert rc == EXIT_OK
    assert "optimal net classes: 4" in capsys.readouterr().out


@pytest.mark.parametrize("command", ["enumerate", "rank", "verify", "estimate", "count", "export-svg"])
def test_long_run_is_no_option(capsys, command):
    # the node budget and time limit are the only bounds on a search
    with pytest.raises(SystemExit) as exc:
        main([command, "--builtin", "cube", "--long-run"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --long-run" in capsys.readouterr().err


def test_count_finishes_triakis_icosahedron_within_the_default_budget(capsys):
    rc = main(["count", "--builtin", "triakis_icosahedron"])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "leaf count: 26" in out
    assert "optimal net classes: 664128" in out


def test_unknown_builtin_is_usage_error(capsys):
    rc = main(["enumerate", "--builtin", "hexagonal_prism"])
    assert rc == EXIT_USAGE
    assert "unknown builtin shell" in capsys.readouterr().err


def test_export_svg_requires_out_dir(capsys):
    rc = main(["export-svg", "--builtin", "tetrahedron"])
    assert rc == EXIT_USAGE
    assert "requires --out-dir" in capsys.readouterr().err


def test_export_svg_writes_default_rank(tmp_path, capsys):
    rc = main(["export-svg", "--builtin", "tetrahedron", "--out-dir", str(tmp_path)])
    assert rc == EXIT_OK
    assert (tmp_path / "net-rank-0001.svg").exists()


def test_missing_subcommand_is_argparse_error(capsys):
    with pytest.raises(SystemExit):
        main([])


def test_input_file_round_trip(tmp_path, capsys):
    doc = {
        "name": "triangular_prism",
        "vertices": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.5, 0.8, 0.0],
                     [0.0, 0.0, 1.0], [1.0, 0.0, 1.0], [0.5, 0.8, 1.0]],
        "faces": [[0, 2, 1], [3, 4, 5], [0, 1, 4, 3], [1, 2, 5, 4], [2, 0, 3, 5]],
    }
    path = tmp_path / "prism.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    rc = main(["enumerate", "--input", str(path)])
    out = capsys.readouterr().out
    assert rc == EXIT_OK
    assert "triangular_prism" in out


# the cube without two opposite faces: a shell with two holes
TUBE = {
    "name": "tube",
    "vertices": [[-1, -1, -1], [-1, -1, 1], [-1, 1, -1], [-1, 1, 1],
                 [1, -1, -1], [1, -1, 1], [1, 1, -1], [1, 1, 1]],
    "faces": [[0, 2, 6, 4], [0, 4, 5, 1], [1, 5, 7, 3], [2, 3, 7, 6]],
}


@pytest.mark.parametrize("command", ["count", "enumerate", "rank"])
def test_shell_with_two_holes_is_rejected(tmp_path, capsys, command):
    path = tmp_path / "tube.json"
    path.write_text(json.dumps(TUBE), encoding="utf-8")
    rc = main([command, "--input", str(path)])
    captured = capsys.readouterr()
    assert rc == EXIT_USAGE
    assert captured.err == "error: tube: 2 holes; a shell may have at most one hole\n"
    assert captured.out == ""


def test_identical_files_across_worker_counts(tmp_path):
    names = ("enumeration.json", "classes.json")
    blobs = []
    for tag, workers in (("a", "1"), ("b", "2"), ("c", "1")):
        d = tmp_path / tag
        rc = main([
            "enumerate", "--builtin", "octahedron",
            "--workers", workers, "--out-dir", str(d),
        ])
        assert rc == EXIT_OK
        blobs.append(tuple((d / n).read_bytes() for n in names))
    assert blobs[0] == blobs[1] == blobs[2]

    ranks = []
    for tag, workers in (("ra", "1"), ("rb", "3")):
        d = tmp_path / tag
        rc = main([
            "rank", "--builtin", "octahedron",
            "--workers", workers, "--out-dir", str(d),
        ])
        assert rc == EXIT_OK
        ranks.append((d / "ranking.csv").read_bytes())
    assert ranks[0] == ranks[1]


# sha256 of enumerate's result files; a change to the listing, the checks or
# the writers must reproduce them byte for byte
GOLDEN = {
    ("truncated_cube", "0"): (
        "6e7178e582afd38e9078c5dc82fe7f0ffb6086f54c3d840760830c0750e4bceb",
        "433956eeca929d8d6c38340c7235c8f0cd840cb91eff401ac984ebf5d13c4702",
    ),
    ("dodecahedron", "0"): (
        "5173a5f42fc575021c0808393407d1a9fc64042979d7e84e6abbcf501bb7890c",
        "fe9fbcae1056785fe4a23646d7797e066f37cd810b0e7efc8a4d0e9d2f8f07e5",
    ),
    ("cube", None): (
        "634083671d2e75211ed55d0044199934b512c9b931c2eb534b2e2d5a663f3e3b",
        "8096d77f42ef157c53587f0f3ad3b82bfcd5d58c4ffa75d3bca3392ffa9640c6",
    ),
}

# The set search visits fewer nodes than the tree search did: the first
# count below is nodes_visited in the files above.  With nodes_visited set
# to the second count, each enumeration.json must still be the document the
# tree search wrote, pinned by the sha256 that follows; the cube's is the
# document of the tree search's one phase per root-set vertex.
TREE_SEARCH_ENUMERATION = {
    ("truncated_cube", "0"): (
        1183, 8812, "ce6ac9bd7ff67a9198a1e9b5e16e347b56b01942c5b4b85f3f569911aae8630c",
    ),
    ("dodecahedron", "0"): (
        928, 1248, "626feed5b0aec8a68ee6b44d79af81208b4686bacc426cad074a572411263db8",
    ),
    ("cube", None): (
        46, 124, "4c62eca4e2e1bfacd4ce59004b4f1de626c01daab2a61b4ee3fe29e258a7ded7",
    ),
}


@pytest.mark.parametrize("name,hole", sorted(GOLDEN, key=str))
def test_enumerate_files_match_golden_hashes(tmp_path, capsys, name, hole):
    argv = ["enumerate", "--builtin", name, "--workers", "1", "--out-dir", str(tmp_path)]
    if hole is not None:
        argv += ["--hole", hole]
    assert main(argv) == EXIT_OK
    digests = tuple(
        hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
        for f in ("enumeration.json", "classes.json")
    )
    assert digests == GOLDEN[(name, hole)]
    nodes, tree_nodes, tree_digest = TREE_SEARCH_ENUMERATION[(name, hole)]
    doc = json.loads((tmp_path / "enumeration.json").read_text(encoding="utf-8"))
    assert doc["nodes_visited"] == nodes
    doc["nodes_visited"] = tree_nodes
    text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == tree_digest


# sha256 of rank's ranking.csv, its rank-1 SVG and its stdout (with the
# result directory given as the relative path "out"); R_g is written with
# repr, so a change to unfolding, the moments or the screen must keep every
# coordinate and moment bit for bit
RANK_GOLDEN = {
    ("cube", None): (
        "e128ede9e64be058437683e3a382b5464f17f6f62fe96fd40d6b08f22a63919d",
        "2252232919b8284d62f7c601b4c2dba637cc3b91b4d4e668b1c79003d8286031",
        "e76d681d280e7f16efc7fa2972016580ee97a0868fc3ff6a8172e311974438a7",
    ),
    ("truncated_cube", None): (
        "f39b1af7fea9e0ffd5ca9749a63a0cde978c9dcd8dc39c16f13981004d61bdd8",
        "90991a12ab89adf9147046d474c4622e236c02ee2dfe7862ecc76df2bb717d9f",
        "7b935b173e18a6b20d02cf9c722f7c78bfea07e1b363dfb38df79dbd4df0e0ae",
    ),
    ("rhombicuboctahedron", None): (
        "b6bafb7a494020c12ad966d4d05d14813ec107eb37b5643439510b555aeeaf36",
        "083e437fe52e7792a0adbda84b3622ca5a0ce3727c5bc62ab48311ffbe655ebd",
        "efddc0aa4eca67f4ad93535cf9347f1fe35db140a1b3439d7002f02e93d5fc71",
    ),
    ("truncated_cube", "0"): (
        "9ecc8865521af14fad1f757c73b58c9d1a9a7eace65721774fd5d4404a5388f6",
        "981ff4a2b88671e153648907f4190e9d94278bff5da08ad0332969b179b8f2ef",
        "e65ca13f94eca482ff3f15552a8d3abd61056bac3a3021a6936d3bacc83573ed",
    ),
}


@pytest.mark.parametrize("name,hole", sorted(RANK_GOLDEN, key=str))
def test_rank_files_match_golden_hashes(tmp_path, monkeypatch, capsys, name, hole):
    monkeypatch.chdir(tmp_path)
    argv = ["rank", "--builtin", name, "--svg-ranks", "1", "--out-dir", "out"]
    if hole is not None:
        argv += ["--hole", hole]
    assert main(argv) == EXIT_OK
    digests = tuple(
        hashlib.sha256(data).hexdigest()
        for data in (
            (tmp_path / "out" / "ranking.csv").read_bytes(),
            (tmp_path / "out" / "net-rank-0001.svg").read_bytes(),
            capsys.readouterr().out.encode("utf-8"),
        )
    )
    assert digests == RANK_GOLDEN[(name, hole)]


def test_catalog_builds_without_loading_scipy():
    # netfold's one run-time dependency is numpy: a fresh interpreter that
    # loads the CLI and builds every catalog shell has no scipy module
    code = (
        "import sys, netfold.cli\n"
        "from netfold.catalog import CATALOG, builtin\n"
        "assert all(builtin(e.name).faces for e in CATALOG)\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "assert not loaded, loaded[:5]\n"
    )
    src = str(Path(netfold.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("kind, reason", [
    ("missing", "cannot read: No such file or directory"),
    ("directory", "cannot read: Is a directory"),
    ("latin-1", "not UTF-8 text at byte 13"),
], ids=["missing", "directory", "latin-1"])
def test_an_unreadable_input_is_a_usage_error(tmp_path, capsys, kind, reason):
    # each of these once ended in a traceback from `load_polyhedron`
    path = tmp_path / kind
    if kind == "directory":
        path.mkdir()
    elif kind == "latin-1":
        path.write_bytes('{"name": "caf\u00e9", "faces": []}'.encode("latin-1"))
    assert main(["count", "--input", str(path)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {path}: {reason}\n")
