import numpy as np
import pytest

from helpers import check_hole_cut, cut_tuples, prism_spec, reference_stabilizer
from netfold import holes, mlst
from netfold.catalog import builtin
from netfold.cli import main
from netfold.errors import ValidationError
from netfold.holes import check_hole_cuts, remove_faces
from netfold.mlst import count_labeled_cuts, enumerate_interiors, enumerate_mlsts
from netfold.polyhedra import PolyhedronSpec, canon_edge
from netfold.shellgraph import build_shell_graph, cut_leaves
from netfold.symmetry import dedupe_cuts, find_automorphisms


def brute_force_hole_cuts(graph, boundary):
    """Oracle: test every edge subset of size V containing the boundary."""
    from itertools import combinations

    best = -1
    cuts = []
    others = [e for e in range(graph.m) if e not in set(boundary)]
    need = graph.n - len(boundary)
    for extra in combinations(others, need):
        cut = tuple(sorted(boundary + tuple(extra)))
        try:
            check_hole_cut(graph, cut, boundary)
        except ValidationError:
            continue
        leaves = len(cut_leaves(graph, cut))
        if leaves > best:
            best, cuts = leaves, [cut]
        elif leaves == best:
            cuts.append(cut)
    return best, sorted(cuts)


def test_remove_faces_reindexes_and_names():
    open_cube = remove_faces(builtin("cube"), [0])
    assert open_cube.name == "cube-open1"
    assert open_cube.n_faces == 5
    g = build_shell_graph(open_cube)
    assert g.boundary_mask.bit_count() == 4
    assert len(g.boundary_edges) == 4


def test_remove_all_faces_rejected():
    with pytest.raises(ValidationError):
        remove_faces(builtin("cube"), range(6))


def test_removed_patch_must_be_edge_connected():
    # two opposite faces of the cube leave two separate holes
    with pytest.raises(ValidationError, match="cube-open2: 2 holes"):
        build_shell_graph(remove_faces(builtin("cube"), [0, 5]))


def test_open_cube_has_one_optimal_cut():
    open_cube = remove_faces(builtin("cube"), [0])
    g = build_shell_graph(open_cube)
    result = enumerate_mlsts(g)
    assert result.leaf_count == 4
    assert len(result.cuts) == count_labeled_cuts(result) == 1
    boundary = g.boundary_edges
    assert brute_force_hole_cuts(g, boundary) == (4, cut_tuples(result))


def test_a_disc_with_every_vertex_on_the_hole_has_one_cut_and_no_leaves():
    # the one interior set holds every vertex, so the cut picks no leaf edge
    g = build_shell_graph(PolyhedronSpec(name="disc", faces=((0, 1, 2), (0, 2, 3))))
    result = enumerate_mlsts(g)
    assert result.leaf_count == 0
    assert cut_tuples(result) == [(0, 2, 3, 4)]
    assert brute_force_hole_cuts(g, g.boundary_edges) == (0, cut_tuples(result))


def test_open_cube_cut_is_boundary_plus_verticals():
    open_cube = remove_faces(builtin("cube"), [0])
    g = build_shell_graph(open_cube)
    result = enumerate_mlsts(g)
    (cut,) = cut_tuples(result)
    assert len(cut) == g.n
    assert set(g.boundary_edges) <= set(cut)
    # no hole-boundary vertex may be a leaf
    hole_vertices = {v for e in g.boundary_edges for v in g.edges[e]}
    assert not (set(cut_leaves(g, cut)) & hole_vertices)


def test_wheel_with_rim_hole():
    # pyramid shell minus its base: cuts are the rim plus one spoke
    pyramid = builtin("octagonal_pyramid")
    base = max(range(pyramid.n_faces), key=lambda f: len(pyramid.faces[f]))
    open_pyr = remove_faces(pyramid, [base])
    g = build_shell_graph(open_pyr)
    result = enumerate_mlsts(g)
    assert result.leaf_count == 1
    assert len(result.cuts) == count_labeled_cuts(result) == 8
    boundary = g.boundary_edges
    assert brute_force_hole_cuts(g, boundary)[1] == sorted(cut_tuples(result))


def test_nine_face_cap_hole_counts():
    spec = builtin("rhombicuboctahedron")
    cap = [f for f in range(spec.n_faces)
           if all(spec.vertices[v][2] > 0.9 for v in spec.faces[f])]
    assert len(cap) == 9
    open_spec = remove_faces(spec, cap)
    g = build_shell_graph(open_spec)
    result = enumerate_mlsts(g)
    assert result.leaf_count == 9
    assert len(result.cuts) == count_labeled_cuts(result) == 720
    group = find_automorphisms(g)
    stabilizer = reference_stabilizer(g, group, g.boundary_edges)
    classes = dedupe_cuts(g, result.cuts, stabilizer)
    assert len(classes) == 90


def test_hole_cut_checker_rejects_bad_cuts():
    open_cube = remove_faces(builtin("cube"), [0])
    g = build_shell_graph(open_cube)
    boundary = g.boundary_edges
    (good,) = cut_tuples(enumerate_mlsts(g))
    # drop a required boundary edge
    bad = tuple(sorted((set(good) - {boundary[0]}) | {next(
        e for e in range(g.m) if e not in good)}))
    # wrong size; repeated edge
    for cut in (bad, good[:-1], good[:-1] + (good[0],)):
        with pytest.raises(ValidationError):
            check_hole_cut(g, cut, boundary)
        with pytest.raises(ValidationError):
            check_hole_cuts(g, np.array([cut], dtype=np.int32))


def _open_graph(name, hole):
    return build_shell_graph(remove_faces(builtin(name), hole))


def _oracle_accepts(graph, cut):
    try:
        check_hole_cut(graph, cut, graph.boundary_edges)
    except ValidationError:
        return False
    return True


def _batch_accepts(graph, cuts):
    try:
        check_hole_cuts(graph, cuts)
    except ValidationError:
        return False
    return True


@pytest.mark.parametrize("name,hole", [
    ("truncated_cube", [0]), ("dodecahedron", [0]), ("cube", [0, 1]),
])
def test_batched_hole_check_matches_the_oracle(name, hole):
    g = _open_graph(name, hole)
    cuts = enumerate_mlsts(g).cuts
    assert all(_oracle_accepts(g, row) for row in cuts.tolist())
    assert _batch_accepts(g, cuts)
    # swapping one or two edges of a cut for edges outside it gives both
    # valid hole cuts (with fewer leaves) and invalid ones; the verdicts
    # must agree row by row
    rng = np.random.default_rng(7)
    verdicts = []
    for _ in range(300):
        row = cuts[rng.integers(len(cuts))]
        k = int(rng.integers(1, 3))
        kept = rng.permutation(row)[k:]
        added = rng.choice(np.setdiff1d(np.arange(g.m), row), size=k, replace=False)
        mutated = np.sort(np.concatenate([kept, added])).astype(np.int32)
        oracle = _oracle_accepts(g, mutated.tolist())
        assert _batch_accepts(g, mutated[None, :]) == oracle, mutated.tolist()
        verdicts.append(oracle)
    assert any(verdicts) and not all(verdicts)


def _row_degrees(graph, row):
    degree = [0] * graph.n
    for e in row:
        for x in graph.edges[e]:
            degree[x] += 1
    return degree


def _first_cut_where(graph, cuts, build):
    """First mutation `build(row, degree)` returns for a cut of `cuts`."""
    for row in cuts.tolist():
        mutated = build(row, _row_degrees(graph, row))
        if mutated is not None:
            assert len(set(mutated)) == len(mutated) == graph.n
            return np.array([sorted(mutated)], dtype=np.int32)
    raise AssertionError("no cut admits this mutation")


def _assert_each_mutation_class_is_rejected(g, cuts):
    """Mutate valid hole cuts `cuts` of `g` into one cut of each failure
    kind, and check that the batched check and the oracle reject it."""
    boundary = g.boundary_edges

    def outside(row, avoid=()):
        """Edges outside `row` touching none of the vertices in `avoid`."""
        return [e for e in range(g.m) if e not in row and not set(g.edges[e]) & set(avoid)]

    def missing_boundary_edge(row, degree):
        for b in boundary:
            if all(degree[x] >= 3 for x in g.edges[b]):
                return [e for e in row if e != b] + outside(row)[:1]

    def boundary_leaf(row, degree):
        for b in boundary:
            x = next((x for x in g.edges[b] if degree[x] == 2), None)
            if x is not None:
                return [e for e in row if e != b] + outside(row, avoid=[x])[:1]

    def leaf_leaf_edge(row, degree):
        leaves = {x for x in range(g.n) if degree[x] == 1}
        for e in outside(row):
            x, y = g.edges[e]
            if x in leaves and y in leaves:
                dropped = [f for f in row if not set(g.edges[f]) & {x, y}]
                extra = [f for f in outside(row, avoid=[x, y]) if f not in dropped]
                return dropped + [e] + extra[:1]

    def second_cycle_disconnected(row, degree):
        leaf_edge = next(f for f in row if 1 in (degree[x] for x in g.edges[f]))
        core = [e for e in outside(row) if all(degree[x] >= 2 for x in g.edges[e])]
        if core:
            return [f for f in row if f != leaf_edge] + core[:1]

    good = cuts[:1]
    cases = {
        "missing boundary edges": _first_cut_where(g, cuts, missing_boundary_edge),
        "repeats an edge": np.array([[good[0, 0]] + good[0, :-1].tolist()], dtype=np.int32),
        "exactly": good[:, :-1],
        "boundary vertex as a leaf": _first_cut_where(g, cuts, boundary_leaf),
        "joining two leaves": _first_cut_where(g, cuts, leaf_leaf_edge),
        "not connected": _first_cut_where(g, cuts, second_cycle_disconnected),
    }
    for fragment, bad in cases.items():
        # the mutated cut sits among valid ones, so the row index is reported
        batch = np.concatenate([cuts[:5], bad]) if bad.shape[1] == g.n else bad
        with pytest.raises(ValidationError, match=fragment):
            check_hole_cuts(g, batch)
        assert not _oracle_accepts(g, bad[0].tolist())


def test_batched_hole_check_rejects_each_mutation_class():
    g = _open_graph("truncated_cube", [0])
    _assert_each_mutation_class_is_rejected(g, enumerate_mlsts(g).cuts)


def _prism_hole_cuts(g, k, rng, count):
    """Random valid hole cuts of the k-gonal prism without its bottom cap:
    the bottom ring, the vertical edges at a nonempty set of ring positions,
    and every top ring edge but one in each arc between two consecutive
    such positions."""
    edge = lambda a, b: g.edges.index(canon_edge(a, b))
    cuts = set()
    while len(cuts) < count:
        posts = np.flatnonzero(rng.random(k) < rng.uniform(0.1, 0.9))
        if not posts.size:
            continue
        row = list(g.boundary_edges) + [edge(i, k + i) for i in posts.tolist()]
        for a, b in zip(posts.tolist(), np.roll(posts, -1).tolist()):
            arc = [(j % k, (j + 1) % k) for j in range(a, a + ((b - a - 1) % k) + 1)]
            cut = int(rng.integers(len(arc)))
            row += [edge(k + i, k + j) for n, (i, j) in enumerate(arc) if n != cut]
        cuts.add(tuple(sorted(row)))
    return np.array(sorted(cuts), dtype=np.int32)


def test_hole_check_on_more_than_64_vertices_and_edges():
    # V = 80 and E = 120 take two uint64 words per vertex mask and per edge
    # mask; the batched check must agree with the one-cut oracle there too
    g = build_shell_graph(remove_faces(prism_spec(40), [0]))
    assert (g.n, g.m, len(g.boundary_edges)) == (80, 120, 40)
    rng = np.random.default_rng(40)
    cuts = _prism_hole_cuts(g, 40, rng, 200)
    assert all(_oracle_accepts(g, row) for row in cuts.tolist())
    assert _batch_accepts(g, cuts)
    # the one optimal cut: the boundary and every vertical edge
    verticals = tuple(g.edges.index(canon_edge(i, 40 + i)) for i in range(40))
    assert cut_tuples(enumerate_mlsts(g)) == [tuple(sorted(g.boundary_edges + verticals))]
    _assert_each_mutation_class_is_rejected(g, cuts)
    verdicts = []
    for row in cuts[:150]:
        kept = rng.permutation(row)[1:]
        added = rng.choice(np.setdiff1d(np.arange(g.m), row), size=1)
        mutated = np.sort(np.concatenate([kept, added])).astype(np.int32)
        oracle = _oracle_accepts(g, mutated.tolist())
        assert _batch_accepts(g, mutated[None, :]) == oracle, mutated.tolist()
        verdicts.append(oracle)
    assert any(verdicts) and not all(verdicts)


def test_hole_check_in_blocks_keeps_global_rows_and_one_test_per_core(monkeypatch):
    g = _open_graph("truncated_cube", [0])
    cuts = enumerate_mlsts(g).cuts
    monkeypatch.setattr(holes, "_CHECK_BLOCK", 4)
    calls = []
    connected_unicyclic = holes._connected_unicyclic

    def spy(graph, edge_ids):
        calls.append(tuple(edge_ids))
        return connected_unicyclic(graph, edge_ids)

    monkeypatch.setattr(holes, "_connected_unicyclic", spy)
    check_hole_cuts(g, cuts)  # 820 blocks
    assert sorted(calls) == sorted(set(calls))
    assert len(calls) == enumerate_interiors(g).interior_count
    # a bad row in the third block is reported by its row in the whole array
    repeated = np.array([[cuts[0, 0]] + cuts[0, :-1].tolist()], dtype=np.int32)
    batch = np.concatenate([cuts[:9], repeated, cuts[9:12]])
    with pytest.raises(ValidationError, match=r"^cut 9 repeats an edge"):
        check_hole_cuts(g, batch)


@pytest.mark.parametrize("name,hole", [
    ("cube", [0]), ("cube", [0, 1]), ("octahedron", [0]), ("dodecahedron", [0]),
    ("truncated_cube", [0]),
])
def test_open_graph_mlsts_are_its_hole_cuts(name, hole, monkeypatch):
    # enumerate_mlsts checks the whole listing of an open shell as hole cuts,
    # once, and a failed check fails the listing
    g = build_shell_graph(remove_faces(builtin(name), hole))
    checked = []

    def spy(graph, cuts):
        checked.append((graph, cuts))
        check_hole_cuts(graph, cuts)

    monkeypatch.setattr(mlst, "check_hole_cuts", spy)
    result = enumerate_mlsts(g)
    assert len(checked) == 1
    assert checked[0][0] is g and checked[0][1] is result.cuts
    monkeypatch.setattr(holes, "_connected_unicyclic", lambda graph, edge_ids: False)
    with pytest.raises(ValidationError, match="not connected with exactly one cycle"):
        enumerate_mlsts(g)


def test_hole_check_needs_a_boundary(shell_graph):
    # a closed shell's listing is not checked as hole cuts, and cannot be
    g = shell_graph("cube")
    cuts = enumerate_mlsts(g).cuts
    with pytest.raises(ValidationError, match="no hole boundary"):
        check_hole_cuts(g, cuts)


def test_count_open_shell_prints_product_and_burnside_counts(capsys):
    rc = main(["count", "--builtin", "truncated_cube", "--hole", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "labeled optimal cuts: 3280\n" in out
    assert "optimal net classes: 420\n" in out


def test_a_core_is_one_component_with_one_cycle():
    g = build_shell_graph(builtin("cube"))
    top = g.faces[0]
    bottom = next(f for f in g.faces if not set(f) & set(top))

    def cycle(face):
        return [g.edges.index(canon_edge(a, b)) for a, b in zip(face, face[1:] + face[:1])]

    assert holes._connected_unicyclic(g, cycle(top))
    assert not holes._connected_unicyclic(g, cycle(top)[:3])
    assert not holes._connected_unicyclic(g, [])
    # as many vertices as edges, in two components
    assert not holes._connected_unicyclic(g, cycle(top) + cycle(bottom))
