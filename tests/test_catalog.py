"""Built-in shell catalog: every entry builds, validates, and is findable."""

import hashlib

import numpy as np
import pytest

from netfold.catalog import CATALOG, _cube, _faces_of_solid, builtin, catalog_entry, catalog_names
from netfold.errors import ValidationError
from netfold.shellgraph import build_shell_graph


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_entry_builds_and_matches_counts(entry):
    # building the graph runs every shell check, face planarity included
    graph = build_shell_graph(builtin(entry.name))
    assert graph.n == entry.n_vertices
    assert graph.m == entry.n_edges
    assert len(graph.faces) == entry.n_faces
    assert not graph.boundary_edges
    # Euler characteristic of a closed genus-0 shell.
    assert entry.n_vertices - entry.n_edges + entry.n_faces == 2


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_entry_graph_is_connected(entry):
    graph = build_shell_graph(builtin(entry.name))
    assert graph.n == entry.n_vertices
    assert graph.m == entry.n_edges
    assert graph.is_connected()
    assert not graph.boundary_edges


def test_catalog_has_21_entries():
    assert len(CATALOG) == 21
    assert len(set(e.name for e in CATALOG)) == 21


@pytest.mark.parametrize(
    "alias, canonical",
    [
        ("snub-cube", "snub_cube"),
        ("Snub Cube", "snub_cube"),
        ("OCTAGONAL-PYRAMID", "octagonal_pyramid"),
        ("  cube ", "cube"),
        ("Truncated Icosahedron", "truncated_icosahedron"),
    ],
)
def test_name_normalization(alias, canonical):
    assert catalog_entry(alias).name == canonical
    assert builtin(alias) is builtin(canonical)


def test_unknown_name_lists_catalog():
    with pytest.raises(ValidationError) as exc:
        builtin("hexagonal_prism")
    message = str(exc.value)
    assert "hexagonal_prism" in message
    for name in catalog_names():
        assert name in message


def test_builtin_specs_are_cached_and_deterministic():
    a = builtin("dodecahedron")
    b = builtin("dodecahedron")
    assert a is b
    assert a.faces == b.faces


def test_face_cycles_are_canonical():
    for entry in CATALOG:
        spec = builtin(entry.name)
        for face in spec.faces:
            assert face[0] == min(face)
        assert list(spec.faces) == sorted(spec.faces)


# sha256 of repr(spec.faces) followed by the little-endian float64 bytes of
# spec.vertices, pinned from the convex-hull face merge `_faces_of_solid` replaced
SPEC_DIGESTS = {
    "tetrahedron": "317aa934862f3cbc1e01e73a5679e1820b3f7824195289a4f0c213e972639bb6",
    "octahedron": "55d2acaa7a602bb4f775ab88347b1d021c2b1fbac7351fb959d6b12d2e41c8c6",
    "cube": "850a503066bf93b24fbad4646db23b8a50541532d6b5a1337d3a039eb2f0a8e7",
    "icosahedron": "a9ba1b6a400d56eb9f5fa37a8e08af98518f7b381bdd0e48e02926c0b3a3991e",
    "dodecahedron": "93528b9758cae61bbeb35cae031eb21258e425f4935d07880cdcd78ecadbbe52",
    "octagonal_pyramid": "6ebefce310cfa9d3acf2b5df9cff546023bc5b5a5c05cebb39edb7e86a1e1d85",
    "octagonal_dipyramid": "07be1b33d7371c30ed5b9877e799e7028ccbd88e1d60b5d38353f8fdb38fdf4a",
    "truncated_tetrahedron": "aa17723f8597b9e551f4ee67ef8df4545ec87f8146ac80a522338427975dbd3a",
    "cuboctahedron": "7d3ab1ed88c5fedc468e198acea3c21b3df6568c82860bd123482affa0d0b90c",
    "truncated_cube": "0ee03d535de6730c73636c0c9d57f47cbd092484e14f9b34a433cac95a6be061",
    "snub_cube": "d3659dd98a6cd2ea7c234f7009c57a2d33870f1b9afc525b76cdb9a0b0d4ddf3",
    "rhombicuboctahedron": "af402975c263d976069c575da1eab05fa28c4ea4cb79aba61f8018d1180d5b64",
    "truncated_octahedron": "c3a34bb05e3bf6d0937919b5da0c03726544a52758b18d7f804d7c92e27fd29c",
    "icosidodecahedron": "da8b3944bb318ed3d3c24dc7127687a2113f69fe0c073aa1871fc34ba07ed4b6",
    "truncated_cuboctahedron": "a4ef62b196c72dcb8d60b20778c98c9f3ccc4fee8da997d9dec683071f0a1f45",
    "truncated_icosahedron": "e0bb8104a4da9044ddeddc2e59a67aee1c9b4a1b7cf043e20605ca2a5f4c5ef5",
    "truncated_dodecahedron": "71fc3d7a2a34bd8dabc16c2375b34dd6ef015696d3a7e7b6bc4bf0007f66f47b",
    "rhombicosidodecahedron": "10d0f4f8315ca268dbbc0bb13ee04fdaf63d2b490ae32c96ab8bfdb4b734eae0",
    "snub_dodecahedron": "5d2cb75f191e981ff7c6fd6b94d23f52ce50b19c220e144b18df4cb5b7041416",
    "triakis_icosahedron": "b0a412ad392c281482015e377d2d87fa466836409534578e42a662bef9232762",
    "pentakis_dodecahedron": "1fa3095e719723d50119f7de8e6f39e964bc8f91b510c8a595631619d7001c59",
}


@pytest.mark.parametrize("entry", CATALOG, ids=lambda e: e.name)
def test_catalog_shell_matches_its_pinned_digest(entry):
    spec = builtin(entry.name)
    digest = hashlib.sha256(repr(spec.faces).encode())
    digest.update(np.ascontiguousarray(spec.vertices, dtype="<f8").tobytes())
    assert digest.hexdigest() == SPEC_DIGESTS[entry.name]


@pytest.mark.parametrize("point", [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0), (1.0, 1.0, 1.0)],
                         ids=["centre", "face-centre", "edge-midpoint", "repeated-vertex"])
def test_face_finder_rejects_a_point_that_is_not_extreme(point):
    # a point inside the solid lies on no face, one inside a face on one and
    # one inside an edge on two; every vertex of a convex solid is on three,
    # and no two vertices are on the same faces
    with pytest.raises(ValidationError, match="^input points are not all extreme; not a convex solid$"):
        _faces_of_solid(np.vstack([_cube(), point]))


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_face_finder_matches_qhull_on_points_of_a_sphere(seed, scale):
    # points in general position on a sphere are all extreme and every face
    # is a triangle, so the faces are Qhull's facets; the tolerances follow
    # the solid's size
    spatial = pytest.importorskip("scipy.spatial")
    points = np.random.default_rng(seed).normal(size=(40, 3))
    points = scale * (points / np.linalg.norm(points, axis=1)[:, None] + 3.0)
    faces = _faces_of_solid(points)
    assert sorted(sorted(f) for f in faces) == sorted(
        sorted(s) for s in spatial.ConvexHull(points).simplices.tolist()
    )
    centre = points.mean(axis=0)
    for a, b, c in faces:
        outward = np.cross(points[b] - points[a], points[c] - points[b])
        assert outward @ (points[a] - centre) > 0.0
