"""Exact enumeration and ranking of optimal unfolding nets of polyhedral shells.

The pipeline: describe a shell (`PolyhedronSpec`), build its vertex graph
and faces (`build_shell_graph`, which runs every shell check and accepts a
closed shell or one with a single hole bounded by one simple cycle),
enumerate every optimal cut
(`enumerate_mlsts`; an open shell's search is seeded with its hole boundary,
and each cut it lists is checked as a hole cut), deduplicate under the face
map's automorphism group (`dedupe_cuts`), unfold each class to a planar net
(`unfold`), rank by radius of gyration (`rank_nets`), and select the first
non-overlapping net (`select_optimal_net`).  Every cut list and count comes
from one search over interior vertex sets: `enumerate_interiors` gives each
set with the number of trees on it, and `count_labeled_cuts` and
`count_net_classes` count exactly without materializing cut lists, for
closed and open shells alike.
"""

from .analysis import (
    ShellStatistics,
    build_statistics_table,
    compute_statistics,
    estimate_comparison,
    leaf_estimate,
    leaf_estimate_v,
    mlst_ratio_estimate,
    vertex_estimate,
)
from .catalog import CATALOG, CatalogEntry, builtin, catalog_entry, catalog_names
from .errors import (
    BudgetExceededError,
    FallbackExhaustedError,
    MissingGeometryError,
    NetfoldError,
    NonManifoldError,
    ValidationError,
)
from .geometry import (
    NetLayout,
    RankedNet,
    centroid_and_rg,
    check_overlap,
    rank_nets,
    select_optimal_net,
    unfold,
)
from .holes import remove_faces
from .io import load_polyhedron, save_polyhedron
from .mlst import (
    InteriorResult,
    MlstResult,
    count_labeled_cuts,
    enumerate_interiors,
    enumerate_mlsts,
)
from .polyhedra import PolyhedronSpec
from .shellgraph import (
    ShellGraph,
    build_shell_graph,
    count_spanning_trees,
    enumerate_spanning_trees,
)
from .svg import export_svg
from .symmetry import (
    AutomorphismGroup,
    CanonicalCut,
    CutClasses,
    count_net_classes,
    dedupe_cuts,
    find_automorphisms,
)

__version__ = "0.1.0"

__all__ = [
    "AutomorphismGroup",
    "BudgetExceededError",
    "CATALOG",
    "CanonicalCut",
    "CatalogEntry",
    "CutClasses",
    "FallbackExhaustedError",
    "InteriorResult",
    "MissingGeometryError",
    "MlstResult",
    "NetLayout",
    "NetfoldError",
    "NonManifoldError",
    "PolyhedronSpec",
    "RankedNet",
    "ShellGraph",
    "ShellStatistics",
    "ValidationError",
    "build_shell_graph",
    "build_statistics_table",
    "builtin",
    "catalog_entry",
    "catalog_names",
    "centroid_and_rg",
    "check_overlap",
    "compute_statistics",
    "count_labeled_cuts",
    "count_net_classes",
    "count_spanning_trees",
    "dedupe_cuts",
    "enumerate_interiors",
    "enumerate_mlsts",
    "enumerate_spanning_trees",
    "estimate_comparison",
    "export_svg",
    "find_automorphisms",
    "leaf_estimate",
    "leaf_estimate_v",
    "load_polyhedron",
    "mlst_ratio_estimate",
    "rank_nets",
    "remove_faces",
    "save_polyhedron",
    "select_optimal_net",
    "unfold",
    "vertex_estimate",
]
