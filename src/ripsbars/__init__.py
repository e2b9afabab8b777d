"""Vietoris–Rips persistent homology barcodes under interchangeable metrics.

The pipeline: a distance matrix (any pseudometric) → flag-complex filtration
stored as per-dimension vertex and birth arrays → Z/2 persistence pairs
(union-find, then coboundary reduction with clearing) → barcode →
per-dimension statistics of bar lifespans.  Two data domains ship built in:
planar point clouds under Euclidean/taxicab/supremum metrics, and
non-transitive dice under graph-derived distances.
"""

from .cloud import Region, four_hole_disk, sample_region
from .dice import (
    BeatingGraph,
    build_beating_graph,
    enumerate_dice,
    non_transitive_subset,
)
from .fileio import VERSION as __version__
from .filtration import Filtration, build_filtration
from .metrics import (
    DistanceMatrix,
    build_distance_matrix,
    euclidean,
    supremum,
    taxicab,
)
from .persistence import Barcode, barcode, extract_pairs, persistence_pairs
from .stats import BarStats, bar_stats, compare

__all__ = [
    "Barcode",
    "BarStats",
    "BeatingGraph",
    "DistanceMatrix",
    "Filtration",
    "Region",
    "bar_stats",
    "barcode",
    "build_beating_graph",
    "build_distance_matrix",
    "build_filtration",
    "compare",
    "enumerate_dice",
    "euclidean",
    "extract_pairs",
    "four_hole_disk",
    "non_transitive_subset",
    "persistence_pairs",
    "sample_region",
    "supremum",
    "taxicab",
    "__version__",
]
