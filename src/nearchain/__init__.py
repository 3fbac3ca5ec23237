"""nearchain: near-repeat event chain detection via cohesive subgraphs.

Pipeline: ingest raw event CSVs into cleaned planar events, index them in a
3-D R-tree, link near-repeat pairs into an event graph, decompose it with
k-core / k-truss / k-DBSCAN / maximal-clique detectors, and quantify global
space-time clustering with the Knox contingency test.
"""

from .common import SCHEMA_VERSION
from .events import Event, IngestConfig, RangeWindow, ingest_events
from .spatial import RTree3, build, neighbor_pairs
from .graph import (
    EventGraph,
    build_graph,
    clustering_coefficient,
    component_labels,
    compute_supports,
    diameter,
    graph_stats,
)
from .cohesive import (
    CliqueSet,
    DecompositionResult,
    Subgraph,
    core_numbers,
    decompose,
    enumerate_cliques,
    k_core_decompose,
    k_dbscan,
    k_truss_decompose,
    truss_numbers,
    validate,
)
from .knox import (
    KnoxConfig,
    KnoxTable,
    build_table,
    expected_and_residuals,
    monte_carlo,
)
from .projection import project_to_utm, utm_to_latlon, zone_for_lon
from .synth import SynthConfig, generate

__version__ = "0.1.0"

__all__ = [
    "SCHEMA_VERSION",
    "Event",
    "IngestConfig",
    "RangeWindow",
    "ingest_events",
    "RTree3",
    "build",
    "neighbor_pairs",
    "EventGraph",
    "build_graph",
    "clustering_coefficient",
    "component_labels",
    "compute_supports",
    "diameter",
    "graph_stats",
    "CliqueSet",
    "DecompositionResult",
    "Subgraph",
    "core_numbers",
    "decompose",
    "enumerate_cliques",
    "k_core_decompose",
    "k_dbscan",
    "k_truss_decompose",
    "truss_numbers",
    "validate",
    "KnoxConfig",
    "KnoxTable",
    "build_table",
    "expected_and_residuals",
    "monte_carlo",
    "project_to_utm",
    "utm_to_latlon",
    "zone_for_lon",
    "SynthConfig",
    "generate",
    "__version__",
]
