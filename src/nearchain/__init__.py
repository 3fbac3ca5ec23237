"""nearchain: near-repeat event chain detection via cohesive subgraphs.

Pipeline: ingest raw event CSVs into cleaned planar events, index them in a
3-D R-tree, link near-repeat pairs into an event graph, decompose it with
k-core / k-truss / k-DBSCAN / maximal-clique detectors, and quantify global
space-time clustering with the Knox contingency test.

Importing the package loads no submodule: each exported name is imported
from its module on first use (PEP 562), so ``import nearchain`` does not
pull in numpy.
"""

import importlib

_EXPORTS = {
    "common": ("SCHEMA_VERSION",),
    "config": ("IngestConfig", "RangeWindow", "KnoxConfig"),
    "events": ("Event", "ingest_events"),
    "spatial": ("RTree3", "build", "neighbor_pairs"),
    "graph": (
        "EventGraph",
        "build_graph",
        "clustering_coefficient",
        "component_labels",
        "compute_supports",
        "diameter",
        "graph_stats",
    ),
    "cohesive": (
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
    ),
    "knox": ("KnoxTable", "build_table", "expected_and_residuals", "monte_carlo"),
    "projection": ("project_to_utm", "utm_to_latlon", "zone_for_lon"),
    "synth": ("SynthConfig", "generate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value
