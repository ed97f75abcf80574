"""Spanning forests of edge-colored graphs under per-color edge budgets.

Given a graph whose edges carry colors, a budget for every color, and a
target component count m, the solver either constructs a spanning forest
with exactly m components that uses each color within its budget, or
returns a violating color set certifying that no such forest exists.
"""

from .bounds import (
    ColorDensity,
    DensityReport,
    complete_graph_threshold,
    density_sufficient,
    max_edges_for_components,
)
from .certificates import (
    Certificate,
    evaluate_condition,
    extract_certificate,
    oracle_condition,
    oracle_forest_search,
)
from .engine import (
    Found,
    Impossible,
    SolveVerdict,
    augment_step,
    maximize_forest,
    prune_to_components,
    solve,
)
from .errors import (
    CapforestError,
    EmptyGraphError,
    GraphConstructionError,
    InstanceParseError,
    InternalSolverError,
    MissingCapacityError,
    OracleLimitError,
    PreconditionError,
)
from .generators import GenSpec, generate
from .graph import (
    CapacityMap,
    ColoredGraph,
    Edge,
    Forest,
    color_census,
    component_count,
)

__all__ = [
    "CapacityMap",
    "CapforestError",
    "Certificate",
    "ColorDensity",
    "ColoredGraph",
    "DensityReport",
    "Edge",
    "EmptyGraphError",
    "Forest",
    "Found",
    "GenSpec",
    "GraphConstructionError",
    "Impossible",
    "InstanceParseError",
    "InternalSolverError",
    "MissingCapacityError",
    "OracleLimitError",
    "PreconditionError",
    "SolveVerdict",
    "augment_step",
    "color_census",
    "complete_graph_threshold",
    "component_count",
    "density_sufficient",
    "evaluate_condition",
    "extract_certificate",
    "generate",
    "max_edges_for_components",
    "maximize_forest",
    "oracle_condition",
    "oracle_forest_search",
    "prune_to_components",
    "solve",
]
