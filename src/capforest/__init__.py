"""Spanning forests of edge-colored graphs under per-color edge budgets.

Given a graph whose edges carry colors, a budget for every color, and a
target component count m, the solver either constructs a spanning forest
with exactly m components that uses each color within its budget, or
returns a violating color set certifying that no such forest exists.

The names below are imported from their submodules on first use, so that
``import capforest`` (and a ``capforest solve`` process) loads only the
modules it runs.
"""

# public name -> the submodule that defines it
_MODULE_OF = {
    "ColorDensity": "bounds",
    "DensityReport": "bounds",
    "complete_graph_threshold": "bounds",
    "density_sufficient": "bounds",
    "max_edges_for_components": "bounds",
    "Certificate": "certificates",
    "evaluate_condition": "certificates",
    "oracle_condition": "certificates",
    "oracle_forest_search": "certificates",
    "maximize_forest": "engine",
    "prune_to_components": "engine",
    "solve": "engine",
    "CapforestError": "errors",
    "EmptyGraphError": "errors",
    "GraphConstructionError": "errors",
    "InstanceParseError": "errors",
    "InternalSolverError": "errors",
    "MissingCapacityError": "errors",
    "OracleLimitError": "errors",
    "PreconditionError": "errors",
    "GenSpec": "generators",
    "generate": "generators",
    "CapacityMap": "graph",
    "ColoredGraph": "graph",
    "Edge": "graph",
    "Forest": "graph",
    "color_census": "graph",
    "component_count": "graph",
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
