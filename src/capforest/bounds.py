"""Closed-form edge bounds and the density-based existence guarantee.

All comparisons use exact integer or rational arithmetic; the inequalities
are sharp and boundary cases (an observed count landing exactly on its
rational bound) must pass.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .graph import CapacityMap, ColoredGraph, check_component_target, color_census


class ColorDensity(NamedTuple):
    """One color's share of the density check."""

    observed: int
    bound: Fraction
    ok: bool


class DensityReport(NamedTuple):
    """Outcome of the density-based sufficient condition.

    ``guaranteed`` is True when the graph has more than ``threshold`` edges
    and every color's observed count stays within its rational bound
    ``cap * edge_count / (n - components)``. A True report guarantees a
    qualifying forest exists; False says nothing either way.
    """

    edge_count: int
    threshold: int
    ratio: Fraction
    per_color: dict[str, ColorDensity]
    guaranteed: bool


def max_edges_for_components(n: int, s: int) -> int:
    """Most edges a graph on ``n`` vertices with ``s`` components can have.

    The extremal graph is one clique on ``n - s + 1`` vertices plus
    ``s - 1`` isolated vertices.
    """
    check_component_target(n, s)
    return math.comb(n - s + 1, 2)


def complete_graph_threshold(n: int, components: int) -> Fraction:
    """Per-unit-capacity color bound for complete graphs: n(n-1)/(2(n-m))."""
    check_component_target(n, components, below_n=True)
    return Fraction(n * (n - 1), 2 * (n - components))


def density_sufficient(
    g: ColoredGraph, caps: CapacityMap, components: int
) -> DensityReport:
    """Evaluate the density-based sufficient condition on a concrete graph.

    The per-color observed counts come from the graph's own census (the
    tightest bound on its coloring). ``components`` must lie in ``1..n-1``;
    the condition is not stated for ``components = n``. The edge threshold
    is :func:`max_edges_for_components` at ``components + 1``: a graph with
    more edges than any graph with ``components + 1`` components can have
    has at most ``components`` components.
    """
    n = g.n
    check_component_target(n, components, below_n=True)
    edge_count = len(g.edges)
    threshold = max_edges_for_components(n, components + 1)
    ratio = Fraction(edge_count, n - components)
    census = color_census(g)
    per_color: dict[str, ColorDensity] = {}
    all_ok = True
    for color, observed in sorted(census.items()):
        cap = caps.cap(color)
        # cross-multiplied form of observed <= cap * edge_count / (n - m)
        ok = observed * (n - components) <= edge_count * cap
        per_color[color] = ColorDensity(observed, ratio * cap, ok)
        all_ok = all_ok and ok
    return DensityReport(
        edge_count=edge_count,
        threshold=threshold,
        ratio=ratio,
        per_color=per_color,
        guaranteed=edge_count > threshold and all_ok,
    )
