"""Violating color sets: constructive extraction and exhaustive oracles.

When no qualifying forest exists, some color set ``R`` witnesses the
failure: deleting every ``R``-colored edge leaves strictly more components
than the target plus the total budget of ``R``, so no forest could bridge
the gap. :func:`extract_certificate` takes the colors that the solver's
final exchange-graph search reached, the one that finds no augmenting
path, whose component count the maximiser has already checked.
The oracle functions answer the same question by brute force and exist to
cross-check the solver on small instances; they must stay independent of
the augmenting-path machinery. :func:`oracle_condition` answers it for one
target component count. The other two compute, once per instance, the two
sides of Edmonds' min-max equality, from which the verdict at every target
follows: :func:`oracle_fewest_components` from the color sets, and
:func:`oracle_forest_search` as a largest forest. Both color-set oracles
read one enumeration of the color subsets, and every component count here
is :func:`~capforest.graph.component_count`.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import chain, combinations
from typing import TYPE_CHECKING

from .errors import InternalSolverError, OracleLimitError
from .graph import (
    CapacityMap,
    ColoredGraph,
    DisjointSet,
    Forest,
    Record,
    check_component_target,
    color_set,
    component_count,
)

if TYPE_CHECKING:
    from .engine import ExchangeGraph

# largest instances the exhaustive oracles accept
ORACLE_MAX_PALETTE = 16
ORACLE_MAX_EDGES = 20


def check_palette_limit(g: ColoredGraph) -> None:
    """Refuse a palette beyond ``ORACLE_MAX_PALETTE`` colors."""
    if len(g.palette) > ORACLE_MAX_PALETTE:
        raise OracleLimitError(
            f"palette of {len(g.palette)} colors exceeds the oracle limit "
            f"of {ORACLE_MAX_PALETTE}"
        )


def check_edge_limit(g: ColoredGraph) -> None:
    """Refuse a graph beyond ``ORACLE_MAX_EDGES`` edges."""
    if len(g.edges) > ORACLE_MAX_EDGES:
        raise OracleLimitError(
            f"{len(g.edges)} edges exceed the search limit of {ORACLE_MAX_EDGES}"
        )


def evaluate_condition(
    g: ColoredGraph, caps: CapacityMap, components: int, colors: Iterable[str]
) -> tuple[int, int]:
    """Components left after deleting ``colors`` vs. the reconnection budget.

    Returns ``(remaining, budget)`` with ``budget = components`` plus the
    capacity total over ``colors``. The pair witnesses impossibility exactly
    when ``remaining > budget``. ``components`` must lie in ``1..n``.
    """
    colors = color_set(colors)
    check_component_target(g.n, components)
    return component_count(g, colors), components + caps.total(colors)


class Certificate(Record):
    """Proof that no qualifying forest exists.

    Deleting the ``violating`` colors leaves ``omega_measured`` components,
    strictly more than ``bound`` (the component target plus the violating
    colors' capacity total). Strictness is enforced at construction.
    """

    __slots__ = __match_args__ = ("violating", "omega_measured", "bound")
    violating: frozenset[str]
    omega_measured: int
    bound: int

    def __init__(self, violating: Iterable[str], omega_measured: int, bound: int):
        object.__setattr__(self, "violating", violating)
        object.__setattr__(self, "omega_measured", omega_measured)
        object.__setattr__(self, "bound", bound)
        self.__post_init__()

    def __post_init__(self):
        object.__setattr__(self, "violating", color_set(self.violating))
        if self.omega_measured <= self.bound:
            raise InternalSolverError(
                f"certificate does not witness a violation: "
                f"{self.omega_measured} <= {self.bound}"
            )

    def sorted_colors(self) -> list[str]:
        return sorted(self.violating)


def extract_certificate(search: ExchangeGraph, components: int) -> Certificate:
    """Read a violating color set off a search that found no augmenting path.

    This is the solver's last step on the impossible path: ``search`` is
    the exchange graph whose
    :meth:`~capforest.engine.ExchangeGraph.shortest_augmenting_path` came
    up empty on a forest short of ``n - components`` edges, and the graph
    and the budgets are the search's own. The violating set is
    ``search.reached_colors``: the maximiser has proven, by one component
    count, that deleting them leaves ``n - |F|`` components plus their
    budget, the count reported here. :class:`Certificate` refuses the set
    unless the inequality is violated strictly.
    """
    forest = search.forest
    violating = color_set(search.reached_colors)
    spent = search.caps.total(violating)
    return Certificate(violating, forest.host.n - forest.size + spent, components + spent)


def _color_sets(
    g: ColoredGraph, caps: CapacityMap
) -> Iterator[tuple[tuple[str, ...], int, int]]:
    """Every subset ``R`` of the palette, with ``omega(G - E_R)`` and ``f(R)``.

    Yields ``(R, components left after deleting R's edges, R's capacity
    total)``, each count computed as its subset is read, in the sorted
    order of the increasing color tuples, which is the depth-first order
    over the sorted palette: ``()``, ``(a,)``, ``(a, b)``, ``(a, b, c)``,
    ``(a, c)``, ``(b,)``, ... Palettes beyond ``ORACLE_MAX_PALETTE`` colors
    are refused at the call, before anything is yielded.
    """
    check_palette_limit(g)
    colors = g.sorted_palette()
    subsets = sorted(
        chain.from_iterable(combinations(colors, k) for k in range(len(colors) + 1))
    )
    return ((r, component_count(g, r), caps.total(r)) for r in subsets)


def oracle_condition(
    g: ColoredGraph, caps: CapacityMap, components: int
) -> Certificate | None:
    """Exhaustively test the reconnection inequality over all color subsets.

    Returns the first violating subset in lexicographic order over the
    sorted palette (not necessarily a minimal one), or None when the
    inequality holds everywhere. Palettes beyond ``ORACLE_MAX_PALETTE``
    colors are refused before the component count is checked.
    """
    color_sets = _color_sets(g, caps)  # palette limit first
    check_component_target(g.n, components)
    for subset, remaining, spent in color_sets:
        if remaining > components + spent:
            return Certificate(subset, remaining, components + spent)
    return None


def oracle_fewest_components(g: ColoredGraph, caps: CapacityMap) -> int:
    """Fewest components of any capacity-respecting forest, from color sets.

    Computes the maximum over all color sets ``R`` of the components left
    after deleting ``R``'s edges minus ``R``'s capacity total. By Edmonds'
    matroid intersection theorem this is the fewest components a forest
    can have, so a forest with ``m`` components exists exactly when the
    result is at most ``m``. Palettes beyond ``ORACLE_MAX_PALETTE`` colors
    are refused.
    """
    return max(left - spent for _, left, spent in _color_sets(g, caps))


def oracle_forest_search(g: ColoredGraph, caps: CapacityMap) -> Forest:
    """First largest capacity-respecting forest, by branch and bound.

    Extends forests over the edges in increasing index order, stops at the
    first spanning tree (``n - 1`` edges), and abandons a branch once the
    edges left cannot beat the largest forest found so far; a backtrack
    undoes its union with :meth:`~capforest.graph.DisjointSet.rewind`.
    Returns the first largest forest in index order; a forest with ``m``
    components exists exactly when ``n - size <= m``. Independent of the
    solver.
    Graphs beyond ``ORACLE_MAX_EDGES`` edges are refused.
    """
    check_edge_limit(g)
    edges = g.edges
    total = len(edges)
    target = g.n - 1
    counts: dict[str, int] = {}
    chosen: list[int] = []
    dsu = DisjointSet(g.n)
    best: tuple[int, ...] = ()

    def extend(start: int) -> None:
        nonlocal best
        if len(chosen) > len(best):
            best = tuple(chosen)
        for i in range(start, total):
            if len(best) >= target or len(chosen) + total - i <= len(best):
                return
            e = edges[i]
            if counts.get(e.color, 0) >= caps.cap(e.color):
                continue
            if not dsu.union(e.u, e.v):
                continue
            counts[e.color] = counts.get(e.color, 0) + 1
            chosen.append(i)
            extend(i + 1)
            chosen.pop()
            counts[e.color] -= 1
            dsu.rewind()

    extend(0)
    return Forest(g, best)
