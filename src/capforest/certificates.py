"""Violating color sets: constructive extraction and exhaustive oracles.

When no qualifying forest exists, some color set ``R`` witnesses the
failure: deleting every ``R``-colored edge leaves strictly more components
than the target plus the total budget of ``R``, so no forest could bridge
the gap. :func:`extract_certificate` reads such a set off the solver's
final exchange-graph search, the one that finds no augmenting path, and
re-verifies it by deleting the colors and counting components. The
oracle functions answer the same question by brute force and exist to
cross-check the solver on small instances; they must stay independent of
the augmenting-path machinery. Two of them answer it for one target
component count; the other two compute, once per instance, the two sides
of Edmonds' min-max equality, from which the verdict at every target
follows. Both forest oracles run one branch and bound.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from typing import TYPE_CHECKING

from .errors import (
    EmptyGraphError,
    InternalSolverError,
    OracleLimitError,
    PreconditionError,
)
from .graph import CapacityMap, ColoredGraph, DisjointSet, Forest, Record

if TYPE_CHECKING:
    from .engine import ExchangeGraph

# largest instances the exhaustive oracles accept
ORACLE_MAX_PALETTE = 16
ORACLE_MAX_EDGES = 20


def _components_without(g: ColoredGraph, colors: set[str]) -> int:
    dsu = DisjointSet(g.n)
    for u, v, color in g.edges:
        if color not in colors:
            dsu.union(u, v)
    return dsu.components


def evaluate_condition(
    g: ColoredGraph, caps: CapacityMap, components: int, colors: Iterable[str]
) -> tuple[int, int]:
    """Components left after deleting ``colors`` vs. the reconnection budget.

    Returns ``(remaining, budget)`` with ``budget = components`` plus the
    capacity total over ``colors``. The pair witnesses impossibility exactly
    when ``remaining > budget``. ``components`` must lie in ``1..n``.
    """
    colors = set(colors)
    if g.n == 0:
        raise EmptyGraphError("component count is undefined on zero vertices")
    if not 1 <= components <= g.n:
        raise PreconditionError(
            f"component count must be in 1..{g.n}, got {components}"
        )
    return _components_without(g, colors), components + caps.total(colors)


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
        object.__setattr__(self, "violating", frozenset(self.violating))
        if self.omega_measured <= self.bound:
            raise InternalSolverError(
                f"certificate does not witness a violation: "
                f"{self.omega_measured} <= {self.bound}"
            )

    def sorted_colors(self) -> list[str]:
        return sorted(self.violating)


def extract_certificate(search: ExchangeGraph, components: int) -> Certificate:
    """Read a violating color set off a search that found no augmenting path.

    ``search`` must be an exchange graph whose
    :meth:`~capforest.engine.ExchangeGraph.shortest_augmenting_path` has
    returned None, and its forest must fall short of ``n - components``
    edges (both checked); the graph and the budgets are the search's own.
    The violating set is the colors of the outside edges the search reached
    from the sources: by Edmonds' matroid intersection min-max theorem the
    reached set is a minimum cut, so deleting its colors leaves more
    components than the target plus their budget. Rather than trust this,
    the set is re-verified by direct computation, and :class:`Certificate`
    refuses it unless the inequality is violated strictly.
    """
    forest = search.forest
    g = forest.host
    if forest.size >= g.n - components:
        raise PreconditionError(
            "forest already reaches the component target; nothing to certify"
        )
    if search.reached is None:
        raise PreconditionError(
            "the search has not come up empty; "
            "certificate extraction needs a search on a maximum forest"
        )
    members = frozenset(forest.members)
    violating = frozenset(
        g.edges[i].color for i in search.reached if i not in members
    )
    remaining, budget = evaluate_condition(g, search.caps, components, violating)
    return Certificate(violating, remaining, budget)


def _lex_subsets(items: Sequence[str]) -> Iterator[tuple[str, ...]]:
    # lexicographic over sorted input: (), (a,), (a,b), (a,b,c), (a,c), (b,), ...
    prefix: list[str] = []

    def rec(start: int) -> Iterator[tuple[str, ...]]:
        yield tuple(prefix)
        for i in range(start, len(items)):
            prefix.append(items[i])
            yield from rec(i + 1)
            prefix.pop()

    yield from rec(0)


def _check_oracle_palette(g: ColoredGraph) -> None:
    if len(g.palette) > ORACLE_MAX_PALETTE:
        raise OracleLimitError(
            f"palette of {len(g.palette)} colors exceeds the oracle limit "
            f"of {ORACLE_MAX_PALETTE}"
        )


def _check_oracle_edges(g: ColoredGraph) -> None:
    if len(g.edges) > ORACLE_MAX_EDGES:
        raise OracleLimitError(
            f"{len(g.edges)} edges exceed the search limit of {ORACLE_MAX_EDGES}"
        )


def oracle_condition(
    g: ColoredGraph, caps: CapacityMap, components: int
) -> Certificate | None:
    """Exhaustively test the reconnection inequality over all color subsets.

    Returns the first violating subset in lexicographic order over the
    sorted palette (not necessarily a minimal one), or None when the
    inequality holds everywhere. Palettes beyond ``ORACLE_MAX_PALETTE``
    colors are refused.
    """
    _check_oracle_palette(g)
    for subset in _lex_subsets(sorted(g.palette)):
        remaining, budget = evaluate_condition(g, caps, components, subset)
        if remaining > budget:
            return Certificate(frozenset(subset), remaining, budget)
    return None


def oracle_fewest_components(g: ColoredGraph, caps: CapacityMap) -> int:
    """Fewest components of any capacity-respecting forest, from color sets.

    Computes the maximum over all color sets ``R`` of the components left
    after deleting ``R``'s edges minus ``R``'s capacity total. By Edmonds'
    matroid intersection theorem this is the fewest components a forest
    can have, so a forest with ``m`` components exists exactly when the
    result is at most ``m``. Only colors that occur on edges are put in
    ``R``: another color deletes nothing and costs its capacity. Palettes
    beyond ``ORACLE_MAX_PALETTE`` colors are refused.
    """
    _check_oracle_palette(g)
    return max(
        _components_without(g, set(subset)) - caps.total(subset)
        for subset in _lex_subsets(sorted({e.color for e in g.edges}))
    )


class _RewindableDisjointSet:
    """Union by size without path compression, so unions can be undone."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self._trail: list[int] = []

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self._trail.append(rb)
        return True

    def rewind(self) -> None:
        rb = self._trail.pop()
        ra = self.parent[rb]
        self.parent[rb] = rb
        self.size[ra] -= self.size[rb]


def _forest_search(
    g: ColoredGraph, caps: CapacityMap, target: int
) -> tuple[int, ...]:
    """Branch and bound over capacity-respecting forests, by edge index.

    Extends forests over the edges in increasing index order, stops at the
    first forest of ``target`` edges, and abandons a branch once the edges
    left cannot beat the largest forest found so far. Until the target is
    reached that forest is smaller than it, so no abandoned branch holds a
    forest of ``target`` edges. Returns the members of the first such
    forest in index order, or of the first largest forest when none exists.
    """
    edges = g.edges
    total = len(edges)
    counts: dict[str, int] = {}
    chosen: list[int] = []
    dsu = _RewindableDisjointSet(g.n)
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
    return best


def oracle_forest_search(
    g: ColoredGraph, caps: CapacityMap, components: int
) -> Forest | None:
    """Backtracking search for a qualifying forest, independent of the solver.

    Returns the first acyclic, capacity-respecting edge subset of size
    ``n - components`` in increasing index order as a :class:`Forest`, or
    None when none exists. Graphs beyond ``ORACLE_MAX_EDGES`` edges are
    refused.
    """
    _check_oracle_edges(g)
    need = g.n - components
    if need < 0 or need > len(g.edges):
        return None
    members = _forest_search(g, caps, need)
    return Forest(g, members) if len(members) == need else None


def oracle_largest_forest(g: ColoredGraph, caps: CapacityMap) -> int:
    """Edge count of a largest capacity-respecting forest, by branch and bound.

    The search stops early at a spanning tree's ``n - 1`` edges. A forest
    with ``m`` components exists exactly when ``n - result <= m``. Graphs
    beyond ``ORACLE_MAX_EDGES`` edges are refused.
    """
    _check_oracle_edges(g)
    return len(_forest_search(g, caps, g.n - 1))
