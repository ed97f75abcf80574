"""Maximum capacity-respecting forests and the exactly-m-components solver.

The maximiser starts from a greedy forest: edges in index order, each kept
when it joins two components and its color has spare budget. It then grows
the forest one edge at a time. Each step, :func:`augment_step`, searches
an exchange structure over edge indices: swapping a forest edge
for an outside edge is safe when it either preserves acyclicity (the
forest edge lies on the unique forest path between the outside edge's
endpoints) or preserves the per-color budgets (both edges carry the same
fully-used color). One walk per step roots and labels every forest
component; forest paths are the climbs from both endpoints to their
lowest common ancestor. A shortest chain of such swaps starting at an edge
that joins two forest components and ending at an edge whose color still
has spare budget makes the forest one edge larger. The search for it
works color by color: all outside edges of one fully-used color reach the
same forest edges, so it starts from one source per color and claims a
color's forest edges once, alternating outside and member half-steps.
A member half-step walks the sinks in index order and stops at the first
whose forest path meets the layer; only after a miss does it claim the
other inside edges whose paths meet it. Most chains end at that first stop.
When no chain exists the forest has maximum size among all
capacity-respecting forests. One component count without the colors that
last search reached proves it, for every verdict, by Edmonds' min-max
equality (the exhaustive oracles in :mod:`capforest.certificates`
cross-check it at test scale), and those colors form the violating color
set. :func:`solve` returns the proof itself, the pruned forest or that
certificate, and :func:`solve_every_target` returns it at every target
from one maximisation.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InternalSolverError, PreconditionError
from .graph import (
    CapacityMap,
    ColoredGraph,
    DisjointSet,
    Forest,
    check_component_target,
    component_count,
)

if TYPE_CHECKING:
    from collections.abc import Iterator

    from .certificates import Certificate


class ExchangeGraph:
    """Search structure for one augmentation step.

    Nodes are edge indices of the host graph. Sources are outside edges
    joining two forest components; ``sources`` keeps the smallest-index one
    of each color, in increasing index order, because the others reach
    nothing that the first does not. Sinks are outside edges whose color
    still has spare budget (an edge that is both is a zero-length
    augmenting path). Arcs run from an outside edge with a fully-used color
    to the member edges of that color, and from a member edge to every
    outside edge whose forest path contains it; the search finds the latter
    by climbing forest paths and stores none. Building the structure roots
    the forest, splits the outside edges into sources and inside edges (both
    endpoints in one component) and notes which member colors have spare
    budget.

    The graph is the forest's host. The forest must respect ``caps``;
    otherwise the constructor raises :class:`PreconditionError`. The forest
    and the budgets are kept as ``forest`` and ``caps``. A search that finds
    no path keeps the colors of the outside edges it reached in
    ``reached_colors``; they form a violating color set
    (:func:`capforest.certificates.extract_certificate`).
    """

    def __init__(self, caps: CapacityMap, forest: Forest):
        g = forest.host
        edges = g.edges
        members_by_color: dict[str, list[int]] = {}
        for i in forest.members:
            members_by_color.setdefault(edges[i].color, []).append(i)
        spare: dict[str, bool] = {}  # color -> budget left; others enter when read
        for color, members in members_by_color.items():
            if len(members) > (cap := caps.cap(color)):
                raise PreconditionError(
                    f"forest already exceeds the capacity of color {color!r}"
                )
            spare[color] = len(members) < cap

        # Root every component at its smallest vertex, which also labels
        # the component; the forest path of an inside edge is then the two
        # climbs from its endpoints to their lowest common ancestor.
        adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
        for i in forest.members:
            e = edges[i]
            adj[e.u].append((e.v, i))
            adj[e.v].append((e.u, i))
        label = [-1] * g.n
        parent = list(range(g.n))
        parent_edge = [-1] * g.n
        depth = [0] * g.n
        for root in range(g.n):
            if label[root] >= 0:
                continue
            label[root] = root
            stack = [root]
            while stack:
                x = stack.pop()
                for y, idx in adj[x]:
                    if label[y] < 0:
                        label[y] = root
                        parent[y] = x
                        parent_edge[y] = idx
                        depth[y] = depth[x] + 1
                        stack.append(y)

        member_set = frozenset(forest.members)
        # outside edges joining a component to itself, in index order
        inside: list[int] = []
        # color -> its smallest-index outside edge joining two components;
        # colors enter in increasing index order, so the values are sorted
        first_source: dict[str, int] = {}
        for i, (a, b, color) in enumerate(edges):
            if i in member_set:
                continue
            if label[a] != label[b]:
                first_source.setdefault(color, i)
            else:
                inside.append(i)

        self.sources: list[int] = list(first_source.values())
        self.forest = forest
        self.reached_colors: frozenset[str] | None = None
        self.caps = caps
        self._edges = edges
        self._member_set = member_set
        self._members_by_color = members_by_color
        self._spare = spare
        self._inside = inside
        self._tree = parent, parent_edge, depth

    def _member_half_step(self, layer: set[int], parent: dict[int, int | None]) -> list[int]:
        """Claim the inside edges whose forest path holds a member of ``layer``.

        Each claimed edge gets the smallest-index such member as its
        ``parent``. The sinks are walked first, in index order, skipping full
        colors without a climb: the first sink claimed is returned alone, and
        ends the search at the next outside half-step. After a miss, the
        unclaimed inside edges of full colors are claimed the same way, and
        returned in index order as the next outside layer.
        """
        edges, caps, spare = self._edges, self.caps, self._spare
        up, parent_edge, depth = self._tree
        claimed = []
        for sinks in (True, False):
            for edge in self._inside:
                a, b, color = edges[edge]
                if (s := spare.get(color)) is None:
                    s = spare[color] = caps.cap(color) > 0
                if s != sinks or edge in parent:
                    continue
                hits = []
                while a != b:
                    if depth[a] < depth[b]:
                        a, b = b, a
                    if (member := parent_edge[a]) in layer:
                        hits.append(member)
                    a = up[a]
                if hits:
                    parent[edge] = min(hits)
                    if sinks:
                        return [edge]
                    claimed.append(edge)
        return claimed

    def shortest_augmenting_path(self) -> list[int] | None:
        """Shortest source-to-sink path, or None when the forest is maximum.

        Breadth-first, scanning each layer in increasing edge-index order,
        so ties always resolve the same way. Layers alternate: the outside
        half-step stops at the first edge whose color has spare budget and
        otherwise expands each color once, from its first edge, to all its
        members; the member half-step claims the inside edges on the
        members' forest paths, or only the first sink among them. When no
        path exists, every reached outside edge has a full color (else it is
        a sink), and the colors expanded are kept in ``reached_colors``.

        A color without forest edges has its budget read when the search
        first meets it, and a sink walk stops at its first hit, so a missing
        budget raises :class:`~capforest.errors.MissingCapacityError` only
        when it is read.
        """
        edges, caps = self._edges, self.caps
        by_color, spare = self._members_by_color, self._spare
        parent: dict[int, int | None] = dict.fromkeys(self.sources)
        expanded: set[str] = set()
        outside = self.sources
        while outside:
            # outside half-step: a color's first edge is a sink or expands it
            reached: list[int] = []
            for node in outside:
                color = edges[node].color
                if color in expanded:
                    continue
                if (s := spare.get(color)) is None:
                    s = spare[color] = caps.cap(color) > 0
                if s:
                    return _path_to(parent, node)
                expanded.add(color)
                same = by_color.get(color, ())
                parent.update(dict.fromkeys(same, node))
                reached += same
            if not reached:
                break
            # member half-step: members claim the inside edges on their paths
            outside = self._member_half_step(set(reached), parent)
        self.reached_colors = frozenset(expanded)
        return None


def _path_to(parent: dict[int, int | None], node: int) -> list[int]:
    """The search path from a source to ``node``, following ``parent``.

    No path has more nodes than ``parent`` has keys; a longer walk is a
    parent cycle, which only a search bug can make.
    """
    path = [node]
    for _ in range(len(parent)):
        cur = parent[path[-1]]
        if cur is None:
            return path[::-1]
        path.append(cur)
    raise InternalSolverError(f"search parents form a cycle above edge #{node}")


def augment_step(search: ExchangeGraph) -> ExchangeGraph | None:
    """One augmentation: the search on a forest one edge larger, or None.

    Runs ``search``; when it finds no augmenting path the forest is maximum,
    ``search.reached_colors`` holds its colors, and the step returns None.
    Otherwise the larger forest is the symmetric difference of the members
    with the path. It is re-validated before the next search is built on
    it: a size other than one more, a cycle, or a color over budget is an
    :class:`InternalSolverError`.
    """
    path = search.shortest_augmenting_path()
    if path is None:
        return None
    forest = search.forest
    members = search._member_set.symmetric_difference(path)
    if len(members) != forest.size + 1:
        raise InternalSolverError("augmentation produced an invalid forest")
    try:
        bigger = Forest(forest.host, tuple(sorted(members)))
    except PreconditionError as exc:
        raise InternalSolverError(f"augmentation broke acyclicity: {exc}") from exc
    try:
        return ExchangeGraph(search.caps, bigger)
    except PreconditionError as exc:
        raise InternalSolverError("augmentation produced an invalid forest") from exc


def _greedy_forest(g: ColoredGraph, caps: CapacityMap) -> Forest:
    """Kruskal-style capacity-respecting forest, scanning edges by index.

    An edge is kept when its color has spare budget and it joins two
    components. This is exactly the forest that repeated augmentation from
    the empty forest reaches through its length-0 paths: each such step
    takes the smallest-index edge that is addable right now, and an edge
    the scan rejects stays unaddable, because components only merge and
    color counts only grow.
    """
    dsu = DisjointSet(g.n)
    left: dict[str, int] = {}
    kept = []
    for i, (u, v, color) in enumerate(g.edges):
        if color not in left:
            left[color] = caps.cap(color)
        # budget first: an edge rejected for its color must not be unioned
        if left[color] and dsu.union(u, v):
            left[color] -= 1
            kept.append(i)
    return Forest(g, tuple(kept))


def _final_search(g: ColoredGraph, caps: CapacityMap) -> ExchangeGraph:
    """The search that finds no augmenting path, run on a maximum forest.

    Starts from the greedy forest of :func:`_greedy_forest` and augments to
    a fixpoint; the returned search holds that forest and its reached colors
    ``R``. Short of a spanning tree, one count proves the forest maximum:
    no forest has fewer than ``omega(G - E_R) - f(R)`` components, so that
    must equal ``n - |F|``, else an :class:`InternalSolverError` is raised.
    """
    search = ExchangeGraph(caps, _greedy_forest(g, caps))
    while (bigger := augment_step(search)) is not None:
        search = bigger
    short = g.n - search.forest.size
    if short > 1:
        reached = search.reached_colors
        remaining, spent = component_count(g, reached), caps.total(reached)
        if remaining - spent != short:
            raise InternalSolverError(
                f"the forest is not maximum: {remaining} components without the "
                f"reached colors, minus their budget {spent}, is not n - |F| = {short}"
            )
    return search


def maximize_forest(g: ColoredGraph, caps: CapacityMap) -> Forest:
    """Largest capacity-respecting forest of ``g``.

    Starts from the greedy forest of :func:`_greedy_forest` and augments to
    a fixpoint. The result has the maximum edge count (equivalently, the
    minimum component count) over all capacity-respecting forests. It is
    the very forest that augmenting from the empty forest reaches, because
    the greedy pass equals that run's leading length-0 augmentations. A
    forest it cannot prove maximum is an :class:`InternalSolverError`.
    """
    return _final_search(g, caps).forest


def prune_to_components(forest: Forest, components: int) -> Forest:
    """Drop highest-index edges until exactly ``components`` parts remain.

    Removing any forest edge splits one component in two and never raises a
    color count, so the pruned forest stays within every capacity; taking
    the highest indices first just fixes one deterministic choice.
    """
    check_component_target(forest.host.n, components)
    excess = components - forest.num_components
    if excess < 0:
        raise PreconditionError(
            "forest has more components than the target; cannot prune upward"
        )
    if excess == 0:
        return forest
    return Forest(forest.host, forest.members[: forest.size - excess])


def _verdict(search: ExchangeGraph, components: int) -> Forest | Certificate:
    """The answer at target ``components`` from the final search.

    The maximum forest pruned to ``components`` parts when it has enough
    edges, otherwise the certificate read off the search's reached colors.
    """
    forest = search.forest
    if forest.size >= forest.host.n - components:
        return prune_to_components(forest, components)
    from .certificates import extract_certificate

    return extract_certificate(search, components)


def solve(g: ColoredGraph, caps: CapacityMap, components: int) -> Forest | Certificate:
    """Spanning forest with exactly ``components`` parts within ``caps``.

    Returns such a :class:`Forest` when one exists, otherwise the
    :class:`~capforest.certificates.Certificate` that proves there is none.
    ``components`` must lie in ``1..n``. The violating color set is read
    off the final search, the one that finds no augmenting path.
    """
    check_component_target(g.n, components)
    return _verdict(_final_search(g, caps), components)


def solve_every_target(
    g: ColoredGraph, caps: CapacityMap
) -> Iterator[Forest | Certificate]:
    """``solve(g, caps, m)`` for m = 1..n, in order, from one maximisation.

    The maximum forest does not depend on the target, so the final search
    runs once, before the first verdict; each verdict is then pruned or
    certified from it exactly as :func:`solve` does.
    """
    search = _final_search(g, caps)
    for components in range(1, g.n + 1):
        yield _verdict(search, components)
