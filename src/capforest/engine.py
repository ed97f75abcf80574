"""Maximum capacity-respecting forests and the exactly-m-components solver.

The maximiser starts from a greedy forest: edges in index order, each kept
when it joins two components and its color has spare budget. It then grows
the forest one edge at a time. Each step, :meth:`ExchangeGraph.augment`,
searches an exchange structure over edge indices: swapping a forest edge
for an outside edge is safe when it either preserves acyclicity (the
forest edge lies on the unique forest path between the outside edge's
endpoints) or preserves the per-color budgets (both edges carry the same
fully-used color). One walk per step roots and labels every forest
component; forest paths are the climbs from both endpoints to their
lowest common ancestor. A shortest chain of such swaps starting at an edge
that joins two forest components and ending at an edge whose color still
has spare budget makes the forest one edge larger; when no chain exists
the forest has maximum size among all capacity-respecting forests, which
the exhaustive oracles in :mod:`capforest.certificates` cross-check at
test scale, and the edges that last search reached yield the violating
color set.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .errors import InternalSolverError, PreconditionError
from .graph import CapacityMap, ColoredGraph, DisjointSet, Forest, Record

if TYPE_CHECKING:
    from .certificates import Certificate


class Found(Record):
    """A qualifying forest exists; here is one."""

    __slots__ = __match_args__ = ("forest",)
    forest: Forest

    def __init__(self, forest: Forest):
        object.__setattr__(self, "forest", forest)


class Impossible(Record):
    """No qualifying forest exists; the certificate proves it."""

    __slots__ = __match_args__ = ("certificate",)
    certificate: Certificate

    def __init__(self, certificate: Certificate):
        object.__setattr__(self, "certificate", certificate)


SolveVerdict = Found | Impossible


class ExchangeGraph:
    """Search structure for one augmentation step.

    Nodes are edge indices of the host graph. ``sources`` are outside edges
    joining two forest components; sinks are outside edges whose color
    still has spare budget (an edge that is both is a zero-length
    augmenting path). Arcs run from a member edge to every outside edge
    whose forest path contains it, and from an outside edge with a
    fully-used color to the member edges of that color.

    The forest must live on ``g`` and respect ``caps``; otherwise the
    constructor raises :class:`PreconditionError`. The forest and the
    budgets are kept as ``forest`` and ``caps``. A search that finds no
    path leaves the nodes it reached in ``reached``; the colors of the
    reached outside edges form a violating color set
    (:func:`capforest.certificates.extract_certificate`).
    """

    def __init__(self, g: ColoredGraph, caps: CapacityMap, forest: Forest):
        forest.require_host(g)
        edges = g.edges
        members_by_color: dict[str, list[int]] = {}
        for i in forest.members:
            members_by_color.setdefault(edges[i].color, []).append(i)
        for color, members in members_by_color.items():
            if len(members) > caps.cap(color):
                raise PreconditionError(
                    f"forest already exceeds the capacity of color {color!r}"
                )

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
        arcs: dict[int, list[int]] = {i: [] for i in forest.members}
        spare: dict[str, bool] = {}
        self.sources: list[int] = []
        for i, (a, b, color) in enumerate(edges):
            if i in member_set:
                continue
            if color not in spare:
                spare[color] = len(members_by_color.get(color, ())) < caps.cap(color)
            if label[a] != label[b]:
                self.sources.append(i)
                continue
            while a != b:
                if depth[a] < depth[b]:
                    a, b = b, a
                arcs[parent_edge[a]].append(i)
                a = parent[a]

        self.forest = forest
        self.reached: frozenset[int] | None = None
        self.caps = caps
        self._edges = edges
        self._member_set = member_set
        self._members_by_color = members_by_color
        self._arcs_from_member = arcs
        self._spare = spare

    def _neighbors(self, node: int) -> list[int]:
        if node in self._member_set:
            return self._arcs_from_member[node]
        # only outside edges of a full color get here: the search returns
        # at the first layer that holds a sink, before expanding it
        return self._members_by_color.get(self._edges[node].color, [])

    def shortest_augmenting_path(self) -> list[int] | None:
        """Shortest source-to-sink path, or None when the forest is maximum.

        Breadth-first, scanning each layer in increasing edge-index order,
        so ties always resolve the same way. When no path exists, the nodes
        reached from the sources are kept in ``reached``.
        """
        edges, members, spare = self._edges, self._member_set, self._spare
        parent: dict[int, int | None] = {s: None for s in self.sources}
        # the edge pass appended the sources in increasing index order
        layer = self.sources
        while layer:
            for node in layer:
                if node not in members and spare[edges[node].color]:
                    path = []
                    cur: int | None = node
                    while cur is not None:
                        path.append(cur)
                        cur = parent[cur]
                    return path[::-1]
            nxt = []
            for node in layer:
                for nb in self._neighbors(node):
                    if nb not in parent:
                        parent[nb] = node
                        nxt.append(nb)
            layer = sorted(nxt)
        self.reached = frozenset(parent)
        return None

    def augment(self) -> Forest | None:
        """The forest one edge larger, or None when this one is maximum.

        The larger forest is the symmetric difference of the members with
        a shortest augmenting path. It is re-validated before it is handed
        back: a cycle, a size other than one more, or a color over budget
        is an :class:`InternalSolverError`.
        """
        path = self.shortest_augmenting_path()
        if path is None:
            return None
        forest = self.forest
        new_members = self._member_set.symmetric_difference(path)
        try:
            bigger = Forest(forest.host, tuple(sorted(new_members)))
        except PreconditionError as exc:
            raise InternalSolverError(f"augmentation broke acyclicity: {exc}") from exc
        counts = bigger.color_counts()
        if bigger.size != forest.size + 1 or any(
            count > self.caps.cap(color) for color, count in counts.items()
        ):
            raise InternalSolverError("augmentation produced an invalid forest")
        return bigger


def augment_step(
    g: ColoredGraph, caps: CapacityMap, forest: Forest
) -> Forest | None:
    """One augmentation: a forest one edge larger, or None at maximum size.

    The input forest must live on ``g`` and respect ``caps``; the step is
    :meth:`ExchangeGraph.augment`.
    """
    return ExchangeGraph(g, caps, forest).augment()


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
    a fixpoint; the returned search holds that forest and what it reached.
    """
    search = ExchangeGraph(g, caps, _greedy_forest(g, caps))
    while (bigger := search.augment()) is not None:
        search = ExchangeGraph(g, caps, bigger)
    return search


def maximize_forest(g: ColoredGraph, caps: CapacityMap) -> Forest:
    """Largest capacity-respecting forest of ``g``.

    Starts from the greedy forest of :func:`_greedy_forest` and augments to
    a fixpoint. The result has the maximum edge count (equivalently, the
    minimum component count) over all capacity-respecting forests. It is
    the very forest that augmenting from the empty forest reaches, because
    the greedy pass equals that run's leading length-0 augmentations.
    """
    return _final_search(g, caps).forest


def prune_to_components(forest: Forest, components: int) -> Forest:
    """Drop highest-index edges until exactly ``components`` parts remain.

    Removing any forest edge splits one component in two and never raises a
    color count, so the pruned forest stays within every capacity; taking
    the highest indices first just fixes one deterministic choice.
    """
    n = forest.host.n
    if not 1 <= components <= n:
        raise PreconditionError(
            f"component target must be in 1..{n}, got {components}"
        )
    excess = components - forest.num_components
    if excess < 0:
        raise PreconditionError(
            "forest has more components than the target; cannot prune upward"
        )
    if excess == 0:
        return forest
    return Forest(forest.host, forest.members[: forest.size - excess])


def solve(g: ColoredGraph, caps: CapacityMap, components: int) -> SolveVerdict:
    """Spanning forest with exactly ``components`` parts within ``caps``.

    Returns :class:`Found` with such a forest when one exists, otherwise
    :class:`Impossible` with a violating color set that proves there is
    none. ``components`` must lie in ``1..n``. The violating color set is
    read off the final search, the one that finds no augmenting path.
    """
    if not 1 <= components <= g.n:
        raise PreconditionError(
            f"component count must be in 1..{g.n}, got {components}"
        )
    search = _final_search(g, caps)
    if search.forest.size >= g.n - components:
        return Found(prune_to_components(search.forest, components))
    from .certificates import extract_certificate

    return Impossible(extract_certificate(search, components))
