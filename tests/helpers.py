"""Independent references used to cross-check the solver.

Everything here recomputes from first principles (breadth-first component
counts, exhaustive subset enumeration, a union-find of its own) and
deliberately avoids the package's union-find and augmentation code paths;
from ``capforest`` it may import only ``capforest.graph``. The reference
search restates the solver's augmenting-path search over the explicit
exchange graph, so that the solver's tests pin which paths it takes, not
how it finds them. :func:`load_tool` loads a script from ``tools/``, so
that the tests read the named cases of ``tools/cases.py``, such as
``chords(n)`` and ``deg20(n)``, where the tools do.
"""

import importlib
import sys
from collections import Counter, deque
from itertools import combinations
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def load_tool(name):
    """The script ``tools/<name>.py`` as a module. ``tools`` is no package;
    it goes on the import path, where the scripts find each other."""
    if str(TOOLS) not in sys.path:
        sys.path.append(str(TOOLS))
    return importlib.import_module(name)


def bfs_component_count(n, edges):
    """Component count via breadth-first search over an explicit edge list."""
    adj = {v: [] for v in range(n)}
    for u, v, *_ in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = set()
    parts = 0
    for start in range(n):
        if start in seen:
            continue
        parts += 1
        seen.add(start)
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return parts


def components_without_colors(g, colors):
    banned = set(colors)
    kept = [e for e in g.edges if e.color not in banned]
    return bfs_component_count(g.n, kept)


def is_acyclic(n, edges):
    # a simple graph is a forest iff |E| = n - (number of components)
    return len(edges) == n - bfs_component_count(n, edges)


def within_capacities(edges, caps):
    counts = {}
    for e in edges:
        counts[e.color] = counts.get(e.color, 0) + 1
    return all(count <= caps.cap(color) for color, count in counts.items())


def brute_force_max_forest_size(g, caps):
    """Size of the largest capacity-respecting forest, by subset enumeration."""
    indices = range(len(g.edges))
    for size in range(min(g.n - 1, len(g.edges)), -1, -1):
        for subset in combinations(indices, size):
            chosen = [g.edges[i] for i in subset]
            if within_capacities(chosen, caps) and is_acyclic(g.n, chosen):
                return size
    return 0


def all_color_subsets(palette):
    colors = sorted(palette)
    for size in range(len(colors) + 1):
        yield from combinations(colors, size)


def brute_force_condition_holds(g, caps, components):
    """Exhaustive check of the component/budget inequality over all subsets."""
    for subset in all_color_subsets(g.palette):
        remaining = components_without_colors(g, subset)
        if remaining > components + sum(caps.cap(c) for c in subset):
            return False
    return True


def min_max_bound(g, caps):
    """min over color sets R of (n - components(G without R) + budget of R)."""
    return min(
        g.n
        - components_without_colors(g, subset)
        + sum(caps.cap(c) for c in subset)
        for subset in all_color_subsets(g.palette)
    )


def rainbow_tree_condition(g):
    """All-distinct-colors spanning-tree criterion for connected graphs:
    removing any color set R must leave at most |R| + 1 components."""
    return all(
        components_without_colors(g, subset) <= len(subset) + 1
        for subset in all_color_subsets(g.palette)
    )


def set_partitions(items):
    """All partitions of a list into nonempty blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def rainbow_tree_partition_condition(g):
    """Equivalent partition form of the criterion: every split of the
    vertices into t blocks must be crossed by edges of >= t - 1 distinct
    colors."""
    for part in set_partitions(list(range(g.n))):
        block_of = {v: i for i, block in enumerate(part) for v in block}
        crossing_colors = {
            e.color for e in g.edges if block_of[e.u] != block_of[e.v]
        }
        if len(crossing_colors) < len(part) - 1:
            return False
    return True


def component_labels(n, edges):
    """One union-find root per vertex, over the ``(u, v, ...)`` ``edges``."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v, *_ in edges:
        parent[find(u)] = find(v)
    return [find(v) for v in range(n)]


def greedy_forest(g, caps):
    """Edges in index order, each kept while its color has budget and it
    joins two components of the edges kept so far."""
    kept, used = [], Counter()
    for i, e in enumerate(g.edges):
        labels = component_labels(g.n, [g.edges[j] for j in kept])
        if used[e.color] < caps.cap(e.color) and labels[e.u] != labels[e.v]:
            used[e.color] += 1
            kept.append(i)
    return kept


def reference_search(g, caps, members):
    """The solver's augmenting-path search from the forest ``members``.

    Returns ``(path, None)``, or ``(None, reached colors)`` when there is
    no path. Nodes are edge indices. Sources are the smallest-index
    outside edge of each color among those joining two forest components;
    sinks are outside edges whose color has spare budget. An outside edge
    has arcs to the forest edges of its color, and a forest edge to the
    outside edges that it alone connects within a component (they fall
    apart without it). The search is breadth-first: a node's parent is
    the smallest-index node of the layer before with an arc to it, and the
    path ends at the smallest-index sink of the first layer that holds one.
    """
    edges = g.edges
    forest = set(members)
    whole = component_labels(g.n, [edges[i] for i in forest])
    used = Counter(edges[i].color for i in forest)
    outside = [i for i in range(len(edges)) if i not in forest]

    def arcs(x):
        if x not in forest:
            return [i for i in forest if edges[i].color == edges[x].color]
        cut = component_labels(g.n, [edges[i] for i in forest - {x}])
        return [
            i
            for i in outside
            if whole[edges[i].u] == whole[edges[i].v] and cut[edges[i].u] != cut[edges[i].v]
        ]

    first = {}
    for i in outside:
        if whole[edges[i].u] != whole[edges[i].v]:
            first.setdefault(edges[i].color, i)
    parent = dict.fromkeys(first.values())
    layer = sorted(parent)
    while layer:
        sinks = [
            x
            for x in layer
            if x not in forest and used[edges[x].color] < caps.cap(edges[x].color)
        ]
        if sinks:
            path = [sinks[0]]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1], None
        nxt = []
        for x in layer:
            for y in arcs(x):
                if y not in parent:
                    parent[y] = x
                    nxt.append(y)
        layer = sorted(nxt)
    return None, {edges[x].color for x in parent if x not in forest}


def reference_paths(g, caps):
    """Augmenting paths from the greedy forest to a maximum one.

    Returns the paths in order, the maximum forest's sorted members and
    the colors that the last search, the one that found no path, reached.
    """
    members = greedy_forest(g, caps)
    paths = []
    while True:
        path, reached = reference_search(g, caps, members)
        if path is None:
            return paths, members, reached
        paths.append(path)
        members = sorted(set(members).symmetric_difference(path))
