"""Edge-colored graphs, per-color capacity maps, and spanning forests.

Vertices are dense integer ids ``0..n-1``; input labels should be mapped to
ids before construction. Colors are arbitrary strings compared and sorted
lexicographically, and that order drives every deterministic iteration in
the package. The three core types are immutable records (:class:`Record`)
and can be shared freely between threads; union-find scratch state is
created per call.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping
from typing import NamedTuple

from .errors import (
    EmptyGraphError,
    GraphConstructionError,
    InternalSolverError,
    MissingCapacityError,
    PreconditionError,
)


class Record:
    """Immutable value type over ``__slots__`` whose fields are validated.

    A subclass names its fields in ``__slots__`` (and ``__match_args__``),
    sets them with ``object.__setattr__`` in its ``__init__``, and validates
    them in ``__post_init__`` where it has to. Records compare equal by type
    and fields (never to a plain tuple), hash by fields, print as
    ``Type(field=value, ...)``, pickle by re-construction, and refuse
    assignment and deletion with ``AttributeError``. Plain data that needs
    no validation is a ``typing.NamedTuple`` instead.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class Edge(NamedTuple):
    u: int
    v: int
    color: str


class DisjointSet:
    """Union-find over ``0..n-1`` with path compression and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; False when already joined."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        self.components -= 1
        return True


class ColoredGraph(Record):
    """Simple undirected graph with one color label per edge.

    ``palette`` is the union of the colors occurring on edges and any
    explicitly declared extras, so it may be larger than the set of colors
    actually present. Declared colors are turned into strings, as edge
    colors are. Edge order is preserved exactly as given; it anchors
    deterministic solver output.
    """

    __slots__ = __match_args__ = ("n", "edges", "palette")
    n: int
    edges: tuple[Edge, ...]
    palette: frozenset[str]

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int, str]] = (),
        palette: Iterable[str] = frozenset(),
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "palette", palette)
        self.__post_init__()

    def __post_init__(self):
        n = self.n
        # exact type test: rejects floats and bools, as for vertex ids below
        if type(n) is not int:
            raise GraphConstructionError(f"vertex count must be an integer, got {n!r}")
        if n < 0:
            raise GraphConstructionError("vertex count must be non-negative")
        palette = self.palette
        # else one color per character, or per byte value ("120" for b"x")
        if isinstance(palette, (str, bytes, bytearray, memoryview)):
            kind = "a string" if isinstance(palette, str) else "bytes"
            raise GraphConstructionError(f"palette must not be {kind}: {palette!r}")
        try:
            declared = frozenset(map(str, palette))
        except TypeError as exc:
            raise GraphConstructionError(
                f"palette must be an iterable of colors: {exc}"
            ) from exc
        try:
            edges = tuple(Edge(u, v, str(c)) for u, v, c in self.edges)
        except (TypeError, ValueError) as exc:
            raise GraphConstructionError(
                f"edges must be (u, v, color) triples: {exc}"
            ) from exc
        seen: set[int] = set()  # pair {u, v} keyed as min * n + max
        for u, v, _color in edges:
            # one exact type test per id: rejects floats and bools alike
            if type(u) is not int or type(v) is not int:
                raise GraphConstructionError(
                    f"vertex ids must be integers, got ({u!r},{v!r})"
                )
            if not (0 <= u < n and 0 <= v < n):
                raise GraphConstructionError(
                    f"edge ({u},{v}) out of range for n={n}"
                )
            if u == v:
                raise GraphConstructionError(f"loop at vertex {u}")
            pair = u * n + v if u < v else v * n + u
            if pair in seen:
                raise GraphConstructionError(f"duplicate edge {{{u},{v}}}")
            seen.add(pair)
        _store_graph(self, n, edges, declared)

    def sorted_palette(self) -> list[str]:
        return sorted(self.palette)


def _store_graph(
    g: ColoredGraph, n: int, edges: tuple[Edge, ...], declared: frozenset[str]
) -> ColoredGraph:
    """Set the fields of ``g`` from input that has passed every check.

    ``edges`` must be ``Edge`` triples with ``str`` colors, in range, loop-
    and duplicate-free on ``n`` vertices; the palette is ``declared`` plus
    the edge colors. ``ColoredGraph`` calls this after validating, and the
    instance parser, which checks each edge as it reads it, calls it on a
    bare ``ColoredGraph.__new__`` instead of validating twice.
    """
    object.__setattr__(g, "n", n)
    object.__setattr__(g, "edges", edges)
    object.__setattr__(g, "palette", declared | {e.color for e in edges})
    return g


class CapacityMap(Record):
    """Total mapping from colors to non-negative integer edge budgets.

    A color resolves to its explicit entry, falling back to ``default``;
    querying a color with neither is a :class:`MissingCapacityError`.
    """

    __slots__ = __match_args__ = ("assignments", "default")
    assignments: dict[str, int]
    default: int | None

    def __init__(
        self,
        assignments: Mapping[str, int] = {},  # copied, never mutated
        default: int | None = None,
    ):
        object.__setattr__(self, "assignments", assignments)
        object.__setattr__(self, "default", default)
        self.__post_init__()

    def __post_init__(self):
        assignments = {}
        for color, cap in dict(self.assignments).items():
            if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
                raise PreconditionError(
                    f"capacity for color {color!r} must be a non-negative integer"
                )
            assignments[str(color)] = cap
        if self.default is not None and (
            not isinstance(self.default, int)
            or isinstance(self.default, bool)
            or self.default < 0
        ):
            raise PreconditionError("default capacity must be a non-negative integer")
        object.__setattr__(self, "assignments", assignments)

    @classmethod
    def uniform(cls, cap: int) -> CapacityMap:
        """Capacity ``cap`` for every color (``uniform(1)`` forbids repeats)."""
        return cls({}, default=cap)

    def cap(self, color: str) -> int:
        value = self.assignments.get(color, self.default)
        if value is None:
            raise MissingCapacityError(
                f"no capacity assigned to color {color!r} and no default set"
            )
        return value

    def total(self, colors: Iterable[str]) -> int:
        return sum(self.cap(c) for c in colors)


class Forest(Record):
    """Acyclic subset of a host graph's edges.

    ``members`` holds sorted indices into ``host.edges``. Spanning is
    implicit: every vertex of the host belongs to exactly one component,
    isolated ones included, so a forest of ``size`` edges has
    ``n - size`` components.
    """

    __slots__ = __match_args__ = ("host", "members")
    host: ColoredGraph
    members: tuple[int, ...]

    def __init__(self, host: ColoredGraph, members: Iterable[int] = ()):
        object.__setattr__(self, "host", host)
        object.__setattr__(self, "members", members)
        self.__post_init__()

    def __post_init__(self):
        raw = tuple(self.members)
        for i in raw:
            # one exact type test per index: rejects floats, bools and strings
            if type(i) is not int:
                raise PreconditionError(
                    f"forest members must be integer edge indices, got {i!r}"
                )
        members = tuple(sorted(set(raw)))
        if len(members) != len(raw):
            raise PreconditionError("duplicate edge indices in forest")
        dsu = DisjointSet(self.host.n)
        for i in members:
            if not 0 <= i < len(self.host.edges):
                raise PreconditionError(f"edge index {i} out of range")
            e = self.host.edges[i]
            if not dsu.union(e.u, e.v):
                raise PreconditionError(f"edge #{i} ({e.u},{e.v}) closes a cycle")
        object.__setattr__(self, "members", members)
        # edge count + component count must tile the vertex set exactly
        roots = {dsu.find(v) for v in range(self.host.n)}
        if len(roots) != self.host.n - len(members):
            raise InternalSolverError(
                f"{len(members)} edges left {len(roots)} components "
                f"on {self.host.n} vertices"
            )

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def num_components(self) -> int:
        return self.host.n - len(self.members)

    def member_edges(self) -> list[tuple[int, Edge]]:
        return [(i, self.host.edges[i]) for i in self.members]

    def color_counts(self) -> dict[str, int]:
        return dict(Counter(self.host.edges[i].color for i in self.members))

    def require_host(self, g: ColoredGraph) -> None:
        if self.host is not g and self.host != g:
            raise PreconditionError("forest belongs to a different host graph")


def component_count(g: ColoredGraph) -> int:
    """Number of connected components, by union-find over the edge list."""
    if g.n == 0:
        raise EmptyGraphError("component count is undefined on zero vertices")
    dsu = DisjointSet(g.n)
    for e in g.edges:
        dsu.union(e.u, e.v)
    return dsu.components


def color_census(g: ColoredGraph) -> dict[str, int]:
    """Per-color edge counts, for the colors that actually occur."""
    return dict(Counter(e.color for e in g.edges))
