"""Edge-colored graphs, per-color capacity maps, and spanning forests.

Vertices are dense integer ids ``0..n-1``; input labels should be mapped to
ids before construction. Colors are arbitrary strings compared and sorted
lexicographically, and that order drives every deterministic iteration in
the package. The three core types are immutable records (:class:`Record`)
and can be shared freely between threads; union-find scratch state is
created per call, and :class:`DisjointSet` is the package's only union-find.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Container, Iterable, Mapping
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
    """Union-find over ``0..n-1`` by size, whose unions can be undone.

    There is no path compression, so :meth:`rewind` can restore the state
    before the latest union exactly; union by size alone keeps every
    :meth:`find` within ``log2(n)`` steps.
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n
        self.components = n
        self._absorbed: list[int] = []  # root each union hung below another

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            x = self.parent[x]
        return x

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
        self._absorbed.append(rb)
        return True

    def rewind(self) -> None:
        """Undo the latest union not yet undone (IndexError when none is left)."""
        rb = self._absorbed.pop()
        ra = self.parent[rb]
        self.parent[rb] = rb
        self.size[ra] -= self.size[rb]
        self.components += 1


def check_vertex_count(n: int, error: type = PreconditionError) -> None:
    """Refuse, as ``error``, a vertex count that is not a non-negative ``int``."""
    # exact type test: rejects floats and bools, as for vertex ids
    if type(n) is not int:
        raise error(f"vertex count must be an integer, got {n!r}")
    if n < 0:
        raise error("vertex count must be non-negative")


_NO_VERTICES = "component count is undefined on zero vertices"


def check_component_target(n: int, m: int, below_n: bool = False) -> None:
    """Refuse a target ``m`` that is not exactly an ``int`` in ``1..n`` (``1..n-1``
    when ``below_n``); on zero vertices every target is an :class:`EmptyGraphError`."""
    check_vertex_count(n)
    if n == 0:
        raise EmptyGraphError(_NO_VERTICES)
    top = n - 1 if below_n else n
    if type(m) is not int or not 1 <= m <= top:
        if top < 1:  # ``1..n-1`` on one vertex
            raise PreconditionError(f"no component count is allowed when n = {n}, got {m}")
        raise PreconditionError(f"component count must be in 1..{top}, got {m}")


def color_set(colors: Iterable[str]) -> frozenset[str]:
    """``colors`` as a frozenset of strings, else a :class:`PreconditionError`."""
    # else one color per character, or per byte value ("120" for b"x")
    if isinstance(colors, (str, bytes, bytearray, memoryview)):
        kind = "a string" if isinstance(colors, str) else "bytes"
        raise PreconditionError(f"color set must not be {kind}: {colors!r}")
    try:
        return frozenset(map(str, colors))
    except TypeError as exc:
        raise PreconditionError(f"color set must be an iterable of colors: {exc}") from exc


class ColoredGraph(Record):
    """Simple undirected graph with one color label per edge.

    Edge colors are turned into strings, and ``palette`` is the set of
    them. Edge order is preserved exactly as given; it anchors
    deterministic solver output.
    """

    __slots__ = __match_args__ = ("n", "edges")
    n: int
    edges: tuple[Edge, ...]

    def __init__(self, n: int, edges: Iterable[tuple[int, int, str]] = ()):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        self.__post_init__()

    def __post_init__(self):
        n = self.n
        check_vertex_count(n, GraphConstructionError)
        try:
            # tuple.__new__ runs no Python frame per edge, unlike Edge(...)
            edges = tuple(
                [tuple.__new__(Edge, (u, v, str(c))) for u, v, c in self.edges]
            )
        except (TypeError, ValueError) as exc:
            raise GraphConstructionError(
                f"edges must be (u, v, color) triples: {exc}"
            ) from exc
        seen: set[int] = set()  # pair {u, v} keyed as min * n + max
        for i, (u, v, _color) in enumerate(edges):
            # one exact type test per id: rejects floats and bools alike
            if type(u) is not int or type(v) is not int:
                raise GraphConstructionError(
                    f"vertex ids must be integers, got ({u!r},{v!r})", i
                )
            if not (0 <= u < n and 0 <= v < n):
                span = f" 0..{n - 1}" if n else ": the graph has no vertices"
                raise GraphConstructionError(f"vertex out of range{span}", i)
            if u == v:
                raise GraphConstructionError(f"loop at vertex {u}", i)
            pair = u * n + v if u < v else v * n + u
            if pair in seen:
                raise GraphConstructionError(f"duplicate edge {{{u},{v}}}", i)
            seen.add(pair)
        object.__setattr__(self, "edges", edges)

    @property
    def palette(self) -> frozenset[str]:
        """The colors on the edges, collected anew on each read."""
        return frozenset([e.color for e in self.edges])

    def sorted_palette(self) -> list[str]:
        return sorted(self.palette)


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
        def valid(cap) -> bool:
            return isinstance(cap, int) and not isinstance(cap, bool) and cap >= 0

        assignments: dict[str, int] = {}
        for color, cap in dict(self.assignments).items():
            if not valid(cap):
                raise PreconditionError(
                    f"capacity for color {color!r} must be a non-negative integer"
                )
            # keys such as "1" and 1 name the same color: refuse, as the parser does
            color = str(color)
            if color in assignments:
                raise PreconditionError(f"duplicate capacity for color {color!r}")
            assignments[color] = cap
        if self.default is not None and not valid(self.default):
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
        # sorted, so a missing capacity names the same color on every run
        return sum(self.cap(c) for c in sorted(colors))


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


def component_count(g: ColoredGraph, without: Container[str] = frozenset()) -> int:
    """Components left once the edges colored in ``without`` are deleted."""
    if g.n == 0:
        raise EmptyGraphError(_NO_VERTICES)
    dsu = DisjointSet(g.n)
    for u, v, color in g.edges:
        if color not in without:
            dsu.union(u, v)
    return dsu.components


def color_census(g: ColoredGraph) -> dict[str, int]:
    """Per-color edge counts, for the colors that actually occur."""
    return dict(Counter(e.color for e in g.edges))
