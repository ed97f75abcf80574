"""Plain-text instance files and capacity sidecars.

Instance format, one directive per line; a token that begins with ``#``
starts a comment running to the end of the line, and blank lines are
ignored::

    graph <n>            vertex count, at most ``MAX_VERTICES``; required,
                         exactly once, before edges
    e <u> <v> <color>    one edge; u, v in 0..n-1, color any bare token
                         not beginning with ``#``
    f <color> <cap>      capacity for one color
    fdefault <cap>       capacity for colors without an explicit entry

Capacity sidecar files take only ``f``/``fdefault`` directives. When both
the instance and a sidecar assign the same color (or both set a default),
the sidecar wins; duplicate assignments within a single file are rejected.
"""

from __future__ import annotations

from itertools import repeat

from .errors import InstanceParseError, PreconditionError
from .graph import CapacityMap, ColoredGraph, Edge, Forest, Record, _store_graph

# The solver allocates several lists of size n per search even on an
# edgeless graph: solving one with 10**6 vertices peaks near 0.2 GB.
MAX_VERTICES = 10**6


class Instance(Record):
    """A parsed instance file: the graph plus its inline capacities."""

    __slots__ = __match_args__ = ("graph", "capacities", "default_capacity")
    graph: ColoredGraph
    capacities: dict[str, int]
    default_capacity: int | None

    def __init__(
        self,
        graph: ColoredGraph,
        capacities: dict[str, int],
        default_capacity: int | None,
    ):
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "capacities", capacities)
        object.__setattr__(self, "default_capacity", default_capacity)


def _int_field(token: str, what: str, where: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise InstanceParseError(f"{where}: {what} must be an integer, got {token!r}")
    return value


def _capacity_field(token: str, where: str) -> int:
    value = _int_field(token, "capacity", where)
    if value < 0:
        raise InstanceParseError(f"{where}: capacity must be non-negative")
    return value


def _capacity_directive(
    word: str, args: list[str], where: str, caps: dict[str, int], default: int | None
) -> int | None:
    """Apply one ``f`` or ``fdefault`` line to ``caps``; returns the default."""
    if word == "f":
        if len(args) != 2:
            raise InstanceParseError(f"{where}: expected 'f <color> <cap>'")
        color = args[0]
        if color in caps:
            raise InstanceParseError(
                f"{where}: duplicate capacity for color {color!r}"
            )
        caps[color] = _capacity_field(args[1], where)
        return default
    if len(args) != 1:
        raise InstanceParseError(f"{where}: expected 'fdefault <cap>'")
    if default is not None:
        raise InstanceParseError(f"{where}: duplicate 'fdefault'")
    return _capacity_field(args[0], where)


def _strip_comment(fields: list[str]) -> list[str]:
    """The tokens before the first one that begins with ``#``."""
    for k, token in enumerate(fields):
        if token.startswith("#"):
            return fields[:k]
    return fields


def _lines(text: str) -> list[str]:
    """The lines of ``text`` as ``open()`` reads them, so numbers match the file.

    ``str.splitlines`` would also break at a form feed or a separator such as
    ``\\x1c``, which ``str.split`` treats as whitespace inside a line instead.
    """
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_instance(text: str, source: str = "<instance>") -> Instance:
    """Parse instance text; errors carry ``source:line``."""
    n: int | None = None
    edges: list[tuple[int, int, str]] = []
    pairs: set[int] = set()  # pair {u, v} keyed as min * n + max
    caps: dict[str, int] = {}
    default: int | None = None

    for lineno, raw in enumerate(_lines(text), start=1):
        fields = raw.split()
        if "#" in raw:
            fields = _strip_comment(fields)
        if not fields:
            continue
        word = fields[0]
        if word == "e":
            # the bulk of every file: error messages are built only on failure
            if n is None:
                raise InstanceParseError(
                    f"{source}:{lineno}: edge before 'graph' header"
                )
            if len(fields) != 4:
                raise InstanceParseError(
                    f"{source}:{lineno}: expected 'e <u> <v> <color>'"
                )
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                where = f"{source}:{lineno}"
                u = _int_field(fields[1], "vertex id", where)
                v = _int_field(fields[2], "vertex id", where)
            if not (0 <= u < n and 0 <= v < n):
                raise InstanceParseError(
                    f"{source}:{lineno}: vertex out of range 0..{n - 1}"
                )
            if u == v:
                raise InstanceParseError(f"{source}:{lineno}: loop at vertex {u}")
            pair = u * n + v if u < v else v * n + u
            if pair in pairs:
                raise InstanceParseError(
                    f"{source}:{lineno}: duplicate edge {{{u},{v}}}"
                )
            pairs.add(pair)
            edges.append((u, v, fields[3]))
            continue
        where = f"{source}:{lineno}"
        args = fields[1:]
        if word == "graph":
            if n is not None:
                raise InstanceParseError(f"{where}: duplicate 'graph' header")
            if len(args) != 1:
                raise InstanceParseError(f"{where}: expected 'graph <n>'")
            n = _int_field(args[0], "vertex count", where)
            if n < 0:
                raise InstanceParseError(f"{where}: vertex count must be non-negative")
            if n > MAX_VERTICES:
                raise InstanceParseError(
                    f"{where}: vertex count {n} exceeds the limit of {MAX_VERTICES}"
                )
        elif word in ("f", "fdefault"):
            default = _capacity_directive(word, args, where, caps, default)
        else:
            raise InstanceParseError(f"{where}: unknown directive {word!r}")

    if n is None:
        raise InstanceParseError(f"{source}: missing 'graph <n>' header")
    # every edge passed the checks ColoredGraph would repeat; tuple.__new__
    # is what Edge._make calls, without its per-edge Python frame
    checked = tuple(map(tuple.__new__, repeat(Edge), edges))
    graph = _store_graph(ColoredGraph.__new__(ColoredGraph), n, checked, frozenset())
    return Instance(graph, caps, default)


def parse_capacity_file(
    text: str, source: str = "<capacities>"
) -> tuple[dict[str, int], int | None]:
    """Parse a capacity sidecar; returns (assignments, default)."""
    caps: dict[str, int] = {}
    default: int | None = None
    for lineno, raw in enumerate(_lines(text), start=1):
        fields = _strip_comment(raw.split())
        if not fields:
            continue
        where = f"{source}:{lineno}"
        word, args = fields[0], fields[1:]
        if word in ("f", "fdefault"):
            default = _capacity_directive(word, args, where, caps, default)
        else:
            raise InstanceParseError(
                f"{where}: unknown directive {word!r} in capacity file"
            )
    return caps, default


def resolve_capacities(
    instance: Instance, sidecar: tuple[dict[str, int], int | None] | None = None
) -> CapacityMap:
    """Merge inline and sidecar capacities; sidecar entries win per color."""
    caps = dict(instance.capacities)
    default = instance.default_capacity
    if sidecar is not None:
        side_caps, side_default = sidecar
        caps.update(side_caps)
        if side_default is not None:
            default = side_default
    return CapacityMap(caps, default=default)


def emit_instance(
    graph: ColoredGraph,
    capacities: dict[str, int] | None = None,
    default_capacity: int | None = None,
) -> str:
    """Render a graph (and optional capacities) back to instance text.

    Re-parsing the output reproduces the same vertex count, the same edge
    list in the same order, and the same capacities. A color that would not
    read back as one token (empty, containing whitespace, or starting a
    comment) is refused.
    """
    for color in {e.color for e in graph.edges}.union(capacities or ()):
        if color.split() != [color] or color.startswith("#"):
            raise PreconditionError(
                f"color {color!r} cannot be written as a bare token"
            )
    lines = [f"graph {graph.n}"]
    if default_capacity is not None:
        lines.append(f"fdefault {default_capacity}")
    for color in sorted(capacities or {}):
        lines.append(f"f {color} {capacities[color]}")
    for e in graph.edges:
        lines.append(f"e {e.u} {e.v} {e.color}")
    return "\n".join(lines) + "\n"


def _dot_quote(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def graph_to_dot(graph: ColoredGraph, forest: Forest | None = None) -> str:
    """Graph (and chosen forest, drawn bold) in DOT for external rendering."""
    member = frozenset(forest.members) if forest is not None else frozenset()
    lines = ["graph instance {"]
    for v in range(graph.n):
        lines.append(f"  {v};")
    for i, e in enumerate(graph.edges):
        attrs = f'label="{_dot_quote(e.color)}"'
        if i in member:
            attrs += ", penwidth=3"
        lines.append(f"  {e.u} -- {e.v} [{attrs}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
