"""Seeded instance generators for tests, sweeps, and experiment corpora.

All randomness comes from ``random.Random(seed)``, CPython's Mersenne
Twister; no ambient randomness is consulted. The draw order is fixed
(edges first, then the coloring ``k`` selects), so an identical :class:`GenSpec`
always yields a bit-for-bit identical graph. Golden-file tests depend on this.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .errors import PreconditionError
from .graph import ColoredGraph, check_vertex_count

# Every model visits all n(n-1)/2 vertex pairs; 2000 vertices is about two
# million pairs, which ``complete`` holds in memory at once.
MAX_VERTICES = 2000
# A palette holds one name per color, and a k-bounded pool one per slot;
# past the most edges a graph can have, more only fills memory.
MAX_COLOR_SLOTS = MAX_VERTICES * (MAX_VERTICES - 1) // 2


class GenSpec(NamedTuple):
    """Deterministic recipe for one edge-colored graph.

    ``model`` picks the edge set: ``gnp`` keeps each pair with probability
    ``p``, ``complete`` keeps all pairs, and ``complete_factorized`` colors
    the complete graph on an even number of vertices by a round-robin
    schedule, one perfect matching per color (it ignores ``palette_size``
    and ``k``). The other models color edges from ``palette_size`` colors,
    and ``k`` picks how: without ``k`` the coloring is uniform, each edge's
    color drawn independently; with ``k`` it is k-bounded, a shuffled pool
    holding each color ``k`` times, so no color exceeds ``k`` edges.
    """

    seed: int
    n: int
    model: str = "gnp"
    p: float | None = None
    palette_size: int | None = None
    k: int | None = None


def _color_pool(spec: GenSpec, rng: random.Random, count: int):
    size, k = spec.palette_size, spec.k
    coloring = "uniform" if k is None else "k_bounded"
    if size is None or size < 1:
        raise PreconditionError(f"{coloring} coloring needs palette_size >= 1")
    slots = size if k is None or k < 1 else size * k
    if slots > MAX_COLOR_SLOTS:
        raise PreconditionError(
            f"{coloring} coloring needs at most {MAX_COLOR_SLOTS} color slots, got {slots}"
        )
    palette = frozenset(f"c{j}" for j in range(size))
    if k is None:
        return [f"c{rng.randrange(size)}" for _ in range(count)], palette
    if k < 0:
        raise PreconditionError("k_bounded coloring needs k >= 0")
    slots = [f"c{j}" for j in range(size) for _ in range(k)]
    if len(slots) < count:
        raise PreconditionError(
            f"cannot place {count} edges on {size} colors "
            f"with at most {k} edges each"
        )
    rng.shuffle(slots)
    return slots[:count], palette


def _factorized_complete(spec: GenSpec) -> ColoredGraph:
    n = spec.n
    if n % 2:
        raise PreconditionError(
            "the factorized model needs an even vertex count"
        )
    # circle method: vertex n-1 is pinned, the rest rotate; round r is the
    # matching {r, n-1} plus {(r+i) mod (n-1), (r-i) mod (n-1)}
    edges = []
    for r in range(max(n - 1, 0)):
        color = f"c{r}"
        edges.append((r, n - 1, color))
        for i in range(1, n // 2):
            a = (r + i) % (n - 1)
            b = (r - i) % (n - 1)
            edges.append((min(a, b), max(a, b), color))
    palette = frozenset(f"c{r}" for r in range(max(n - 1, 0)))
    return ColoredGraph(n, tuple(edges), palette=palette)


def generate(spec: GenSpec) -> ColoredGraph:
    """Build the graph described by ``spec``; same spec, same graph, always.

    The declared palette covers every color the recipe could have used,
    which may exceed the colors actually present. Specs with more than
    ``MAX_VERTICES`` vertices are refused before anything is allocated.
    """
    check_vertex_count(spec.n)
    if spec.n > MAX_VERTICES:
        raise PreconditionError(
            f"vertex count {spec.n} exceeds the generator limit of {MAX_VERTICES}"
        )
    if spec.model == "complete_factorized":
        return _factorized_complete(spec)
    rng = random.Random(spec.seed)
    if spec.model == "complete":
        pairs = [(u, v) for u in range(spec.n) for v in range(u + 1, spec.n)]
    elif spec.model == "gnp":
        if spec.p is None or not 0.0 <= spec.p <= 1.0:
            raise PreconditionError("gnp model needs an edge probability p in [0, 1]")
        pairs = [
            (u, v)
            for u in range(spec.n)
            for v in range(u + 1, spec.n)
            if rng.random() < spec.p
        ]
    else:
        raise PreconditionError(f"unknown model {spec.model!r}")
    colors, palette = _color_pool(spec, rng, len(pairs))
    edges = tuple((u, v, c) for (u, v), c in zip(pairs, colors))
    return ColoredGraph(spec.n, edges, palette=palette)
