"""The named instances that the tools and the tests share, each defined once.

    import cases                   # from a script in tools/
    case = cases.case("deg20-8000")

A :class:`Case` is an instance and its budget sidecar. Its ``source`` is
either the ``capforest gen`` arguments that print the instance, or the
instance text itself, for shapes that ``gen`` cannot draw. This module
imports nothing from ``capforest``, so one case can be handed to two trees:
``tools/parity.py`` runs ``gen`` in the old tree and both trees solve its
output. The table holds builders, not instances, so that importing it
builds none of the large texts; :func:`case` builds one.
``tests/test_cases.py`` pins the sha256 of every case's instance text.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from typing import NamedTuple


class Case(NamedTuple):
    source: tuple[str, ...] | str  # `capforest gen` arguments, or the instance text
    caps: str  # the budget sidecar


RAINBOW = "fdefault 1\n"
SMALL = "f c0 1\nf c1 2\nf c2 3\n"


def gnp(n: int, p: float, colors: int, seed: int, *extra: str) -> tuple[str, ...]:
    """``capforest gen`` arguments for the seeded G(n, p) on ``colors`` colors."""
    return ("--model", "gnp", "--n", str(n), "--p", str(p), "--colors", str(colors),
            "--seed", str(seed), *extra)


def chords(n: int) -> str:
    """A path of color p, chords (i, i + n/2) of color q with budget 0, and
    one more p edge to vertex n: m = 1 is impossible, and the forest paths
    of the chords sum to about n^2 / 4."""
    lines = [f"graph {n + 1}"]
    lines += [f"e {i} {i + 1} p" for i in range(n - 1)]
    lines += [f"e {i} {i + n // 2} q" for i in range(n // 2)]
    lines.append(f"e 0 {n} p")
    return "\n".join(lines) + "\n"


def deg20(n: int, seed: int = 0) -> str:
    """A rainbow instance of average degree 20 at any n (``gen`` stops at
    2000 vertices): 10n distinct pairs u < v, each drawn as two
    ``randrange(n)`` and then colored ``c{randrange(n)}``, with loops and
    repeated pairs skipped."""
    rng = random.Random(seed)
    seen: set[tuple[int, int]] = set()
    lines = [f"graph {n}"]
    while len(seen) < 10 * n:
        u, v = rng.randrange(n), rng.randrange(n)
        pair = (min(u, v), max(u, v))
        if u == v or pair in seen:
            continue
        seen.add(pair)
        lines.append(f"e {pair[0]} {pair[1]} c{rng.randrange(n)}")
    return "\n".join(lines) + "\n"


def star(colors: int) -> str:
    """A star of ``colors`` edges colored c0, c1, ... and one isolated vertex."""
    lines = [f"graph {colors + 2}"]
    lines += [f"e 0 {j + 1} c{j}" for j in range(colors)]
    return "\n".join(lines) + "\n"


def fewcolor_caps(colors: int) -> str:
    """Budgets 1-3 on c0..c{colors - 1}, the impossible-fewcolor bench shape."""
    return RAINBOW + "".join(f"f c{j} {1 + j % 3}\n" for j in range(colors))


CASES: dict[str, Callable[[], Case]] = {
    # the bench's rainbow-found shapes
    "rainbow-100": lambda: Case(gnp(100, 0.3, 100, 0), RAINBOW),
    "prune-100": lambda: Case(gnp(100, 0.3, 100, 1), RAINBOW),
    "rainbow-140": lambda: Case(gnp(140, 0.3, 140, 1), RAINBOW),
    "factorized-60": lambda: Case(("--model", "complete-factorized", "--n", "60"), RAINBOW),
    "k-bounded-100": lambda: Case(gnp(100, 0.1, 25, 4, "--k", "40"), "fdefault 4\n"),
    "palette-40": lambda: Case(gnp(100, 0.3, 40, 6), RAINBOW),
    # sparse rainbow G(120, 0.05) on 130 colors
    "sparse-rainbow-120-seed2": lambda: Case(gnp(120, 0.05, 130, 2), RAINBOW),
    "sparse-rainbow-120-seed3": lambda: Case(gnp(120, 0.05, 130, 3), RAINBOW),
    # G(400, 0.3), about 24k edges, on 4-8 colors with budgets 1-3: the
    # impossible-fewcolor bench shape
    "fewcolor-4-seed9": lambda: Case(gnp(400, 0.3, 4, 9), fewcolor_caps(4)),
    "fewcolor-6-seed11": lambda: Case(gnp(400, 0.3, 6, 11), fewcolor_caps(6)),
    "fewcolor-8-seed5": lambda: Case(gnp(400, 0.3, 8, 5), fewcolor_caps(8)),
    "fewcolor-8-seed13": lambda: Case(gnp(400, 0.3, 8, 13), fewcolor_caps(8)),
    # two colors, one of them with budget 1
    "impossible-300": lambda: Case(gnp(300, 0.03, 2, 2), "f c0 1000\nf c1 1\n"),
    # k-bounded G(400, 0.05): 3945 edges on 60 colors of at most 80 edges
    "many-layer-400": lambda: Case(gnp(400, 0.05, 60, 3, "--k", "80"), "fdefault 5\n"),
    # large rainbows: 7129, 12,008 and 19,840 edges
    "rainbow-600": lambda: Case(gnp(600, 0.04, 600, 3), RAINBOW),
    "rainbow-1200": lambda: Case(gnp(1200, 0.0167, 1200, 3), RAINBOW),
    "rainbow-2000": lambda: Case(gnp(2000, 0.01, 2000, 3), RAINBOW),
    # 10n edges; 90, 165 and 359 searches at m = 1
    "deg20-2000": lambda: Case(deg20(2000), RAINBOW),
    "deg20-4000": lambda: Case(deg20(4000), RAINBOW),
    "deg20-8000": lambda: Case(deg20(8000), RAINBOW),
    # the quadratic cliff of forest-path climbs
    "chords-1000": lambda: Case(chords(1000), "f p 999\nf q 0\n"),
    "chords-2000": lambda: Case(chords(2000), "f p 1999\nf q 0\n"),
    "chords-4000": lambda: Case(chords(4000), "f p 3999\nf q 0\n"),
    "chords-8000": lambda: Case(chords(8000), "f p 7999\nf q 0\n"),
    # G(7, 0.5) on 3 colors, small enough for the oracles
    "small-0": lambda: Case(gnp(7, 0.5, 3, 0), SMALL),
    "small-1": lambda: Case(gnp(7, 0.5, 3, 1), SMALL),
    "small-2": lambda: Case(gnp(7, 0.5, 3, 2), SMALL),
    "small-3": lambda: Case(gnp(7, 0.5, 3, 3), SMALL),
    "small-4": lambda: Case(gnp(7, 0.5, 3, 4), SMALL),
    # the oracles' palette limit: the empty color set violates m = 1, none m = 2
    "star-16": lambda: Case(star(16), RAINBOW),
}


def case(name: str) -> Case:
    """The case called ``name``, built on this call."""
    return CASES[name]()
