"""Randomized law sweeps shared by the CLI and the acceptance tests.

Three laws are checked, each on its own stream of seeded instances:

* oracle agreement: at every target component count, the solver must
  reach the verdict that two exhaustive oracles give, each computed once
  per instance: the fewest components over color sets
  (``oracle_fewest_components``) and ``n`` minus the size of the largest
  forest (``oracle_forest_search``);
* density guarantee: whenever the density report says a forest is
  guaranteed, the solver must find one;
* bounded complete: complete graphs on n vertices whose colors each appear
  on at most n/2 edges always admit a spanning tree with all-distinct
  colors.

Each law returns a :class:`LawReport`; a failure carries the instance's
stream key (``"<seed>:<law>:<index>"``) so the case can be replayed.
:func:`run_all` runs the three laws one after another in this process.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple

from .bounds import complete_graph_threshold, density_sufficient
from .certificates import oracle_fewest_components, oracle_forest_search
from .engine import solve
from .errors import InternalSolverError, PreconditionError
from .generators import GenSpec, generate
from .graph import CapacityMap, ColoredGraph, Forest, color_census


class LawReport(NamedTuple):
    """One law's tally: instances passed and failed, and the first failure."""

    name: str
    passed: int = 0
    failed: int = 0
    first_failing_key: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _report(name: str, count: int, failing: list[str]) -> LawReport:
    """The report of a law run on ``count`` instances, failing ``failing``."""
    first = failing[0] if failing else None
    return LawReport(name, count - len(failing), len(failing), first)


def _instance_rng(seed: int, law: str, index: int) -> tuple[random.Random, str]:
    key = f"{seed}:{law}:{index}"
    return random.Random(key), key


def sample_solver_instance(
    rng: random.Random,
    *,
    max_n: int = 7,
    max_edges: int = 14,
    max_palette: int = 5,
) -> tuple[ColoredGraph, CapacityMap]:
    """Random small instance: graph plus capacities 0-3 over the colors drawn from."""
    n = rng.randint(1, max_n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    count = rng.randint(0, min(max_edges, len(pairs)))
    palette = [f"c{j}" for j in range(rng.randint(1, max_palette))]
    edges = [(u, v, palette[rng.randrange(len(palette))]) for u, v in sorted(pairs[:count])]
    g = ColoredGraph(n, tuple(edges))
    caps = CapacityMap({c: rng.randint(0, 3) for c in palette})
    return g, caps


def run_oracle_agreement(count: int, seed: int) -> LawReport:
    """Solver vs. both once-per-instance oracles, at every ``m`` in ``1..n``.

    A forest with ``m`` components exists exactly when the fewest
    components from the color-set oracle, and ``n`` minus the largest
    forest from the search, are each at most ``m``.
    """
    failing = []
    for index in range(count):
        rng, key = _instance_rng(seed, "agreement", index)
        g, caps = sample_solver_instance(rng)
        fewest = oracle_fewest_components(g, caps)
        smallest = g.n - oracle_forest_search(g, caps).size
        if not all(
            isinstance(solve(g, caps, m), Forest) == (fewest <= m) == (smallest <= m)
            for m in range(1, g.n + 1)
        ):
            failing.append(key)
    return _report("oracle-agreement", count, failing)


def density_guarantee_instance(
    rng: random.Random, index: int
) -> tuple[ColoredGraph, CapacityMap, int]:
    """Instance that provably passes the density check.

    Every fourth instance is a complete graph colored by perfect matchings
    with the minimal capacities the complete-graph threshold allows; the
    rest are complete graphs with uniform random colorings and capacities
    scaled up to the rational bound.
    """
    if index % 4 == 0:
        n = (4, 6, 8, 10)[(index // 4) % 4]
        g = generate(GenSpec(seed=rng.getrandbits(32), n=n, model="complete_factorized"))
        components = rng.randint(1, n - 1)
        threshold = complete_graph_threshold(n, components)
        census = color_census(g)
        caps = CapacityMap(
            {c: math.ceil(Fraction(census[c]) / threshold) for c in sorted(census)}
        )
        return g, caps, components
    n = rng.randint(3, 8)
    components = rng.randint(1, min(3, n - 1))
    g = generate(
        GenSpec(
            seed=rng.getrandbits(32),
            n=n,
            model="complete",
            palette_size=rng.randint(1, 4),
        )
    )
    census = color_census(g)
    edge_count = len(g.edges)
    caps = CapacityMap(
        {
            c: math.ceil(Fraction(census[c] * (n - components), edge_count))
            for c in sorted(census)
        }
    )
    return g, caps, components


def run_density_guarantee(count: int, seed: int) -> LawReport:
    failing = []
    for index in range(count):
        rng, key = _instance_rng(seed, "density", index)
        g, caps, components = density_guarantee_instance(rng, index)
        outcome = density_sufficient(g, caps, components)
        if not outcome.guaranteed:
            raise InternalSolverError(
                f"sweep instance {key} was built to pass the density check"
            )
        if not isinstance(solve(g, caps, components), Forest):
            failing.append(key)
    return _report("density-guarantee", count, failing)


def run_bounded_complete(count: int, seed: int) -> LawReport:
    failing = []
    for index in range(count):
        rng, key = _instance_rng(seed, "bounded", index)
        n = rng.randint(4, 9)
        k = n // 2
        palette_size = math.ceil(math.comb(n, 2) / k) + rng.randint(0, 3)
        g = generate(
            GenSpec(
                seed=rng.getrandbits(32),
                n=n,
                model="complete",
                palette_size=palette_size,
                k=k,
            )
        )
        if not isinstance(solve(g, CapacityMap.uniform(1), 1), Forest):
            failing.append(key)
    return _report("bounded-complete", count, failing)


def run_all(count: int, seed: int) -> list[LawReport]:
    """The reports of all three laws, in law order, on ``count`` instances each.

    ``count`` must be non-negative, which is checked before any law runs.
    The laws then run one after another in this process, and an exception
    raised by one ends the sweep there.
    """
    if count < 0:
        raise PreconditionError(f"instance count must be non-negative, got {count}")
    return [
        run_oracle_agreement(count, seed),
        run_density_guarantee(count, seed),
        run_bounded_complete(count, seed),
    ]
