"""Randomized law sweeps shared by the CLI and the acceptance tests.

Three laws are checked, each on its own stream of seeded instances:

* oracle agreement: the solver, the exhaustive subset oracle, and the
  backtracking forest search must reach the same verdict for every target
  component count;
* density guarantee: whenever the density report says a forest is
  guaranteed, the solver must find one;
* bounded complete: complete graphs on n vertices whose colors each appear
  on at most n/2 edges always admit a spanning tree with all-distinct
  colors.

Each law returns a :class:`LawReport`; a failure carries the instance's
stream key (``"<seed>:<law>:<index>"``) so the case can be replayed. Every
instance is independent, so :func:`run_all` splits the index range over the
usable CPUs; its reports are those of the laws run over the whole range.
"""

from __future__ import annotations

import math
import os
import pickle
import random
from fractions import Fraction
from typing import NamedTuple

from .bounds import complete_graph_threshold, density_sufficient
from .certificates import oracle_condition, oracle_forest_search
from .engine import Found, solve
from .errors import InternalSolverError, PreconditionError
from .generators import MAX_VERTICES, GenSpec, generate
from .graph import CapacityMap, ColoredGraph, color_census


class LawReport(NamedTuple):
    """One law's tally: instances passed and failed, and the first failure."""

    name: str
    passed: int = 0
    failed: int = 0
    first_failing_key: str | None = None

    @property
    def ok(self) -> bool:
        return self.failed == 0


def _report(name: str, checked: range, failing: list[str]) -> LawReport:
    """The report of a law run on the indices ``checked``, failing ``failing``."""
    first = failing[0] if failing else None
    return LawReport(name, len(checked) - len(failing), len(failing), first)


def _instance_rng(seed: int, law: str, index: int) -> tuple[random.Random, str]:
    key = f"{seed}:{law}:{index}"
    return random.Random(key), key


def sample_solver_instance(
    rng: random.Random,
    *,
    max_n: int = 7,
    max_edges: int = 14,
    max_palette: int = 5,
    max_cap: int = 3,
) -> tuple[ColoredGraph, CapacityMap]:
    """Random small instance: graph plus a random capacity map over its palette."""
    n = rng.randint(1, max_n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    count = rng.randint(0, min(max_edges, len(pairs)))
    palette = [f"c{j}" for j in range(rng.randint(1, max_palette))]
    edges = [(u, v, palette[rng.randrange(len(palette))]) for u, v in sorted(pairs[:count])]
    g = ColoredGraph(n, tuple(edges), palette=frozenset(palette))
    caps = CapacityMap({c: rng.randint(0, max_cap) for c in palette})
    return g, caps


def oracle_agreement_holds(g, caps, components) -> bool:
    """Solver vs. both exhaustive oracles, one target component count."""
    verdict = solve(g, caps, components)
    cert = oracle_condition(g, caps, components)
    forest = oracle_forest_search(g, caps, components)
    return isinstance(verdict, Found) == (cert is None) == (forest is not None)


# Each law function checks the instances ``start`` up to ``stop`` (exclusive);
# ``run_<law>(count, seed)`` checks the first ``count``.


def run_oracle_agreement(
    stop: int, seed: int, *, max_n: int = 7, start: int = 0
) -> LawReport:
    failing = []
    for index in range(start, stop):
        rng, key = _instance_rng(seed, "agreement", index)
        g, caps = sample_solver_instance(rng, max_n=max_n)
        if not all(oracle_agreement_holds(g, caps, m) for m in range(1, g.n + 1)):
            failing.append(key)
    return _report("oracle-agreement", range(start, stop), failing)


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
            c: math.ceil(Fraction(census.get(c, 0) * (n - components), edge_count))
            for c in g.sorted_palette()
        }
    )
    return g, caps, components


def run_density_guarantee(stop: int, seed: int, *, start: int = 0) -> LawReport:
    failing = []
    for index in range(start, stop):
        rng, key = _instance_rng(seed, "density", index)
        g, caps, components = density_guarantee_instance(rng, index)
        outcome = density_sufficient(g, caps, components)
        if not outcome.guaranteed:
            raise InternalSolverError(
                f"sweep instance {key} was built to pass the density check"
            )
        if not isinstance(solve(g, caps, components), Found):
            failing.append(key)
    return _report("density-guarantee", range(start, stop), failing)


def run_bounded_complete(stop: int, seed: int, *, start: int = 0) -> LawReport:
    failing = []
    for index in range(start, stop):
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
        if not isinstance(solve(g, CapacityMap.uniform(1), 1), Found):
            failing.append(key)
    return _report("bounded-complete", range(start, stop), failing)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_share(start: int, stop: int, seed: int, max_n: int):
    """All three laws on instances ``start..stop-1``, in law order.

    Returns the reports of the laws that finished and the exception of the
    one that raised, if any; the laws after it are not run, as in a
    sequential sweep.
    """
    laws = (
        lambda: run_oracle_agreement(stop, seed, max_n=max_n, start=start),
        lambda: run_density_guarantee(stop, seed, start=start),
        lambda: run_bounded_complete(stop, seed, start=start),
    )
    reports = []
    for law in laws:
        try:
            reports.append(law())
        except Exception as exc:  # re-raised by run_all, after every share ends
            return reports, exc
    return reports, None


def _fork_share(start: int, stop: int, seed: int, max_n: int, siblings):
    """Run one share in a forked child; return its pid and a pipe to its result.

    The child writes the pickled result of :func:`_run_share` and leaves
    with ``os._exit``, so it never returns into the caller's frames, runs
    no exit handler and flushes no inherited buffer.
    """
    read_fd, write_fd = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            for _, reader in siblings:
                reader.close()
            with open(write_fd, "wb") as out:
                out.write(pickle.dumps(_run_share(start, stop, seed, max_n)))
            status = 0
        finally:
            os._exit(status)
    os.close(write_fd)
    return pid, open(read_fd, "rb")


def _merge(results) -> list[LawReport]:
    """Combine the shares' results, as one sweep over their union reads.

    A sequential sweep raises the exception of the earliest law, and within
    that law of the earliest share. Otherwise each law's counts are summed,
    and its first failure is the one of the earliest share that has one.
    """
    raised = [
        (len(reports), share, exc)
        for share, (reports, exc) in enumerate(results)
        if exc is not None
    ]
    if raised:
        raise min(raised, key=lambda entry: entry[:2])[2]
    return [
        LawReport(
            parts[0].name,
            sum(part.passed for part in parts),
            sum(part.failed for part in parts),
            next((part.first_failing_key for part in parts if part.failed), None),
        )
        for parts in zip(*(reports for reports, _ in results))
    ]


def run_all(count: int, seed: int, *, max_n: int = 7) -> list[LawReport]:
    """The reports of all three laws, in law order, on ``count`` instances each.

    ``max_n`` must lie in ``1..MAX_VERTICES``: the sampler lists every
    vertex pair of each instance, as the generators do.

    The range ``0..count-1`` is cut into one contiguous share per usable CPU
    (at most ``count``). This process runs the first share, and a forked
    child runs each other one; the reports, and any exception raised, are
    those a sequential run gives. The process must have no other thread,
    as fork copies only the calling one. Every child is reaped before this
    returns or raises.
    """
    if count < 0:
        raise PreconditionError(f"instance count must be non-negative, got {count}")
    if not 1 <= max_n <= MAX_VERTICES:
        raise PreconditionError(
            f"max_n must be in 1..{MAX_VERTICES}, got {max_n}"
        )
    workers = max(1, min(_usable_cpus(), count)) if hasattr(os, "fork") else 1
    cuts = [count * share // workers for share in range(workers + 1)]
    shares = list(zip(cuts, cuts[1:]))
    children = []
    try:
        for start, stop in shares[1:]:
            children.append(_fork_share(start, stop, seed, max_n, children))
        results = [_run_share(*shares[0], seed, max_n)]
        for (_, reader), (start, stop) in zip(children, shares[1:]):
            payload = reader.read()
            if not payload:
                raise InternalSolverError(
                    f"sweep worker for instances {start}..{stop - 1} "
                    "ended without a result"
                )
            results.append(pickle.loads(payload))
    finally:
        # closed first, so that a child blocked writing to the pipe ends
        for _, reader in children:
            reader.close()
        for pid, _ in children:
            os.waitpid(pid, 0)
    return _merge(results)
