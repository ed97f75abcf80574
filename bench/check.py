"""Independent checks of capforest CLI output, stdlib only.

Nothing here imports capforest: instance files are re-read with a parser
of its own and every verdict is re-derived by union-find, in the same way
the package's exhaustive oracles stay independent of the solver. A check
returns ``None`` when the output is correct and a one-line reason when it
is not.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass


class DisjointSet:
    def __init__(self, n: int):
        self.parent = list(range(n))
        self.components = n

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        self.components -= 1
        return True


@dataclass
class Instance:
    """An instance file plus its capacity sidecar, resolved to budgets."""

    n: int
    edges: list[tuple[int, int, str]]
    color_of: dict[frozenset, str]
    caps: dict[str, int]
    default: int | None

    def budget(self, color: str) -> int:
        value = self.caps.get(color, self.default)
        if value is None:
            raise ValueError(f"no budget for color {color!r}")
        return value


def _directives(text: str):
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            yield line.split()


def read_instance(instance_text: str, caps_text: str = "") -> Instance:
    """Parse an instance file and a sidecar; sidecar budgets win per color."""
    n = None
    edges: list[tuple[int, int, str]] = []
    caps: dict[str, int] = {}
    default = None
    for fields in _directives(instance_text):
        if fields[0] == "graph":
            n = int(fields[1])
        elif fields[0] == "e":
            edges.append((int(fields[1]), int(fields[2]), fields[3]))
        elif fields[0] == "f":
            caps[fields[1]] = int(fields[2])
        elif fields[0] == "fdefault":
            default = int(fields[1])
        else:
            raise ValueError(f"unknown directive {fields[0]!r}")
    for fields in _directives(caps_text):
        if fields[0] == "f":
            caps[fields[1]] = int(fields[2])
        elif fields[0] == "fdefault":
            default = int(fields[1])
        else:
            raise ValueError(f"unknown sidecar directive {fields[0]!r}")
    if n is None:
        raise ValueError("missing graph header")
    color_of = {frozenset((u, v)): c for u, v, c in edges}
    return Instance(n, edges, color_of, caps, default)


def greedy_forest_size(inst: Instance) -> int:
    """Edges in a budget-respecting forest grown greedily in edge order.

    A lower bound on the maximum forest, so ``n - greedy_forest_size`` is a
    component target that is known to be reachable.
    """
    dsu = DisjointSet(inst.n)
    used: dict[str, int] = {}
    size = 0
    for u, v, c in inst.edges:
        if used.get(c, 0) < inst.budget(c) and dsu.union(u, v):
            used[c] = used.get(c, 0) + 1
            size += 1
    return size


def _check_forest(inst: Instance, m: int, payload: dict) -> str | None:
    forest = payload.get("forest")
    if not isinstance(forest, list):
        return "forest is not a list"
    dsu = DisjointSet(inst.n)
    counts: dict[str, int] = {}
    for item in forest:
        if not (isinstance(item, list) and len(item) == 3):
            return f"malformed forest edge {item!r}"
        u, v, c = item
        if inst.color_of.get(frozenset((u, v))) != c:
            return f"edge {u}-{v} [{c}] is not in the instance"
        if not dsu.union(u, v):
            return f"edge {u}-{v} closes a cycle"
        counts[c] = counts.get(c, 0) + 1
    if dsu.components != m or payload.get("components") != m:
        return f"forest has {dsu.components} components, target {m}"
    for c, k in counts.items():
        if k > inst.budget(c):
            return f"color {c} used {k} times, budget {inst.budget(c)}"
    if payload.get("color_counts") != counts:
        return "color_counts does not match the forest"
    return None


def _check_certificate(inst: Instance, m: int, payload: dict) -> str | None:
    colors = payload.get("violating_colors")
    if not isinstance(colors, list) or len(set(colors)) != len(colors):
        return "violating_colors is not a list of distinct colors"
    banned = set(colors)
    dsu = DisjointSet(inst.n)
    for u, v, c in inst.edges:
        if c not in banned:
            dsu.union(u, v)
    omega, bound = payload.get("omega"), payload.get("bound")
    if omega != dsu.components:
        return f"omega {omega} but {dsu.components} components remain"
    if bound != m + sum(inst.budget(c) for c in banned):
        return f"bound {bound} is not m plus the violating budgets"
    if not omega > bound:
        return f"omega {omega} does not exceed bound {bound}"
    return None


def check_solve(
    inst: Instance, m: int, expect_found: bool, rc: int, stdout: bytes
) -> str | None:
    """Check one ``solve --json`` run against its instance and target ``m``.

    Every corpus instance has a verdict known by construction (a greedy
    witness, or budgets summing below ``n - m``), so the verdict must match
    ``expect_found`` as well as being self-consistent.
    """
    try:
        payload = json.loads(stdout)
    except ValueError:
        return f"stdout is not JSON (exit {rc})"
    if not isinstance(payload, dict) or payload.get("exists") not in (True, False):
        return "stdout has no boolean 'exists'"
    found = payload["exists"]
    if rc != (0 if found else 1):
        return f"exit code {rc} does not match exists={found}"
    if found != expect_found:
        return f"verdict exists={found}, expected {expect_found}"
    if found:
        return _check_forest(inst, m, payload)
    return _check_certificate(inst, m, payload)


_LAW_LINE = re.compile(r"^([a-z-]+): (\d+)/(\d+) passed$")
LAWS = ("oracle-agreement", "density-guarantee", "bounded-complete")


def check_sweep(count: int, rc: int, stdout: bytes) -> str | None:
    """Check one ``sweep --count count`` run: every law, every instance passed."""
    lines = stdout.decode("utf-8", "replace").splitlines()
    if rc != 0 or lines[-1:] != ["all laws hold"]:
        return f"sweep exit {rc} without 'all laws hold'"
    seen = []
    for line in lines[:-1]:
        match = _LAW_LINE.match(line)
        if not match:
            return f"unexpected sweep line {line!r}"
        name, passed, total = match.group(1), int(match.group(2)), int(match.group(3))
        if passed != count or total != count:
            return f"{name}: {passed}/{total} passed, expected {count}/{count}"
        seen.append(name)
    if tuple(seen) != LAWS:
        return f"sweep reported laws {seen}"
    return None
