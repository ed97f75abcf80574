"""Compare two capforest trees, output for output, on one fixed seeded corpus.

    python3 tools/parity.py REV            # this checkout against revision REV
    python3 tools/parity.py --against DIR  # this checkout against the tree in DIR

The old tree is REV, extracted with ``git archive REV | tar -x`` into a
temporary directory, so nothing is written to ``.git``; or it is DIR. The
new tree is the checkout that holds this script. Both run in child
interpreters of the one running this script, with ``PYTHONHASHSEED=0``,
on:

* solve verdicts at every m on ``sample_solver_instance`` seeds 0-2999
  (max_n 8, max_edges 20, max_palette 6), and at the targets around the
  fewest reachable components on 300 seeded G(n, p) with n = 10-200;
* the exit code, stdout and stderr of ``gen``, ``solve --json``,
  ``certify`` and ``oracle`` on instances shaped like the bench corpora,
  the rainbow G(600, 0.04) instance and the path-and-chords instance at
  n = 4000;
* the same for ``sweep --count`` 0, 1, 7 and 250 at seeds 0-9.

The old tree draws the instances once and both trees solve the same ones.
Verdicts are compared in a canonical form: a forest's members, or a
certificate's sorted colors with omega and the bound (``repr`` lists the
colors in set order, which changes with insertion order and hash seed).
Each drawn instance's ``maximize_forest`` is also compared path by path:
the child wraps ``ExchangeGraph.shortest_augmenting_path`` and records
every path it returns, so a search that reaches the same forests by other
paths is a mismatch too.
The script prints the counts and the first mismatch, and exits 0 only
when there is none.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]

# Runs in a child interpreter with one tree's ``src`` on its path. Mode
# ``draw`` turns a corpus into instances; mode ``solve`` turns instances
# into canonical verdicts. JSON in on stdin, JSON out on stdout.
CHILD = r"""
import json, random, sys
from capforest import CapacityMap, ColoredGraph, Forest, GenSpec, generate, maximize_forest, solve
from capforest.engine import ExchangeGraph
from capforest.sweeps import sample_solver_instance

# every search's result, in order: its augmenting path, or None at the end
taken = []
search = ExchangeGraph.shortest_augmenting_path


def recorded(self):
    path = search(self)
    taken.append(path)
    return path


ExchangeGraph.shortest_augmenting_path = recorded


def entry(key, g, caps, targets):
    return [key, g.n, [list(e) for e in g.edges], sorted(g.palette),
            caps.assignments, caps.default, targets]


def draw(job):
    out = []
    for seed in job["samples"]:
        rng = random.Random(seed)
        g, caps = sample_solver_instance(rng, max_n=8, max_edges=20, max_palette=6)
        out.append(entry(f"sample:{seed}", g, caps, list(range(1, g.n + 1))))
    for index in job["gnp"]:
        rng = random.Random(f"parity-gnp:{index}")
        n, colors = rng.randint(10, 200), rng.randint(1, 8)
        spec = GenSpec(index, n, p=rng.uniform(1, 8) / (n - 1), palette_size=colors)
        g = generate(spec)
        caps = CapacityMap({c: rng.randint(0, n // colors) for c in sorted(g.palette)})
        fewest = n - maximize_forest(g, caps).size
        targets = sorted({1, max(1, fewest - 1), fewest, min(n, fewest + 1)})
        out.append(entry(f"gnp:{index}", g, caps, targets))
    return out


def canonical(g, caps, m):
    try:
        verdict = solve(g, caps, m)
    except Exception as exc:
        return ["error", type(exc).__name__, str(exc)]
    # older trees wrap the result in a record with a .forest or .certificate
    verdict = getattr(verdict, "forest", getattr(verdict, "certificate", verdict))
    if isinstance(verdict, Forest):
        return ["found", list(verdict.members)]
    return ["impossible", verdict.sorted_colors(), verdict.omega_measured, verdict.bound]


def paths(g, caps):
    taken.clear()
    try:
        maximize_forest(g, caps)
    except Exception as exc:
        taken.append(["error", type(exc).__name__, str(exc)])
    return list(taken)


def verdicts(instances):
    out = {}
    for key, n, edges, palette, assignments, default, targets in instances:
        g = ColoredGraph(n, [tuple(e) for e in edges], palette=frozenset(palette))
        caps = CapacityMap(assignments, default)
        # ahead of the verdicts, so a changed search is reported as such
        out[f"{key} paths"] = paths(g, caps)
        for m in targets:
            out[f"{key} m={m}"] = canonical(g, caps, m)
    return out


job = json.load(sys.stdin)
json.dump(draw(job) if sys.argv[1] == "draw" else verdicts(job), sys.stdout)
"""


class FileCase(NamedTuple):
    """An instance file and the commands run on it.

    ``source`` is the ``capforest gen`` arguments, whose output (from the
    old tree) becomes the file, or the instance text itself. Each run is a
    subcommand and its arguments; the file goes after the subcommand and
    ``--caps`` with the sidecar at the end.
    """

    name: str
    source: tuple[str, ...] | str
    caps: str
    runs: tuple[tuple[str, ...], ...]


class Corpus(NamedTuple):
    samples: range  # sample_solver_instance seeds, solved at every m
    gnp: range  # seeded G(n, p) instances, solved around the fewest components
    files: tuple[FileCase, ...]
    sweeps: tuple[tuple[int, int], ...]  # (count, seed)


def gnp(n: int, p: float, colors: int, seed: int, *extra: str) -> tuple[str, ...]:
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


def solve_at(*ms: int) -> tuple[tuple[str, ...], ...]:
    return tuple(("solve", "-m", str(m), "--json") for m in ms)


RAINBOW = "fdefault 1\n"
CERTIFY = (("certify", "-m", "1", "--colors", "c0", "c1"),)
FILES = (
    FileCase("rainbow-100", gnp(100, 0.3, 100, 0), RAINBOW, solve_at(1, 10) + CERTIFY),
    FileCase("rainbow-140", gnp(140, 0.3, 140, 1), RAINBOW, solve_at(1, 10)),
    FileCase("factorized-60", ("--model", "complete-factorized", "--n", "60"), RAINBOW,
             solve_at(1, 10)),
    FileCase("sparse-rainbow-120", gnp(120, 0.05, 130, 3), RAINBOW, solve_at(1, 10)),
    FileCase("k-bounded-100", gnp(100, 0.1, 25, 4, "--k", "40"), "fdefault 4\n",
             solve_at(1, 10)),
    *(
        FileCase(f"fewcolor-{colors}", gnp(400, 0.3, colors, 5 + colors),
                 RAINBOW + "".join(f"f c{j} {1 + j % 3}\n" for j in range(colors)),
                 solve_at(1) + CERTIFY)
        for colors in (4, 6, 8)
    ),
    FileCase("palette-40", gnp(100, 0.3, 40, 6), RAINBOW,
             solve_at(1) + CERTIFY + (("oracle", "-m", "1"),)),
    FileCase("rainbow-600", gnp(600, 0.04, 600, 3), RAINBOW, solve_at(1)),
    FileCase("chords-4000", chords(4000), "f p 3999\nf q 0\n", solve_at(1)),
    *(
        FileCase(f"small-{seed}", gnp(7, 0.5, 3, seed), "f c0 1\nf c1 2\nf c2 3\n",
                 solve_at(1, 2, 3) + CERTIFY
                 + tuple(("oracle", "-m", str(m)) for m in (1, 2, 3)))
        for seed in range(5)
    ),
)
FULL = Corpus(
    range(3000),
    range(300),
    FILES,
    tuple((count, seed) for count in (0, 1, 7, 250) for seed in range(10)),
)


def run(tree: Path, argv: list[str], cwd: Path, stdin: str = "") -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONHASHSEED="0",
               PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, *argv], input=stdin.encode(), cwd=cwd,
                          env=env, capture_output=True, check=False)


def child(tree: Path, mode: str, payload, cwd: Path):
    proc = run(tree, ["-c", CHILD, mode], cwd, json.dumps(payload))
    if proc.returncode:
        raise RuntimeError(f"{tree}: {mode} failed:\n{proc.stderr.decode()}")
    return json.loads(proc.stdout)


def cli(tree: Path, argv: list[str], cwd: Path) -> list:
    proc = run(tree, ["-m", "capforest", *argv], cwd)
    return [proc.returncode, proc.stdout.decode(), proc.stderr.decode()]


def cli_runs(old: Path, corpus: Corpus, work: Path) -> list[tuple[str, list[str]]]:
    """``(key, argv)`` for every CLI run; writes the instance files first.

    A ``gen`` source is itself a compared run, and the old tree's output
    becomes the instance file.
    """
    runs = []
    for case in corpus.files:
        inst, caps = work / f"{case.name}.txt", work / f"{case.name}.caps"
        if isinstance(case.source, str):
            inst.write_text(case.source, encoding="utf-8")
        else:
            argv = ["gen", *case.source]
            runs.append((f"{case.name}: gen", argv))
            inst.write_text(cli(old, argv, work)[1], encoding="utf-8")
        caps.write_text(case.caps, encoding="utf-8")
        for command, *rest in case.runs:
            argv = [command, str(inst), *rest, "--caps", str(caps)]
            runs.append((f"{case.name}: {' '.join([command, *rest])}", argv))
    for count, seed in corpus.sweeps:
        runs.append((f"sweep {count} {seed}", ["sweep", "--count", str(count), "--seed", str(seed)]))
    return runs


def outputs(tree: Path, instances: list, runs: list[tuple[str, list[str]]], work: Path) -> dict:
    found = child(tree, "solve", instances, work)
    for key, argv in runs:
        found[key] = cli(tree, argv, work)
    return found


class Report(NamedTuple):
    verdicts: int
    paths: int  # instances whose augmenting paths were compared
    runs: int
    mismatches: list[tuple[str, object, object]]  # (key, old, new)


def compare(old: Path, new: Path, corpus: Corpus = FULL) -> Report:
    """Run the trees rooted at ``old`` and ``new`` on ``corpus``; every key
    whose output differs is a mismatch."""
    with tempfile.TemporaryDirectory(prefix="parity-") as tmp:
        work = Path(tmp)
        instances = child(old, "draw", {"samples": list(corpus.samples), "gnp": list(corpus.gnp)}, work)
        runs = cli_runs(old, corpus, work)
        with ThreadPoolExecutor(max_workers=2) as pool:
            before, after = pool.map(lambda tree: outputs(tree, instances, runs, work), (old, new))
    mismatches = [(key, before[key], after.get(key)) for key in before if before[key] != after.get(key)]
    return Report(len(before) - len(instances) - len(runs), len(instances), len(runs), mismatches)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("rev", nargs="?", help="git revision to compare against")
    which.add_argument("--against", type=Path, help="tree to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="parity-old-") as tmp:
        if args.against is None:
            archive = subprocess.run(["git", "-C", str(ROOT), "archive", args.rev],
                                     capture_output=True, check=True)
            subprocess.run(["tar", "-x", "-C", tmp], input=archive.stdout, check=True)
        report = compare(Path(tmp) if args.against is None else args.against.resolve(), ROOT)
    print(f"verdicts: {report.verdicts} compared")
    print(f"augmenting paths: {report.paths} maximisations compared")
    print(f"cli runs: {report.runs} compared")
    print(f"mismatches: {len(report.mismatches)}")
    if report.mismatches:
        key, before, after = report.mismatches[0]
        print(f"first mismatch: {key}")
        print(f"  old: {json.dumps(before)[:500]}")
        print(f"  new: {json.dumps(after)[:500]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
