#!/usr/bin/env python3
"""Seeded end-to-end benchmark of the capforest command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up (not timed) builds the workload's corpus from the seed with
``capforest gen`` plus a capacity sidecar per instance, then launches a
trivial ``solve`` several times to measure start-up (and once more after
each pass). The timed part runs passes over the corpus, one CLI process at
a time (one closed-loop client), until about S seconds have passed; every
output is checked by ``check.py``, which
does not use capforest. ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` alternates untraced passes with passes under ``tracer.py``
and prints per-layer metrics. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md
in this directory for the metrics and the reasons behind each workload.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import check

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TRACER = BENCH / "tracer.py"
REFERENCE = BENCH / "reference.json"
WORKDIR = ROOT / ".bench_work"
SETUP_LAUNCHES = 5
SWEEP_PROCESSES = 4

END_TO_END_UNITS = {
    "wall_s": "s",
    "solve_p50_s": "s",
    "solve_max_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# layer metric -> unit; the JSON result carries those listed in
# BENCHMARK.json, the printed table carries all of them
LAYER_UNITS = {
    "cli.import_s": "s",
    "cli.self_s": "s",
    "instance_io.parse_s": "s",
    "graph.colored_graph_s": "s",
    "graph.colored_graphs": "count",
    "graph.forest_s": "s",
    "graph.forests": "count",
    "graph.component_count_s": "s",
    "engine.solve_self_s": "s",
    "engine.exchange_build_s": "s",
    "engine.exchange_builds": "count",
    "engine.path_search_s": "s",
    "engine.augmentations": "count",
    "engine.path_len.1": "count",
    "engine.path_len.3": "count",
    "engine.path_len.5plus": "count",
    "engine.builds_per_augmentation": "ratio",
    "engine.augment_self_s": "s",
    "engine.prune_s": "s",
    "certificates.extract_s": "s",
    "certificates.extracts": "count",
    "certificates.evaluate_s": "s",
    "certificates.evaluate_calls": "count",
    "certificates.oracle_condition_s": "s",
    "certificates.oracle_search_s": "s",
    "bounds.density_s": "s",
    "generators.generate_s": "s",
    "sweeps.self_s": "s",
    "trace.overhead_share": "share",
    "ref.checked": "count",
    "ref.mismatches": "count",
}

# span name in tracer.py -> (self-time metric, call-count metric)
SPAN_METRICS = {
    "cli": ("cli.self_s", None),
    "instance_io.parse": ("instance_io.parse_s", None),
    "graph.colored_graph": ("graph.colored_graph_s", "graph.colored_graphs"),
    "graph.forest": ("graph.forest_s", "graph.forests"),
    "graph.component_count": ("graph.component_count_s", None),
    "engine.solve": ("engine.solve_self_s", None),
    "engine.exchange_build": ("engine.exchange_build_s", "engine.exchange_builds"),
    "engine.path_search": ("engine.path_search_s", None),
    "engine.augment": ("engine.augment_self_s", None),
    "engine.prune": ("engine.prune_s", None),
    "certificates.extract": ("certificates.extract_s", "certificates.extracts"),
    "certificates.evaluate": ("certificates.evaluate_s", "certificates.evaluate_calls"),
    "certificates.oracle_condition": ("certificates.oracle_condition_s", None),
    "certificates.oracle_search": ("certificates.oracle_search_s", None),
    "bounds.density": ("bounds.density_s", None),
    "generators.generate": ("generators.generate_s", None),
    "sweeps": ("sweeps.self_s", None),
}


@dataclass(frozen=True)
class Case:
    """One corpus instance: ``capforest gen`` arguments and a budget sidecar.

    ``slack`` None means target m = 1 with budgets summing below n - 1, so
    the verdict is "no"; an integer means m = n - (greedy forest size) +
    slack, so the verdict is "yes" and slack > 0 makes the solver prune.
    """

    name: str
    gen: tuple[str, ...]
    caps: str
    slack: int | None = 0


def gnp(n: int, p: float, colors: int, *extra: str) -> tuple[str, ...]:
    return ("--model", "gnp", "--n", str(n), "--p", str(p), "--colors", str(colors), *extra)


def rainbow_found(smoke: bool) -> list[Case]:
    # Exchange-graph builds are ~95% of solve time here and the certificate
    # code is never reached. The sparse instance brings augmenting paths of
    # length 3 and more; the k-bounded one budgets above 1; the last one
    # has 10 more components than the greedy target, so the solver always
    # prunes.
    big, mid, fact, sparse = (14, 10, 6, 12) if smoke else (140, 100, 60, 120)
    kp = 0.5 if smoke else 0.1
    k = math.ceil(kp * mid * (mid - 1) / (mid // 4))  # color pool twice the expected edges
    return [
        Case("gnp-dense-a", gnp(mid, 0.3, mid), "fdefault 1\n"),
        Case("gnp-dense-b", gnp(big, 0.3, big), "fdefault 1\n"),
        Case("complete-factorized", ("--model", "complete-factorized", "--n", str(fact)), "fdefault 1\n"),
        Case("gnp-sparse", gnp(sparse, 0.05 if not smoke else 0.3, sparse + sparse // 12), "fdefault 1\n"),
        Case("k-bounded", gnp(mid, kp, mid // 4, "--k", str(k)), "fdefault 4\n"),
        Case("gnp-target-m", gnp(mid, 0.3, mid), "fdefault 1\n", slack=mid // 10),
    ]


def impossible_fewcolor(smoke: bool) -> list[Case]:
    # Few augmentations, so parsing, graph validation and certificate
    # extraction are large shares; the only workload on the "no" path.
    # Budgets sum to at most 3 * 8 < n - 1, so no instance has a solution.
    # They are fixed, not drawn from the seed, so that the number of
    # augmentations (one per unit of budget) does not vary between seeds.
    big, mid = (40, 10) if smoke else (400, 100)
    cases = []
    for colors in (4, 6, 8):
        budgets = "".join(f"f c{j} {1 + j % 3}\n" for j in range(colors))
        cases.append(Case(f"gnp-{colors}-colors", gnp(big, 0.3, colors), "fdefault 1\n" + budgets, None))
    cases.append(Case("gnp-palette-0.4n", gnp(mid, 0.3, mid * 2 // 5), "fdefault 1\n", None))
    return cases


CORPORA = {"rainbow-found": rainbow_found, "impossible-fewcolor": impossible_fewcolor}
WORKLOADS = (*CORPORA, "sweep")


@dataclass
class Op:
    """One CLI invocation of a pass and the check of its output."""

    name: str
    argv: list[str]
    check: Callable[[int, bytes], str | None]  # (exit code, stdout) -> reason or None


@dataclass
class Result:
    wall: float
    rss_mb: float
    rc: int
    stdout: bytes
    stderr: bytes
    trace: dict | None


def launch(argv: list[str], env: dict, trace_out: Path | None = None) -> Result:
    """Run one CLI process to completion; wall time and max RSS from wait4."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "capforest", *argv]
    else:
        cmd = [sys.executable, str(TRACER), str(trace_out), *argv]
    with open(WORKDIR / "stdout", "w+b") as out, open(WORKDIR / "stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        stdout, stderr = out.read(), err.read()
    trace = None
    if trace_out is not None and trace_out.exists():
        trace = json.loads(trace_out.read_text(encoding="utf-8"))
        trace_out.unlink()
    return Result(wall, usage.ru_maxrss / 1024, proc.returncode, stdout, stderr, trace)


def build_corpus(workload: str, seed: int, smoke: bool, env: dict) -> list[Op]:
    if workload == "sweep":
        count = 5 if smoke else 250
        return [
            Op(
                f"sweep-{i}",
                ["sweep", "--count", str(count), "--seed", str(seed * SWEEP_PROCESSES + i)],
                lambda rc, out, count=count: check.check_sweep(count, rc, out),
            )
            for i in range(SWEEP_PROCESSES)
        ]
    ops = []
    for index, case in enumerate(CORPORA[workload](smoke)):
        inst_path = WORKDIR / f"{case.name}.txt"
        caps_path = WORKDIR / f"{case.name}.caps"
        gen = launch(["gen", *case.gen, "--seed", str(seed * 16 + index), "--out", str(inst_path)], env)
        if gen.rc != 0:
            raise SystemExit(f"set-up: gen for {case.name} failed: {gen.stderr.decode()}")
        caps_path.write_text(case.caps, encoding="utf-8")
        inst = check.read_instance(inst_path.read_text(encoding="utf-8"), case.caps)
        if case.slack is None:
            m = 1
        else:
            m = min(inst.n, inst.n - check.greedy_forest_size(inst) + case.slack)
        found = case.slack is not None
        ops.append(
            Op(
                case.name,
                ["solve", str(inst_path), "-m", str(m), "--caps", str(caps_path), "--json"],
                lambda rc, out, inst=inst, m=m, found=found: check.check_solve(inst, m, found, rc, out),
            )
        )
    return ops


def setup_op() -> Op:
    """A 1-vertex instance: solving it is start-up, imports and argparse."""
    path = WORKDIR / "trivial.txt"
    path.write_text("graph 1\n", encoding="utf-8")
    (WORKDIR / "trivial.caps").write_text("fdefault 1\n", encoding="utf-8")
    inst = check.read_instance("graph 1\n", "fdefault 1\n")
    return Op(
        "trivial",
        ["solve", str(path), "-m", "1", "--caps", str(WORKDIR / "trivial.caps"), "--json"],
        lambda rc, out: check.check_solve(inst, 1, True, rc, out),
    )


class Checker:
    """Counts operations and failures, and compares stdout across runs."""

    def __init__(self, reference: dict | None):
        self.attempted = 0
        self.failed = 0
        self.first_stdout: dict[str, bytes] = {}
        self.reference = reference
        self.ref_checked = 0
        self.ref_mismatches = 0

    def record(self, op: Op, result: Result) -> None:
        self.attempted += 1
        try:
            reason = op.check(result.rc, result.stdout)
        except (ValueError, TypeError, KeyError, AttributeError) as exc:
            reason = f"malformed output: {exc!r}"
        first = self.first_stdout.setdefault(op.name, result.stdout)
        if reason is None and first != result.stdout:
            reason = "stdout differs from this op's first run"
        if reason is not None:
            self.failed += 1
            tail = result.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
            print(f"FAILED {op.name}: {reason} {' '.join(tail)}", file=sys.stderr)
            return
        if first is result.stdout and self.reference is not None:
            self.ref_checked += 1
            digest = hashlib.sha256(result.stdout).hexdigest()
            if self.reference.get(op.name) != digest:
                self.ref_mismatches += 1


def run_pass(ops: list[Op], env: dict, checker: Checker, traced: bool) -> list[Result]:
    results = []
    for op in ops:
        result = launch(op.argv, env, WORKDIR / "trace.json" if traced else None)
        checker.record(op, result)
        results.append(result)
    return results


def layer_metrics(results: list[Result]) -> dict[str, float]:
    """Sum the traces of one traced pass into per-layer metrics."""
    metrics = {
        name: 0 if unit == "count" else 0.0
        for name, unit in LAYER_UNITS.items()
        if not name.startswith(("trace.", "ref."))
    }
    for result in results:
        trace = result.trace or {}
        metrics["cli.import_s"] += trace.get("import_s", 0.0)
        for span, seconds in trace.get("self_s", {}).items():
            metrics[SPAN_METRICS[span][0]] += seconds
        for span, calls in trace.get("calls", {}).items():
            if SPAN_METRICS[span][1] is not None:
                metrics[SPAN_METRICS[span][1]] += calls
        for name, value in trace.get("counts", {}).items():
            metrics[name] += value
    if metrics["engine.augmentations"]:
        metrics["engine.builds_per_augmentation"] = (
            metrics["engine.exchange_builds"] / metrics["engine.augmentations"]
        )
    return metrics


def declared_metrics(kind: str) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def measure(args) -> tuple[dict[str, float], Checker]:
    """Set up, run passes for ``args.seconds``; return every metric and the checker."""
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    env = dict(os.environ, PYTHONPATH=str(SRC))
    reference = {}
    if REFERENCE.exists() and not args.smoke:  # recorded on the full-size corpora
        reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    checker = Checker(reference.get(args.workload, {}).get(str(args.seed)))

    ops = build_corpus(args.workload, args.seed, args.smoke, env)
    trivial = setup_op()
    setup_times = []
    for _ in range(SETUP_LAUNCHES):
        result = launch(trivial.argv, env)
        checker.record(trivial, result)
        setup_times.append(result.wall)

    plain: list[list[Result]] = []
    traced: list[list[Result]] = []
    start = time.perf_counter()
    step = 0.0
    # stop when half a further step would overrun, so runs last about
    # ``seconds`` on average whatever the length of a pass
    while not plain or time.perf_counter() - start + step / 2 < args.seconds:
        step_start = time.perf_counter()
        # traced and untraced passes alternate which goes first
        order = (False, True) if len(plain) % 2 == 0 else (True, False)
        for with_trace in order if args.trace else (False,):
            passes = traced if with_trace else plain
            passes.append(run_pass(ops, env, checker, with_trace))
        # start-up is sampled between steps too, across the whole run
        result = launch(trivial.argv, env)
        checker.record(trivial, result)
        setup_times.append(result.wall)
        step = time.perf_counter() - step_start

    # Means over passes, not medians: machine speed wanders over tens of
    # seconds, and a mean over the whole run averages that out best.
    per_op = [statistics.fmean(p[i].wall for p in plain) for i in range(len(ops))]
    plain_wall = statistics.fmean(sum(r.wall for r in p) for p in plain)
    table = {
        "wall_s": plain_wall,
        "solve_p50_s": statistics.median(per_op),
        "solve_max_s": max(per_op),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(r.rss_mb for p in plain for r in p),
        "passes": len(plain),
        "ref.checked": checker.ref_checked,
        "ref.mismatches": checker.ref_mismatches,
    }
    if not args.trace:
        return table, checker
    layers = [layer_metrics(p) for p in traced]
    for name in layers[0]:
        average = statistics.median_low if LAYER_UNITS[name] == "count" else statistics.fmean
        table[name] = average(m[name] for m in layers)
    traced_wall = statistics.fmean(sum(r.wall for r in p) for p in traced)
    table["trace.overhead_share"] = traced_wall / plain_wall - 1
    table["traced_passes"] = len(traced)
    return table, checker


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpus, for the smoke test")
    args = parser.parse_args(argv)
    if not (SRC / "capforest" / "__init__.py").is_file():
        print(f"error: no capforest sources under {SRC}", file=sys.stderr)
        return 2

    try:
        table, checker = measure(args)
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    failed_share = checker.failed / checker.attempted
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    units = {**END_TO_END_UNITS, **LAYER_UNITS}
    for name, value in table.items():
        print(f"  {name:34} {value:<14.6g} {units.get(name, 'count')}")
    print(f"  {'failed_share':34} {failed_share:<14.6g} share")
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": table[name], "unit": units[name]} for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
