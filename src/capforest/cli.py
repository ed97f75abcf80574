"""Command-line front end.

Exit codes (stable contract): ``0`` solution found / inequality holds /
oracles agree / sweep clean; ``1`` no solution exists (a verdict, not an
error); ``2`` bad input, including files that are not UTF-8; ``3``
internal disagreement between solver and oracles, a failed sweep, or an
:class:`InternalSolverError` (bug indicators).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

# Only what ``solve`` runs is imported here; the other subcommands import
# their modules when they run, so that a ``solve`` process starts fast.
from .engine import Found, SolveVerdict, solve
from .errors import CapforestError, InstanceParseError, InternalSolverError
from .graph import CapacityMap
from .instance_io import (
    Instance,
    emit_instance,
    graph_to_dot,
    parse_capacity_file,
    parse_instance,
    resolve_capacities,
)

EXIT_FOUND = 0
EXIT_IMPOSSIBLE = 1
EXIT_INPUT = 2
EXIT_DISAGREE = 3


def _read_text(path: str) -> str:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise InstanceParseError(
            f"{path}: not valid UTF-8 (byte {exc.start}: {exc.reason})"
        ) from exc
    # drop a leading byte-order mark, as the utf-8-sig codec would, but
    # after decoding, so the byte offset above stays the file's own
    return text.removeprefix("\ufeff")


def _load_instance(path: str) -> Instance:
    return parse_instance(_read_text(path), source=path)


def _load_capacities(args, instance: Instance) -> CapacityMap:
    sidecar = None
    if args.caps:
        sidecar = parse_capacity_file(_read_text(args.caps), source=args.caps)
    return resolve_capacities(instance, sidecar)


def _verdict_payload(verdict: SolveVerdict) -> dict:
    if isinstance(verdict, Found):
        forest = verdict.forest
        return {
            "exists": True,
            "components": forest.num_components,
            "forest": [[e.u, e.v, e.color] for _, e in forest.member_edges()],
            "color_counts": forest.color_counts(),
        }
    cert = verdict.certificate
    return {
        "exists": False,
        "violating_colors": cert.sorted_colors(),
        "omega": cert.omega_measured,
        "bound": cert.bound,
    }


def _print_verdict(verdict: SolveVerdict, as_json: bool) -> None:
    payload = _verdict_payload(verdict)
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    elif payload["exists"]:
        edges = payload["forest"]
        print(f"forest with {payload['components']} components ({len(edges)} edges)")
        for u, v, color in edges:
            print(f"  {u} -- {v}  [{color}]")
        counts = payload["color_counts"]
        if counts:
            print("color counts: " + " ".join(f"{c}={counts[c]}" for c in sorted(counts)))
    else:
        names = " ".join(payload["violating_colors"]) or "(none)"
        print("no qualifying forest")
        print(f"violating colors: {names}")
        print(
            f"components without them: {payload['omega']} > budget {payload['bound']}"
        )


def cmd_solve(args) -> int:
    instance = _load_instance(args.instance)
    caps = _load_capacities(args, instance)
    verdict = solve(instance.graph, caps, args.components)
    if args.dot:
        forest = verdict.forest if isinstance(verdict, Found) else None
        Path(args.dot).write_text(
            graph_to_dot(instance.graph, forest), encoding="utf-8"
        )
    _print_verdict(verdict, args.json)
    return EXIT_FOUND if isinstance(verdict, Found) else EXIT_IMPOSSIBLE


def cmd_certify(args) -> int:
    from .certificates import evaluate_condition

    instance = _load_instance(args.instance)
    caps = _load_capacities(args, instance)
    unknown = [c for c in args.colors if c not in instance.graph.palette]
    if unknown:
        raise CapforestError(f"unknown colors: {' '.join(sorted(unknown))}")
    colors = set(args.colors)
    remaining, budget = evaluate_condition(
        instance.graph, caps, args.components, colors
    )
    names = " ".join(sorted(colors)) or "(none)"
    print(f"colors: {names}")
    print(f"components without them: {remaining}")
    print(f"budget: {budget}")
    if remaining > budget:
        print("violated")
        return EXIT_IMPOSSIBLE
    print("holds")
    return EXIT_FOUND


def cmd_oracle(args) -> int:
    from .certificates import oracle_condition, oracle_forest_search

    instance = _load_instance(args.instance)
    caps = _load_capacities(args, instance)
    g, m = instance.graph, args.components
    verdict = solve(g, caps, m)
    cert = oracle_condition(g, caps, m)
    forest = oracle_forest_search(g, caps, m)

    solver_found = isinstance(verdict, Found)
    print(f"solver: {'exists' if solver_found else 'impossible'}")
    if cert is None:
        print("condition oracle: no violating color set")
    else:
        print(f"condition oracle: violating colors {' '.join(cert.sorted_colors()) or '(none)'}")
    print(f"search oracle: {'forest found' if forest is not None else 'no forest'}")
    if solver_found == (cert is None) == (forest is not None):
        print(f"AGREE exists={str(solver_found).lower()}")
        return EXIT_FOUND
    print("DISAGREE")
    return EXIT_DISAGREE


def cmd_gen(args) -> int:
    from .generators import GenSpec, generate

    unread = {"complete": ("p",), "complete-factorized": ("p", "colors", "k")}
    given = [
        f"--{flag}"
        for flag in unread.get(args.model, ())
        if getattr(args, flag) is not None
    ]
    if given:
        raise CapforestError(f"the {args.model} model does not read {' '.join(given)}")
    spec = GenSpec(
        seed=args.seed,
        n=args.n,
        model=args.model.replace("-", "_"),
        p=args.p,
        palette_size=1 if args.colors is None else args.colors,
        k=args.k,
    )
    text = emit_instance(generate(spec))
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return EXIT_FOUND


def cmd_sweep(args) -> int:
    from . import sweeps

    reports = sweeps.run_all(args.count, args.seed, max_n=args.max_n)
    for report in reports:
        total = report.passed + report.failed
        print(f"{report.name}: {report.passed}/{total} passed")
        if report.first_failing_key is not None:
            print(f"  first failure: {report.first_failing_key}")
    if all(report.ok for report in reports):
        print("all laws hold")
        return EXIT_FOUND
    print("LAW VIOLATION")
    return EXIT_DISAGREE


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capforest",
        description=(
            "Decide, construct, and certify spanning forests with exactly m "
            "components in edge-colored graphs, under per-color edge budgets."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p):
        p.add_argument("--caps", help="capacity sidecar file (overrides inline)")

    p_solve = sub.add_parser("solve", help="solve one instance")
    p_solve.add_argument("instance", help="instance file")
    p_solve.add_argument("-m", "--components", type=int, required=True)
    add_caps(p_solve)
    p_solve.add_argument("--json", action="store_true", help="machine-readable output")
    p_solve.add_argument("--dot", help="write the graph (plus forest) as DOT")
    p_solve.set_defaults(func=cmd_solve)

    p_cert = sub.add_parser(
        "certify", help="evaluate the component/budget inequality for one color set"
    )
    p_cert.add_argument("instance")
    p_cert.add_argument("-m", "--components", type=int, required=True)
    add_caps(p_cert)
    p_cert.add_argument(
        "--colors", nargs="*", default=[], help="color set to test (may be empty)"
    )
    p_cert.set_defaults(func=cmd_certify)

    p_oracle = sub.add_parser(
        "oracle", help="cross-check the solver against both exhaustive oracles"
    )
    p_oracle.add_argument("instance")
    p_oracle.add_argument("-m", "--components", type=int, required=True)
    add_caps(p_oracle)
    p_oracle.set_defaults(func=cmd_oracle)

    p_gen = sub.add_parser("gen", help="generate a seeded instance file")
    p_gen.add_argument(
        "--model",
        choices=["gnp", "complete", "complete-factorized"],
        default="gnp",
    )
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--p", type=float, help="gnp edge probability")
    p_gen.add_argument("--colors", type=int, help="palette size (default 1)")
    p_gen.add_argument("--k", type=int, help="max edges per color (shuffled pool)")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", help="output file (default: stdout)")
    p_gen.set_defaults(func=cmd_gen)

    p_sweep = sub.add_parser("sweep", help="run the randomized law sweeps")
    p_sweep.add_argument("--count", type=int, default=100, help="instances per law")
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--max-n", type=int, default=7)
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InternalSolverError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_DISAGREE
    except (CapforestError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
