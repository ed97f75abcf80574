"""Run one capforest CLI command with per-layer timing spans.

Usage: python3 bench/tracer.py OUT.json ARGS...

Behaves like ``python -m capforest ARGS...`` (same stdout, same exit code)
and writes the span totals of the run to OUT.json. Spans come from wrappers
installed at every name a capforest module looks up: module attributes,
default arguments and class methods. Each wrapper returns the wrapped
call's own result, so no object or type the program sees changes.

A span's self time is its duration minus the time of the spans it
encloses, so the self times of all layers sum to the time of ``cli.main``
(interpreter start and imports are measured apart, as ``import_s``). Spans
are aggregated in memory per name (self seconds and calls) and written
once when the command ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._stack: list[list] = []  # [name, start, time of child spans]

    def enter(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def leave(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.leave()
            if on_result is not None:
                on_result(result)
            return result

        return traced


def _rebind(modules, original, replacement) -> None:
    """Point every module attribute and default argument at ``replacement``."""
    for module in modules:
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
            elif isinstance(value, types.FunctionType):
                if value.__defaults__ and original in value.__defaults__:
                    value.__defaults__ = tuple(
                        replacement if d is original else d
                        for d in value.__defaults__
                    )
                kw = value.__kwdefaults__
                if kw and any(d is original for d in kw.values()):
                    value.__kwdefaults__ = {
                        k: replacement if d is original else d for k, d in kw.items()
                    }


def install(tracer: Tracer) -> None:
    from capforest import (
        bounds,
        certificates,
        cli,
        engine,
        generators,
        graph,
        instance_io,
        sweeps,
    )

    modules = [bounds, certificates, cli, engine, generators, graph, instance_io, sweeps]

    def record_path(path) -> None:
        if path is None:
            return
        tracer.counts["engine.augmentations"] += 1
        tracer.counts["engine.path_len." + ("5plus" if len(path) >= 5 else str(len(path)))] += 1

    functions = [
        (instance_io.parse_instance, "instance_io.parse"),
        (instance_io.parse_capacity_file, "instance_io.parse"),
        (instance_io.resolve_capacities, "instance_io.parse"),
        (graph.component_count, "graph.component_count"),
        (engine.solve, "engine.solve"),
        (engine.augment_step, "engine.augment"),
        (engine.prune_to_components, "engine.prune"),
        (certificates.extract_certificate, "certificates.extract"),
        (certificates.evaluate_condition, "certificates.evaluate"),
        (certificates.oracle_condition, "certificates.oracle_condition"),
        (certificates.oracle_forest_search, "certificates.oracle_search"),
        (bounds.density_sufficient, "bounds.density"),
        (generators.generate, "generators.generate"),
        (sweeps.run_all, "sweeps"),
    ]
    for fn, name in functions:
        _rebind(modules, fn, tracer.wrap(fn, name))

    methods = [
        (graph.ColoredGraph, "__post_init__", "graph.colored_graph", None),
        (graph.Forest, "__post_init__", "graph.forest", None),
        (engine.ExchangeGraph, "__init__", "engine.exchange_build", None),
        (engine.ExchangeGraph, "shortest_augmenting_path", "engine.path_search", record_path),
    ]
    for cls, attr, name, on_result in methods:
        setattr(cls, attr, tracer.wrap(getattr(cls, attr), name, on_result))


def main(argv: list[str]) -> int:
    out_path, args = argv[0], argv[1:]
    start = time.perf_counter()
    from capforest import cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    tracer.enter("cli")
    try:
        return cli.main(args)
    finally:
        tracer.leave()
        sys.stdout.flush()
        with open(out_path, "w", encoding="utf-8") as out:
            json.dump(
                {
                    "import_s": import_s,
                    "self_s": tracer.self_s,
                    "calls": tracer.calls,
                    "counts": tracer.counts,
                },
                out,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
