#!/usr/bin/env python3
"""Record the sha256 of every benchmark operation's stdout as the reference.

Usage, from the root of a checkout: python3 bench/make_reference.py FIRST LAST

Builds each workload's corpus for seeds FIRST..LAST, runs one checked pass
and writes bench/reference.json. ``run.py`` then reports, per workload, how
many outputs differ from these bytes (``ref.mismatches``): a change that
must keep stdout byte-identical is held to zero there. Run it on the
commit whose output is the reference, never on the change under test.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys

import run


def main(argv: list[str]) -> int:
    first, last = int(argv[0]), int(argv[1])
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    reference: dict[str, dict[str, dict[str, str]]] = {}
    for workload in run.WORKLOADS:
        for seed in range(first, last + 1):
            shutil.rmtree(run.WORKDIR, ignore_errors=True)
            run.WORKDIR.mkdir()
            try:
                ops = [*run.build_corpus(workload, seed, False, env), run.setup_op()]
                checker = run.Checker(None)
                results = run.run_pass(ops, env, checker, False)
            finally:
                shutil.rmtree(run.WORKDIR, ignore_errors=True)
            if checker.failed:
                print(f"{workload} seed {seed}: {checker.failed} outputs failed", file=sys.stderr)
                return 1
            reference.setdefault(workload, {})[str(seed)] = {
                op.name: hashlib.sha256(r.stdout).hexdigest() for op, r in zip(ops, results)
            }
            print(f"{workload} seed {seed}: {len(ops)} outputs", flush=True)
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
