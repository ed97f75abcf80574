"""CLI output is a pure function of the input, whatever the hash seed.

Each command runs in a child interpreter under several ``PYTHONHASHSEED``
values, so any output that follows the iteration order of a set or a
frozenset of colors shows up as a difference between the runs.
"""

import os
import subprocess
import sys

import pytest

HASH_SEEDS = ("0", "2", "4")

# name: (instance text, component target m)
INSTANCES = {
    "found": ("graph 3\nfdefault 1\ne 0 1 a\ne 1 2 b\ne 2 0 c\n", 1),
    "impossible": (
        "graph 5\nfdefault 1\nf a 0\n"
        "e 0 1 a\ne 1 2 a\ne 2 3 b\ne 3 4 b\ne 4 0 c\ne 1 3 d\n",
        1,
    ),
    "no-budgets": ("graph 4\ne 0 1 a\ne 1 2 b\ne 2 3 c\ne 3 0 d\n", 1),
    "some-budgets": ("graph 4\nf c 1\ne 0 1 a\ne 1 2 b\ne 2 3 c\ne 3 0 d\n", 2),
}

# subcommand: options after the instance and -m
COMMANDS = {
    "solve": ["--json"],
    "certify": ["--colors", "a", "b", "c", "d"],
    "oracle": [],
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", INSTANCES)
def test_output_is_the_same_under_every_hash_seed(tmp_path, name, command):
    text, m = INSTANCES[name]
    path = tmp_path / f"{name}.txt"
    path.write_text(text)
    runs = set()
    for seed in HASH_SEEDS:
        run = subprocess.run(
            [sys.executable, "-m", "capforest", command, str(path), "-m", str(m),
             *COMMANDS[command]],
            env=dict(os.environ, PYTHONHASHSEED=seed),
            capture_output=True, check=False, timeout=60,
        )
        runs.add((run.returncode, run.stdout, run.stderr))
    assert len(runs) == 1, sorted(runs)
