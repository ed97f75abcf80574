"""The benchmark's tracer must keep wrapping the names it expects.

``bench/tracer.py`` rebinds public capforest functions by name and raises
``AttributeError`` when one is gone, so a library change can break the
traced benchmark without failing any other test.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"


def run(args, cwd):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, timeout=120
    )


@pytest.mark.parametrize(
    "command, span",
    [
        (["solve", "inst.txt", "-m", "1", "--json"], "engine.solve"),
        (["sweep", "--count", "1"], "sweeps"),
        (["certify", "inst.txt", "-m", "1", "--colors", "a"], "certificates.evaluate"),
        (["gen", "--n", "4", "--p", "0.5", "--colors", "2"], "generators.generate"),
        (["oracle", "inst.txt", "-m", "1"], "certificates.oracle_condition"),
    ],
)
def test_traced_run_matches_the_plain_run(tmp_path, command, span):
    (tmp_path / "inst.txt").write_text("graph 3\nfdefault 1\ne 0 1 a\ne 1 2 b\n")
    plain = run(["-m", "capforest", *command], tmp_path)
    traced = run([str(TRACER), "trace.json", *command], tmp_path)
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == plain.returncode, traced.stderr
    assert traced.stdout == plain.stdout
    spans = json.loads((tmp_path / "trace.json").read_text())
    assert spans["calls"][span] >= 1


def test_traced_impossible_solve_records_the_certificate(tmp_path):
    (tmp_path / "inst.txt").write_text("graph 3\nfdefault 1\ne 0 1 a\ne 1 2 a\n")
    command = ["solve", "inst.txt", "-m", "1", "--json"]
    plain = run(["-m", "capforest", *command], tmp_path)
    traced = run([str(TRACER), "trace.json", *command], tmp_path)
    assert plain.returncode == 1, plain.stderr
    assert traced.returncode == plain.returncode, traced.stderr
    assert traced.stdout == plain.stdout
    assert json.loads(plain.stdout)["violating_colors"] == ["a"]
    spans = json.loads((tmp_path / "trace.json").read_text())
    assert spans["calls"]["certificates.extract"] == 1
    assert spans["calls"]["certificates.evaluate"] == 1
