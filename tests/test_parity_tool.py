"""``tools/parity.py`` finds no mismatch between a tree and itself, and
finds one in a tree whose solver was changed."""

import shutil
from pathlib import Path

import helpers

ROOT = Path(__file__).resolve().parents[1]
parity = helpers.load_tool("parity")

SMALL = parity.Corpus(
    samples=range(40),
    gnp=range(3),
    files=tuple(case for case in parity.FILES if case.name == "small-2"),
    sweeps=((7, 0),),
)


def test_working_tree_matches_itself():
    report = parity.compare(ROOT, ROOT, SMALL)
    assert report.mismatches == []
    # each drawn instance's maximisation, path by path
    assert report.paths == 43
    # every sample at every m, three gnp instances at up to four targets each
    assert report.verdicts > 40
    # gen, three solves, certify, three oracles, one sweep
    assert report.runs == 9


def test_a_changed_solver_is_caught(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    engine = tmp_path / "src" / "capforest" / "engine.py"
    text = engine.read_text()
    # prune the lowest-index edges instead of the highest
    pruned = "forest.members[: forest.size - excess]"
    assert pruned in text
    engine.write_text(text.replace(pruned, "forest.members[excess:]"))
    report = parity.compare(ROOT, tmp_path, SMALL)
    key, before, after = report.mismatches[0]
    assert before[0] == after[0] == "found" and before != after, key


def test_a_changed_tie_break_is_caught(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    engine = tmp_path / "src" / "capforest" / "engine.py"
    text = engine.read_text()
    # the member half-step hands an inside edge to the largest-index layer
    # member on its forest path instead of the smallest: the search ends at
    # the same sink, by another member
    smallest = "parent[edge] = min(hits)"
    assert text.count(smallest) == 1
    engine.write_text(text.replace(smallest, "parent[edge] = max(hits)"))
    report = parity.compare(ROOT, tmp_path, SMALL)
    key, before, after = report.mismatches[0]
    assert key.endswith(" paths") and len(before) == len(after), key
