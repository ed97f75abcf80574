"""``tools/parity.py`` finds no mismatch between a tree and itself, and
finds one in a tree whose solver was changed."""

import importlib.util
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("parity", ROOT / "tools" / "parity.py")
parity = importlib.util.module_from_spec(spec)
spec.loader.exec_module(parity)

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
    # members claim inside edges in decreasing index order: each layer holds
    # the same edges, but some are claimed by another member
    ascending = "for node in sorted(reached):"
    assert ascending in text
    engine.write_text(text.replace(ascending, "for node in sorted(reached, reverse=True):"))
    report = parity.compare(ROOT, tmp_path, SMALL)
    key, before, after = report.mismatches[0]
    assert key.endswith(" paths") and len(before) == len(after), key
