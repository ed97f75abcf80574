"""The package and the benchmark scripts import only the standard library.

Every absolute import in ``src/capforest/*.py``, ``bench/*.py`` and
``tools/*.py`` must name a standard-library module, the ``capforest``
package, or a module that sits in the same directory as the importing file
(the bench scripts import each other as ``import run``). Relative imports stay inside the package.

``tests/helpers.py`` holds the references that the solver is checked
against: a restatement of its augmenting-path search and brute-force
oracles. From ``capforest`` it imports only ``capforest.graph``'s names,
so that it can share no code with ``engine`` or ``certificates``.
"""

import ast
import sys
from pathlib import Path

import pytest

import capforest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = sorted(
    [
        *(ROOT / "src" / "capforest").glob("*.py"),
        *(ROOT / "bench").glob("*.py"),
        *(ROOT / "tools").glob("*.py"),
    ]
)


def foreign_imports(path: Path) -> list[str]:
    """``file:line: module`` for each absolute import that is not allowed."""
    allowed = {"capforest", *sys.stdlib_module_names}
    allowed |= {p.stem for p in path.parent.glob("*.py")}
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] not in allowed:
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_both_directories_are_checked():
    assert {p.parent.name for p in CHECKED} == {"capforest", "bench", "tools"}


@pytest.mark.parametrize("path", CHECKED, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_imports_are_stdlib_only(path):
    assert foreign_imports(path) == []


def test_a_third_party_import_is_caught(tmp_path):
    (tmp_path / "sibling.py").write_text("")
    source = tmp_path / "mod.py"
    source.write_text(
        "import json, numpy.linalg\n"
        "import sibling\n"
        "from . import relative\n"
        "from os import path\n"
        "def f():\n"
        "    from requests import get\n"
    )
    assert foreign_imports(source) == ["mod.py:1: numpy.linalg", "mod.py:6: requests"]


def solver_imports(path: Path) -> list[str]:
    """``file:line: name`` for each capforest import from outside ``capforest.graph``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module == "capforest":
            # the package root resolves each name from its submodule
            names = [
                f"capforest.{capforest._MODULE_OF.get(alias.name, alias.name)}"
                for alias in node.names
            ]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            if name.partition(".")[0] == "capforest" and name != "capforest.graph":
                found.append(f"{path.name}:{node.lineno}: {name}")
    return found


def test_reference_helpers_use_only_graph_types():
    assert solver_imports(ROOT / "tests" / "helpers.py") == []


def test_a_solver_import_in_the_references_is_caught(tmp_path):
    source = tmp_path / "helpers.py"
    source.write_text(
        "from capforest.graph import ColoredGraph, DisjointSet\n"
        "from capforest import Forest, solve\n"
        "import capforest.engine\n"
        "def f():\n"
        "    from capforest.certificates import extract_certificate\n"
    )
    assert solver_imports(source) == [
        "helpers.py:2: capforest.engine",
        "helpers.py:3: capforest.engine",
        "helpers.py:5: capforest.certificates",
    ]
