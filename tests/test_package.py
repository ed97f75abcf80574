"""The package resolves its names lazily, and each subcommand loads little.

``import capforest`` imports no submodule; a public name is imported from
its submodule on first use. A ``solve`` process imports only the modules
``solve`` runs, which keeps its start-up short.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capforest

ROOT = Path(__file__).resolve().parents[1]

# submodule -> public names it provides, as the package has always exported them
EXPORTS = {
    "bounds": [
        "ColorDensity",
        "DensityReport",
        "complete_graph_threshold",
        "density_sufficient",
        "max_edges_for_components",
    ],
    "certificates": [
        "Certificate",
        "evaluate_condition",
        "extract_certificate",
        "oracle_condition",
        "oracle_forest_search",
    ],
    "engine": [
        "Found",
        "Impossible",
        "SolveVerdict",
        "augment_step",
        "maximize_forest",
        "prune_to_components",
        "solve",
    ],
    "errors": [
        "CapforestError",
        "EmptyGraphError",
        "GraphConstructionError",
        "InstanceParseError",
        "InternalSolverError",
        "MissingCapacityError",
        "OracleLimitError",
        "PreconditionError",
    ],
    "generators": ["GenSpec", "generate"],
    "graph": [
        "CapacityMap",
        "ColoredGraph",
        "Edge",
        "Forest",
        "color_census",
        "component_count",
    ],
}
NAMES = sorted(name for names in EXPORTS.values() for name in names)


class TestLazyApi:
    def test_all_lists_the_same_33_names(self):
        assert len(NAMES) == 33
        assert capforest.__all__ == NAMES

    @pytest.mark.parametrize(
        "module, name",
        [(module, name) for module, names in EXPORTS.items() for name in names],
    )
    def test_name_is_the_submodule_attribute(self, module, name):
        submodule = importlib.import_module(f"capforest.{module}")
        assert getattr(capforest, name) is getattr(submodule, name)

    def test_star_import_binds_every_name(self):
        namespace = {}
        exec("from capforest import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == NAMES

    def test_dir_lists_every_name(self):
        assert set(NAMES) <= set(dir(capforest))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            capforest.no_such_name
        with pytest.raises(ImportError):
            from capforest import no_such_name  # noqa: F401


# Runs in a fresh interpreter: prints the modules loaded after start-up.
PROBE = """
import json, sys
before = set(sys.modules)
if sys.argv[1:]:
    from capforest import cli
    code = cli.main(sys.argv[1:])
else:
    import capforest
    code = 0
print(json.dumps({"code": code, "loaded": sorted(set(sys.modules) - before)}))
"""
SOLVE_SKIPS = {
    "dataclasses",
    "fractions",
    "capforest.bounds",
    "capforest.certificates",
    "capforest.generators",
    "capforest.sweeps",
}


def loaded_modules(tmp_path, *argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    result = json.loads(proc.stdout.splitlines()[-1])
    return result["code"], set(result["loaded"])


class TestImportSet:
    def test_import_capforest_loads_no_submodule(self, tmp_path):
        _, loaded = loaded_modules(tmp_path)
        assert loaded == {"capforest"}

    def test_solve_loads_only_the_solve_path(self, tmp_path):
        (tmp_path / "inst.txt").write_text("graph 3\nfdefault 1\ne 0 1 a\ne 1 2 a\n")
        found_code, found = loaded_modules(tmp_path, "solve", "inst.txt", "-m", "2", "--json")
        assert found_code == 0
        assert not found & SOLVE_SKIPS
        assert {"capforest.cli", "capforest.engine", "capforest.graph"} <= found

        impossible_code, impossible = loaded_modules(
            tmp_path, "solve", "inst.txt", "-m", "1", "--json"
        )
        assert impossible_code == 1
        assert impossible - found == {"capforest.certificates"}

    def test_sweep_loads_no_process_pool(self, tmp_path):
        # run_all forks its workers itself: these imports alone cost 10-14 ms
        code, loaded = loaded_modules(tmp_path, "sweep", "--count", "2")
        assert code == 0
        assert "capforest.sweeps" in loaded
        assert not loaded & {"multiprocessing", "concurrent", "concurrent.futures"}
