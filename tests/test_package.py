"""The package resolves its names lazily, and each subcommand loads little.

``import capforest`` imports no submodule; a public name is imported from
its submodule on first use. A ``solve`` process imports only the modules
``solve`` runs, which keeps its start-up short. No subcommand loads
``dataclasses``: plain data are ``typing.NamedTuple``s, whose value
semantics are pinned here.
"""

import copy
import importlib
import pickle
from fractions import Fraction
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import capforest
from capforest import CapacityMap, ColoredGraph, ColorDensity, DensityReport, GenSpec
from capforest.bounds import density_sufficient
from capforest.sweeps import LawReport

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
        # a sweep runs in one process; a pool's imports alone would cost 10-14 ms
        code, loaded = loaded_modules(tmp_path, "sweep", "--count", "2")
        assert code == 0
        assert "capforest.sweeps" in loaded
        assert not loaded & {"multiprocessing", "concurrent", "concurrent.futures"}

    # what the dataclass decorator imports; no subcommand needs any of them
    @pytest.mark.parametrize(
        "argv, expected_code",
        [
            (["sweep", "--count", "2"], 0),
            (["gen", "--model", "gnp", "--n", "6", "--p", "0.5", "--colors", "3"], 0),
            (["gen", "--model", "complete", "--n", "5", "--colors", "4", "--k", "3"], 0),
            (["certify", "inst.txt", "-m", "1", "--colors", "a"], 1),
            (["oracle", "inst.txt", "-m", "1"], 0),
        ],
        ids=["sweep", "gen", "gen-k", "certify", "oracle"],
    )
    def test_subcommand_loads_no_dataclasses(self, tmp_path, argv, expected_code):
        (tmp_path / "inst.txt").write_text("graph 3\nfdefault 1\ne 0 1 a\ne 1 2 a\n")
        code, loaded = loaded_modules(tmp_path, *argv)
        assert code == expected_code
        assert not loaded & {"dataclasses", "inspect", "ast", "dis"}


def density_report():
    g = ColoredGraph(3, [(0, 1, "a"), (1, 2, "a"), (0, 2, "b")])
    return density_sufficient(g, CapacityMap.uniform(2), 1)


BOUND_REPR = "ColorDensity(observed=2, bound=Fraction(3, 1), ok=True)"

# name -> (build a value, build an equal one by keyword, build another, repr)
PLAIN_DATA = {
    "GenSpec": (
        lambda: GenSpec(1, 8, "gnp", 0.5, 4),
        lambda: GenSpec(seed=1, n=8, p=0.5, palette_size=4),
        lambda: GenSpec(seed=1, n=8, p=0.5, palette_size=4, k=2),
        "GenSpec(seed=1, n=8, model='gnp', p=0.5, palette_size=4, k=None)",
    ),
    "ColorDensity": (
        lambda: ColorDensity(2, Fraction(3), True),
        lambda: ColorDensity(observed=2, bound=Fraction(3), ok=True),
        lambda: ColorDensity(4, Fraction(3), False),
        BOUND_REPR,
    ),
    "DensityReport": (
        density_report,
        lambda: DensityReport(
            edge_count=3,
            threshold=1,
            ratio=Fraction(3, 2),
            per_color={
                "a": ColorDensity(2, Fraction(3), True),
                "b": ColorDensity(1, Fraction(3), True),
            },
            guaranteed=True,
        ),
        lambda: density_report()._replace(guaranteed=False),
        "DensityReport(edge_count=3, threshold=1, ratio=Fraction(3, 2), "
        f"per_color={{'a': {BOUND_REPR}, "
        "'b': ColorDensity(observed=1, bound=Fraction(3, 1), ok=True)}, "
        "guaranteed=True)",
    ),
    "LawReport": (
        lambda: LawReport("bounded-complete", 5, 1, "0:bounded:3"),
        lambda: LawReport(
            name="bounded-complete", passed=5, failed=1, first_failing_key="0:bounded:3"
        ),
        lambda: LawReport("bounded-complete", 6),
        "LawReport(name='bounded-complete', passed=5, failed=1, "
        "first_failing_key='0:bounded:3')",
    ),
}


@pytest.fixture(params=sorted(PLAIN_DATA))
def plain(request):
    return request.param, *PLAIN_DATA[request.param]


class TestPlainData:
    def test_is_a_named_tuple(self, plain):
        name, build, _, _, _ = plain
        value = build()
        assert type(value).__name__ == name
        assert isinstance(value, tuple)
        assert value == tuple(getattr(value, f) for f in type(value)._fields)

    def test_equality_by_fields(self, plain):
        _, build, build_by_keyword, build_other, _ = plain
        assert build() == build_by_keyword()
        assert build() != build_other()
        assert not (build() != build())

    def test_equal_values_hash_alike(self, plain):
        name, build, build_by_keyword, _, _ = plain
        if name == "DensityReport":  # it holds a dict
            with pytest.raises(TypeError):
                hash(build())
        else:
            assert hash(build()) == hash(build_by_keyword())
            assert len({build(), build_by_keyword()}) == 1

    def test_assignment_and_deletion_are_refused(self, plain):
        _, build, _, _, _ = plain
        value = build()
        field = type(value)._fields[0]
        before = getattr(value, field)
        with pytest.raises(AttributeError):
            setattr(value, field, None)
        with pytest.raises(AttributeError):
            delattr(value, field)
        with pytest.raises(AttributeError):
            value.unknown_field = 1
        assert getattr(value, field) is before

    def test_repr(self, plain):
        _, build, _, _, expected = plain
        assert repr(build()) == expected

    def test_copy_and_pickle_round_trip(self, plain):
        _, build, _, _, _ = plain
        value = build()
        for twin in (
            copy.copy(value),
            copy.deepcopy(value),
            pickle.loads(pickle.dumps(value)),
        ):
            assert type(twin) is type(value)
            assert twin == value

    def test_keyword_construction_keeps_the_defaults(self):
        assert GenSpec(seed=0, n=3) == GenSpec(0, 3, "gnp", None, None, None)
        assert LawReport(name="x") == LawReport("x", 0, 0, None)
        assert LawReport("x").ok and not LawReport("x", failed=1).ok
        with pytest.raises(TypeError):
            ColorDensity(observed=1, bound=Fraction(1))
        with pytest.raises(TypeError):
            DensityReport(edge_count=0)
