"""The four records, the types that validate, behave as frozen value types.

Each compares equal by type and fields, hashes alike when equal (the one
that holds a dict is unhashable), refuses assignment and deletion with an
``AttributeError``, prints as ``Type(field=value, ...)``, takes its fields
by position or keyword, and survives ``copy`` and ``pickle``.
"""

import copy
import importlib
import pickle
import pkgutil

import pytest

import capforest
from capforest import CapacityMap, Certificate, ColoredGraph, Forest
from capforest.graph import Record

GRAPH_REPR = (
    "ColoredGraph(n=3, edges=(Edge(u=0, v=1, color='a'), Edge(u=1, v=2, color='a')))"
)
FOREST_REPR = f"Forest(host={GRAPH_REPR}, members=(0,))"
CERTIFICATE_REPR = "Certificate(violating=frozenset({'a'}), omega_measured=3, bound=2)"


def graph():
    return ColoredGraph(3, [(0, 1, "a"), (1, 2, "a")])


def forest():
    return Forest(graph(), (0,))


def certificate():
    return Certificate(frozenset({"a"}), 3, 2)


# name -> (build a value, build an equal one by keyword, build another, repr)
RECORDS = {
    "ColoredGraph": (
        graph,
        lambda: ColoredGraph(n=3, edges=((0, 1, "a"), (1, 2, "a"))),
        lambda: ColoredGraph(3, [(0, 1, "a")]),
        GRAPH_REPR,
    ),
    "CapacityMap": (
        lambda: CapacityMap({"a": 2}, default=1),
        lambda: CapacityMap(assignments={"a": 2}, default=1),
        lambda: CapacityMap({"a": 2}),
        "CapacityMap(assignments={'a': 2}, default=1)",
    ),
    "Forest": (
        forest,
        lambda: Forest(host=graph(), members=[0]),
        lambda: Forest(graph(), (1,)),
        FOREST_REPR,
    ),
    "Certificate": (
        certificate,
        lambda: Certificate(violating={"a"}, omega_measured=3, bound=2),
        lambda: Certificate(frozenset(), 3, 2),
        CERTIFICATE_REPR,
    ),
}
UNHASHABLE = {"CapacityMap"}  # it holds a dict


def test_every_record_is_listed_here():
    # plain data are NamedTuples, so every Record subclass validates its fields
    for module in pkgutil.iter_modules(capforest.__path__):
        if not module.name.startswith("_"):
            importlib.import_module(f"capforest.{module.name}")
    assert sorted(cls.__name__ for cls in Record.__subclasses__()) == sorted(RECORDS)


@pytest.fixture(params=sorted(RECORDS))
def record(request):
    return request.param, *RECORDS[request.param]


def test_equality_by_type_and_fields(record):
    name, build, build_by_keyword, build_other, _ = record
    value = build()
    assert type(value).__name__ == name
    assert value == build() == build_by_keyword()
    assert value != build_other()
    assert value != tuple(getattr(value, f) for f in type(value).__match_args__)
    assert not (value != build())


def test_equal_values_hash_alike(record):
    name, build, build_by_keyword, _, _ = record
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(build())
    else:
        assert hash(build()) == hash(build_by_keyword())
        assert len({build(), build_by_keyword()}) == 1


def test_assignment_and_deletion_are_refused(record):
    _, build, _, _, _ = record
    value = build()
    field = type(value).__match_args__[0]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.unknown_field = 1
    assert getattr(value, field) is before


def test_repr(record):
    _, build, _, _, expected = record
    assert repr(build()) == expected


def test_copy_and_pickle_round_trip(record):
    _, build, _, _, _ = record
    value = build()
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert type(twin) is type(value)
        assert twin == value
