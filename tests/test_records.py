"""The seven records a ``solve`` builds behave as frozen value types.

Each compares equal by type and fields, hashes alike when equal (the two
that hold a dict are unhashable), refuses assignment and deletion with an
``AttributeError``, prints as ``Type(field=value, ...)``, takes its fields
by position or keyword, and survives ``copy`` and ``pickle``.
"""

import copy
import pickle

import pytest

from capforest import CapacityMap, Certificate, ColoredGraph, Forest, Found, Impossible
from capforest.instance_io import Instance

GRAPH_REPR = (
    "ColoredGraph(n=3, edges=(Edge(u=0, v=1, color='a'), Edge(u=1, v=2, color='a')), "
    "palette=frozenset({'a'}))"
)
FOREST_REPR = f"Forest(host={GRAPH_REPR}, members=(0,))"
CERTIFICATE_REPR = "Certificate(violating=frozenset({'a'}), omega_measured=3, bound=2)"


def graph():
    # a one-color palette keeps the frozenset repr independent of hash order
    return ColoredGraph(3, [(0, 1, "a"), (1, 2, "a")])


def forest():
    return Forest(graph(), (0,))


def certificate():
    return Certificate(frozenset({"a"}), 3, 2)


# name -> (build a value, build an equal one by keyword, build another, repr)
RECORDS = {
    "ColoredGraph": (
        graph,
        lambda: ColoredGraph(n=3, edges=((0, 1, "a"), (1, 2, "a")), palette={"a"}),
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
    "Found": (
        lambda: Found(forest()),
        lambda: Found(forest=forest()),
        lambda: Found(Forest(graph())),
        f"Found(forest={FOREST_REPR})",
    ),
    "Certificate": (
        certificate,
        lambda: Certificate(violating={"a"}, omega_measured=3, bound=2),
        lambda: Certificate(frozenset(), 3, 2),
        CERTIFICATE_REPR,
    ),
    "Impossible": (
        lambda: Impossible(certificate()),
        lambda: Impossible(certificate=certificate()),
        lambda: Impossible(Certificate(frozenset(), 3, 2)),
        f"Impossible(certificate={CERTIFICATE_REPR})",
    ),
    "Instance": (
        lambda: Instance(graph(), {"a": 1}, None),
        lambda: Instance(graph=graph(), capacities={"a": 1}, default_capacity=None),
        lambda: Instance(graph(), {"a": 1}, 0),
        f"Instance(graph={GRAPH_REPR}, capacities={{'a': 1}}, default_capacity=None)",
    ),
}
UNHASHABLE = {"CapacityMap", "Instance"}  # they hold a dict


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
