"""Each input rule is checked by one function, so every entry point that
takes a vertex count, a component target, a color set or a capacity refuses
the same values with the same message."""

import pytest

from capforest import (
    CapacityMap,
    Certificate,
    ColoredGraph,
    EmptyGraphError,
    Forest,
    GenSpec,
    GraphConstructionError,
    PreconditionError,
    density_sufficient,
    evaluate_condition,
    generate,
    max_edges_for_components,
    oracle_condition,
    prune_to_components,
    solve,
)
from capforest.graph import check_component_target, check_vertex_count

CAPS = CapacityMap.uniform(1)


def prune_spanning(g: ColoredGraph, m):
    return prune_to_components(Forest(g, range(len(g.edges))), m)


# name -> (call with a graph and a target, largest valid target minus n);
# the rule's own function is a row too, so its ``below_n`` form is checked
# apart from the one entry point that uses it
ENTRY_POINTS = {
    "check_component_target": (
        lambda g, m: check_component_target(g.n, m, below_n=True),
        -1,
    ),
    "solve": (lambda g, m: solve(g, CAPS, m), 0),
    "prune_to_components": (prune_spanning, 0),
    "evaluate_condition": (lambda g, m: evaluate_condition(g, CAPS, m, []), 0),
    "oracle_condition": (lambda g, m: oracle_condition(g, CAPS, m), 0),
    "max_edges_for_components": (lambda g, m: max_edges_for_components(g.n, m), 0),
    "density_sufficient": (lambda g, m: density_sufficient(g, CAPS, m), -1),
}


def red_blue_path() -> ColoredGraph:
    return ColoredGraph(3, [(0, 1, "red"), (1, 2, "blue")])


# name -> (call with a vertex count, the error type it refuses a bad one with)
VERTEX_COUNT_ENTRY_POINTS = {
    "check_vertex_count": (check_vertex_count, PreconditionError),
    "ColoredGraph": (ColoredGraph, GraphConstructionError),
    "generate": (
        lambda n: generate(GenSpec(0, n, p=0.5, palette_size=2)),
        PreconditionError,
    ),
    "max_edges_for_components": (
        lambda n: max_edges_for_components(n, 1),
        PreconditionError,
    ),
}


class TestVertexCount:
    @pytest.mark.parametrize("name", sorted(VERTEX_COUNT_ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [2.5, True, "5", None])
    def test_non_integer_refused(self, name, bad):
        call, error = VERTEX_COUNT_ENTRY_POINTS[name]
        with pytest.raises(error) as info:
            call(bad)
        assert type(info.value) is error
        assert str(info.value) == f"vertex count must be an integer, got {bad!r}"

    @pytest.mark.parametrize("name", sorted(VERTEX_COUNT_ENTRY_POINTS))
    @pytest.mark.parametrize("bad", [-1, -3])
    def test_negative_refused(self, name, bad):
        call, error = VERTEX_COUNT_ENTRY_POINTS[name]
        with pytest.raises(error) as info:
            call(bad)
        assert type(info.value) is error
        assert str(info.value) == "vertex count must be non-negative"

    @pytest.mark.parametrize("name", sorted(VERTEX_COUNT_ENTRY_POINTS))
    def test_two_vertices_accepted(self, name):
        call, _ = VERTEX_COUNT_ENTRY_POINTS[name]
        call(2)


class TestComponentTarget:
    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("bad", ["zero", "above", 2.0, True, "1"])
    def test_refused_with_one_message(self, name, bad):
        call, offset = ENTRY_POINTS[name]
        g = red_blue_path()
        top = g.n + offset
        target = {"zero": 0, "above": top + 1}.get(bad, bad)
        with pytest.raises(PreconditionError) as info:
            call(g, target)
        assert type(info.value) is PreconditionError
        message = f"component count must be in 1..{top}, got {target}"
        assert str(info.value) == message

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    def test_both_ends_accepted(self, name):
        call, offset = ENTRY_POINTS[name]
        g = red_blue_path()
        call(g, 1)
        call(g, g.n + offset)

    @pytest.mark.parametrize(
        "name", sorted(name for name, (_, offset) in ENTRY_POINTS.items() if offset)
    )
    @pytest.mark.parametrize("target", [1, 0, 2.0])
    def test_one_vertex_allows_no_target_below_n(self, name, target):
        # the range 1..n-1 is empty, so the message names no range
        call, _ = ENTRY_POINTS[name]
        with pytest.raises(PreconditionError) as info:
            call(ColoredGraph(1), target)
        assert type(info.value) is PreconditionError
        message = f"no component count is allowed when n = 1, got {target}"
        assert str(info.value) == message

    @pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
    @pytest.mark.parametrize("target", [1, 0, 2.0])
    def test_zero_vertices(self, name, target):
        call, _ = ENTRY_POINTS[name]
        with pytest.raises(EmptyGraphError) as info:
            call(ColoredGraph(0), target)
        assert str(info.value) == "component count is undefined on zero vertices"

    def test_empty_graph_error_is_a_precondition_error(self):
        assert issubclass(EmptyGraphError, PreconditionError)
        with pytest.raises(PreconditionError):
            solve(ColoredGraph(0), CAPS, 1)


class TestColorSet:
    @pytest.mark.parametrize(
        "colors, message",
        [
            ("red", "color set must not be a string: 'red'"),
            (b"red", "color set must not be bytes: b'red'"),
            (bytearray(b"red"), "color set must not be bytes: bytearray(b'red')"),
            (
                None,
                "color set must be an iterable of colors: "
                "'NoneType' object is not iterable",
            ),
        ],
    )
    def test_evaluate_condition_refuses(self, colors, message):
        with pytest.raises(PreconditionError) as info:
            evaluate_condition(red_blue_path(), CAPS, 1, colors)
        assert str(info.value) == message

    def test_a_list_of_one_color(self):
        assert evaluate_condition(red_blue_path(), CAPS, 1, ["red"]) == (2, 2)

    def test_colors_are_turned_into_strings(self):
        g = ColoredGraph(3, [(0, 1, "1"), (1, 2, "2")])
        assert evaluate_condition(g, CAPS, 1, [1]) == (2, 2)

    def test_certificate_refuses_a_string(self):
        with pytest.raises(PreconditionError) as info:
            Certificate("red", 3, 2)
        assert str(info.value) == "color set must not be a string: 'red'"

    def test_certificate_keeps_a_set(self):
        assert Certificate(["red", "blue"], 3, 2).violating == {"red", "blue"}


class TestCapacityValue:
    @pytest.mark.parametrize("bad", [-1, 1.0, True, "1", None])
    def test_assignment_refused(self, bad):
        with pytest.raises(PreconditionError) as info:
            CapacityMap({"a": 1, "b": bad})
        message = "capacity for color 'b' must be a non-negative integer"
        assert str(info.value) == message

    @pytest.mark.parametrize("bad", [-1, 1.0, True, "1"])
    def test_default_refused(self, bad):
        with pytest.raises(PreconditionError) as info:
            CapacityMap({"a": 1}, default=bad)
        assert str(info.value) == "default capacity must be a non-negative integer"

    def test_assignments_are_checked_before_the_default(self):
        with pytest.raises(PreconditionError, match="color 'a'"):
            CapacityMap({"a": -1}, default=-1)

    def test_zero_is_a_capacity(self):
        caps = CapacityMap({1: 0}, default=0)
        assert caps.assignments == {"1": 0}
        assert caps.cap("x") == 0
