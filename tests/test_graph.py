import pytest
from hypothesis import given
from hypothesis import strategies as st

import helpers
from capforest import (
    CapacityMap,
    ColoredGraph,
    EmptyGraphError,
    Forest,
    GraphConstructionError,
    MissingCapacityError,
    PreconditionError,
    color_census,
    component_count,
    density_sufficient,
    oracle_condition,
)

PALETTE = ("a", "b", "c", "d")


def triangle():
    return ColoredGraph(3, [(0, 1, "a"), (1, 2, "b"), (2, 0, "c")])


def square_aabb():
    # 4-cycle 0-1-2-3-0; the two a-edges are opposite sides
    return ColoredGraph(4, [(0, 1, "a"), (1, 2, "b"), (2, 3, "a"), (3, 0, "b")])


@st.composite
def colored_graphs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = []
    if pairs:
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        colors = draw(
            st.lists(st.sampled_from(PALETTE), min_size=len(chosen), max_size=len(chosen))
        )
        edges = [(u, v, c) for (u, v), c in zip(chosen, colors)]
    return ColoredGraph(n, edges, palette=frozenset(PALETTE))


class TestConstruction:
    def test_rejects_loop(self):
        with pytest.raises(GraphConstructionError):
            ColoredGraph(3, [(1, 1, "a")])

    def test_rejects_duplicate_pair_either_orientation(self):
        with pytest.raises(GraphConstructionError):
            ColoredGraph(3, [(0, 1, "a"), (1, 0, "b")])

    def test_rejects_out_of_range_vertex(self):
        with pytest.raises(GraphConstructionError):
            ColoredGraph(2, [(0, 2, "a")])

    @pytest.mark.parametrize("u, v", [(0, 1.7), (1.0, 2), (True, 2), (0, "1")])
    def test_rejects_non_integer_vertex_ids(self, u, v):
        with pytest.raises(GraphConstructionError):
            ColoredGraph(3, [(u, v, "a")])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1, "a"), (1, 0, "b")], "duplicate edge {1,0}"),
            ([(0, 2, "a"), (0, 2, "a")], "duplicate edge {0,2}"),
            ([(1, 1, "a")], "loop at vertex 1"),
            ([(0, 3, "a")], "edge (0,3) out of range for n=3"),
            ([(-1, 0, "a")], "edge (-1,0) out of range for n=3"),
            ([(0, 1.0, "a")], "vertex ids must be integers, got (0,1.0)"),
            ([(True, 2, "a")], "vertex ids must be integers, got (True,2)"),
        ],
    )
    def test_rejection_messages(self, edges, message):
        with pytest.raises(GraphConstructionError) as info:
            ColoredGraph(3, edges)
        assert str(info.value) == message

    def test_every_pair_once_is_accepted(self):
        # the duplicate key min * n + max must not collide across pairs
        n = 7
        pairs = [(v, u, "a") for u in range(n) for v in range(u + 1, n)]
        assert len(ColoredGraph(n, pairs).edges) == n * (n - 1) // 2

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphConstructionError):
            ColoredGraph(-1)

    @pytest.mark.parametrize("n", [2.0, True, "2", None])
    def test_rejects_a_vertex_count_that_is_not_an_int(self, n):
        with pytest.raises(GraphConstructionError) as info:
            ColoredGraph(n)
        assert str(info.value) == f"vertex count must be an integer, got {n!r}"

    @pytest.mark.parametrize(
        "edge, reason",
        [
            ((0, 1), "not enough values to unpack (expected 3, got 2)"),
            ((0, 1, "a", "b"), "too many values to unpack (expected 3)"),
            (5, "cannot unpack non-iterable int object"),
        ],
        ids=["pair", "quadruple", "int"],
    )
    def test_rejects_an_edge_that_is_not_a_triple(self, edge, reason):
        with pytest.raises(GraphConstructionError) as info:
            ColoredGraph(2, [edge])
        assert str(info.value) == f"edges must be (u, v, color) triples: {reason}"

    def test_palette_is_union_of_declared_and_present(self):
        g = ColoredGraph(2, [(0, 1, "a")], palette=frozenset({"b"}))
        assert g.palette == {"a", "b"}

    def test_rejects_a_string_palette(self):
        # iterating "xy" would declare the colors "x" and "y"
        with pytest.raises(GraphConstructionError) as info:
            ColoredGraph(3, [(0, 1, "ab")], palette="xy")
        assert str(info.value) == "palette must not be a string: 'xy'"

    @pytest.mark.parametrize(
        "palette", [b"xy", bytearray(b"xy"), memoryview(b"xy")]
    )
    def test_rejects_a_bytes_palette(self, palette):
        # iterating b"xy" would declare the colors "120" and "121"
        with pytest.raises(GraphConstructionError) as info:
            ColoredGraph(3, [(0, 1, "ab")], palette=palette)
        assert str(info.value) == f"palette must not be bytes: {palette!r}"

    @pytest.mark.parametrize(
        "palette, kind", [(None, "NoneType"), (5, "int")]
    )
    def test_rejects_a_palette_that_is_not_iterable(self, palette, kind):
        with pytest.raises(GraphConstructionError) as info:
            ColoredGraph(3, [(0, 1, "ab")], palette=palette)
        assert str(info.value) == (
            f"palette must be an iterable of colors: '{kind}' object is not iterable"
        )

    def test_a_palette_may_be_any_iterable_of_colors(self):
        g = ColoredGraph(2, [(0, 1, "a")], palette=iter(["b", "c"]))
        assert g.palette == {"a", "b", "c"}

    def test_declared_palette_entries_become_strings(self):
        # as edge colors do; a mixed palette cannot be sorted
        g = ColoredGraph(2, [(0, 1, "a")], palette=frozenset({1}))
        assert g.palette == {"1", "a"}
        assert g.sorted_palette() == ["1", "a"]
        caps = CapacityMap.uniform(1)
        assert oracle_condition(g, caps, 1) is None
        assert density_sufficient(g, caps, 1).guaranteed

    def test_edge_order_preserved(self):
        edges = [(2, 0, "c"), (0, 1, "a")]
        g = ColoredGraph(3, edges)
        assert [(e.u, e.v, e.color) for e in g.edges] == edges


class TestComponentCount:
    def test_isolated_vertices(self):
        assert component_count(ColoredGraph(4)) == 4

    def test_path_is_connected(self):
        assert component_count(ColoredGraph(3, [(0, 1, "a"), (1, 2, "b")])) == 1

    def test_square_after_removing_opposite_sides(self):
        g = ColoredGraph(4, [(1, 2, "b"), (3, 0, "b")])  # square_aabb minus "a"
        assert component_count(g) == 2
        assert component_count(g) == helpers.bfs_component_count(g.n, g.edges)

    def test_zero_vertices_rejected(self):
        with pytest.raises(EmptyGraphError):
            component_count(ColoredGraph(0))


class TestColorCensus:
    def test_triangle(self):
        assert color_census(triangle()) == {"a": 1, "b": 1, "c": 1}

    def test_square(self):
        assert color_census(square_aabb()) == {"a": 2, "b": 2}

    def test_empty_graph(self):
        assert color_census(ColoredGraph(3)) == {}


class TestCapacityMap:
    def test_default_applies_to_unassigned(self):
        caps = CapacityMap({"a": 2}, default=1)
        assert caps.cap("a") == 2
        assert caps.cap("zzz") == 1

    def test_uniform(self):
        assert CapacityMap.uniform(1).cap("anything") == 1

    def test_bool_default_rejected(self):
        with pytest.raises(PreconditionError):
            CapacityMap(default=True)

    def test_negative_capacity_rejected(self):
        with pytest.raises(PreconditionError):
            CapacityMap({"a": -1})

    def test_missing_color_is_an_error_not_zero(self):
        with pytest.raises(MissingCapacityError):
            CapacityMap({"b": 1}).cap("a")

    def test_total(self):
        caps = CapacityMap({"a": 2, "b": 0}, default=5)
        assert caps.total(["a", "b", "x"]) == 7


class TestForest:
    def test_edge_count_plus_components_is_n(self):
        g = square_aabb()
        forest = Forest(g, (0, 1))
        assert forest.size + forest.num_components == g.n

    def test_cycle_rejected(self):
        with pytest.raises(PreconditionError):
            Forest(triangle(), (0, 1, 2))

    def test_duplicate_indices_rejected(self):
        with pytest.raises(PreconditionError):
            Forest(triangle(), (0, 0))

    @pytest.mark.parametrize("bad", [0.9, True, "1"])
    def test_rejects_non_integer_members(self, bad):
        with pytest.raises(PreconditionError) as info:
            Forest(triangle(), (0, bad))
        assert str(info.value) == (
            f"forest members must be integer edge indices, got {bad!r}"
        )

    def test_empty_forest_isolates_all_vertices(self):
        forest = Forest(triangle())
        assert forest.num_components == 3
        assert forest.color_counts() == {}

    def test_broken_partition_is_an_internal_error(self, monkeypatch):
        # the tiling check must raise, not assert, so it survives python -O
        from capforest import InternalSolverError, graph

        class NoMerge(graph.DisjointSet):
            def union(self, a, b):
                return True

        monkeypatch.setattr(graph, "DisjointSet", NoMerge)
        with pytest.raises(InternalSolverError):
            Forest(triangle(), (0,))

    def test_host_mismatch_detected(self):
        forest = Forest(triangle())
        with pytest.raises(PreconditionError):
            forest.require_host(square_aabb())


@given(colored_graphs())
def test_census_sums_to_edge_count(g):
    assert sum(color_census(g).values()) == len(g.edges)

