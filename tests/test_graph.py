import random

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
from capforest.graph import DisjointSet
from capforest.sweeps import sample_solver_instance

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
    return ColoredGraph(n, edges)


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
        "n, edges, message",
        [
            (3, [(0, 1, "a"), (1, 0, "b")], "duplicate edge {1,0}"),
            (3, [(0, 2, "a"), (0, 2, "a")], "duplicate edge {0,2}"),
            (3, [(1, 1, "a")], "loop at vertex 1"),
            (3, [(0, 3, "a")], "vertex out of range 0..2"),
            (3, [(-1, 0, "a")], "vertex out of range 0..2"),
            (3, [(0, 1.0, "a")], "vertex ids must be integers, got (0,1.0)"),
            (3, [(True, 2, "a")], "vertex ids must be integers, got (True,2)"),
            (0, [(0, 1, "a")], "vertex out of range: the graph has no vertices"),
        ],
        # fixed ids, so that editing a message renames no test
        ids=[
            "edges0-duplicate edge {1,0}",
            "edges1-duplicate edge {0,2}",
            "edges2-loop at vertex 1",
            "edges3-vertex out of range 0..2",
            "edges4-vertex out of range 0..2",
            "edges5-vertex ids must be integers, got (0,1.0)",
            "edges6-vertex ids must be integers, got (True,2)",
            "edges7-vertex out of range: the graph has no vertices",
        ],
    )
    def test_rejection_messages(self, n, edges, message):
        with pytest.raises(GraphConstructionError) as info:
            ColoredGraph(n, edges)
        assert str(info.value) == message
        # the offending edge is the last one of each case
        assert info.value.index == len(edges) - 1

    @pytest.mark.parametrize(
        "edges, index, message",
        [
            ([(0, 1, "a"), (1, 1, "b"), (0, 5, "c")], 1, "loop at vertex 1"),
            ([(0, 1, "a"), (0, 5, "b"), (1, 1, "c")], 1, "vertex out of range 0..2"),
            (
                [(0, 1, "a"), (2, 1, "b"), (1, 2, "c"), (0, 9, "d")],
                2,
                "duplicate edge {1,2}",
            ),
            (
                [(1, 0, "a"), (0, 2.0, "b"), (0, 1, "c")],
                1,
                "vertex ids must be integers, got (0,2.0)",
            ),
        ],
    )
    def test_the_first_faulty_edge_is_reported(self, edges, index, message):
        with pytest.raises(GraphConstructionError) as info:
            ColoredGraph(3, edges)
        assert (info.value.index, str(info.value)) == (index, message)

    def test_every_pair_once_is_accepted(self):
        # the duplicate key min * n + max must not collide across pairs
        n = 7
        pairs = [(v, u, "a") for u in range(n) for v in range(u + 1, n)]
        assert len(ColoredGraph(n, pairs).edges) == n * (n - 1) // 2

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphConstructionError) as info:
            ColoredGraph(-1)
        assert info.value.index is None

    @pytest.mark.parametrize("n", [2.0, True, "2", None])
    def test_rejects_a_vertex_count_that_is_not_an_int(self, n):
        with pytest.raises(GraphConstructionError) as info:
            ColoredGraph(n)
        assert str(info.value) == f"vertex count must be an integer, got {n!r}"
        assert info.value.index is None

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
        assert info.value.index is None

    def test_palette_is_the_edge_colors(self):
        g = ColoredGraph(3, [(0, 1, "b"), (1, 2, "a")])
        assert g.palette == {"a", "b"}
        assert ColoredGraph.__slots__ == ("n", "edges")
        with pytest.raises(TypeError):
            ColoredGraph(2, [(0, 1, "a")], palette={"c"})

    def test_palette_entries_become_strings(self):
        # edge colors are turned into strings; a mixed palette cannot be sorted
        g = ColoredGraph(3, [(0, 1, "a"), (1, 2, 1)])
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
        with pytest.raises(EmptyGraphError) as info:
            component_count(ColoredGraph(0))
        assert str(info.value) == "component count is undefined on zero vertices"

    def test_matches_breadth_first_count_without_colors(self):
        # "absent" and "c9" are never in a sampled palette (c0..c4)
        for index in range(200):
            rng = random.Random(f"without:{index}")
            g, _ = sample_solver_instance(rng)
            assert component_count(g) == helpers.bfs_component_count(g.n, g.edges)
            candidates = [*sorted(g.palette), "absent", "c9"]
            for _ in range(5):
                without = {c for c in candidates if rng.random() < 0.4}
                expected = helpers.components_without_colors(g, without)
                assert component_count(g, without) == expected, (index, without)


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

    def test_total_names_the_smallest_missing_color(self):
        with pytest.raises(MissingCapacityError, match="'a'"):
            CapacityMap({"c": 1}).total(["d", "c", "b", "a"])

    @pytest.mark.parametrize("caps", [{"1": 1, 1: 2}, {1: 2, "1": 2}])
    def test_two_keys_of_one_color_refused(self, caps):
        # both keys become the color "1"; neither budget may silently win
        with pytest.raises(PreconditionError) as info:
            CapacityMap(caps)
        assert type(info.value) is PreconditionError
        assert str(info.value) == "duplicate capacity for color '1'"


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

    def test_index_out_of_range_rejected(self):
        with pytest.raises(PreconditionError) as info:
            Forest(triangle(), (5,))
        assert str(info.value) == "edge index 5 out of range"

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


@st.composite
def union_runs(draw, max_n=12):
    """A vertex count and a mixed run of ``("union", a, b)`` and ``("rewind",)``."""
    n = draw(st.integers(1, max_n))
    vertex = st.integers(0, n - 1)
    union = st.tuples(st.just("union"), vertex, vertex)
    ops = draw(st.lists(st.one_of(union, st.just(("rewind",))), max_size=40))
    return n, ops


def climb(dsu, x):
    """Steps ``find(x)`` takes to reach its root."""
    steps = 0
    while dsu.parent[x] != x:
        x, steps = dsu.parent[x], steps + 1
    return steps


class TestDisjointSet:
    @given(union_runs())
    def test_union_is_false_exactly_when_already_joined(self, run):
        n, ops = run
        dsu = DisjointSet(n)
        for op in ops:
            if op[0] == "union":
                joined = dsu.find(op[1]) == dsu.find(op[2])
                assert dsu.union(op[1], op[2]) is not joined
            elif dsu.components < n:
                dsu.rewind()

    @given(union_runs())
    def test_rewind_restores_the_state_before_the_latest_union(self, run):
        n, ops = run
        dsu = DisjointSet(n)
        before = []  # snapshot taken before each union not yet undone
        for op in ops:
            state = (list(dsu.parent), list(dsu.size), dsu.components)
            if op[0] == "union":
                if dsu.union(op[1], op[2]):
                    before.append(state)
                else:
                    assert (dsu.parent, dsu.size, dsu.components) == state
            elif before:
                dsu.rewind()
                assert (dsu.parent, dsu.size, dsu.components) == before.pop()
            else:
                with pytest.raises(IndexError):
                    dsu.rewind()
                assert (dsu.parent, dsu.size, dsu.components) == state
        while before:
            dsu.rewind()
            assert (dsu.parent, dsu.size, dsu.components) == before.pop()
        assert (dsu.parent, dsu.size, dsu.components) == (list(range(n)), [1] * n, n)

    @given(union_runs(max_n=64))
    def test_find_climbs_at_most_log2_n_steps(self, run):
        n, ops = run
        dsu = DisjointSet(n)
        for op in ops:
            if op[0] == "union":
                dsu.union(op[1], op[2])
            elif dsu.components < n:
                dsu.rewind()
            # a root of height h holds at least 2 ** h vertices
            assert all(2 ** climb(dsu, x) <= dsu.size[dsu.find(x)] <= n for x in range(n))


@given(colored_graphs())
def test_census_sums_to_edge_count(g):
    assert sum(color_census(g).values()) == len(g.edges)

