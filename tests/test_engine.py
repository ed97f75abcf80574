import random

import pytest

import helpers
from capforest import (
    CapacityMap,
    ColoredGraph,
    Forest,
    Found,
    Impossible,
    InternalSolverError,
    PreconditionError,
    augment_step,
    maximize_forest,
    prune_to_components,
    solve,
)
from capforest.engine import ExchangeGraph
from capforest.sweeps import sample_solver_instance


def path_ab():
    return ColoredGraph(3, [(0, 1, "a"), (1, 2, "b")])


def path_aa():
    return ColoredGraph(3, [(0, 1, "a"), (1, 2, "a")])


def triangle():
    return ColoredGraph(3, [(0, 1, "a"), (1, 2, "b"), (2, 0, "c")])


def square_aabb():
    return ColoredGraph(4, [(0, 1, "a"), (1, 2, "a"), (2, 3, "b"), (3, 0, "b")])


def gnp_instance(seed, n=30):
    """Shuffled G(n, p), about one color per vertex with budgets 1 or 2, so
    the greedy forest mostly falls short and exchanges are needed."""
    rng = random.Random(f"gnp:{seed}")
    p = rng.uniform(0.1, 0.4)
    palette = [f"c{j}" for j in range(rng.randint(n // 2, n + 5))]
    edges = [
        (u, v, rng.choice(palette))
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    rng.shuffle(edges)
    caps = CapacityMap({c: rng.randint(1, 2) for c in palette})
    return ColoredGraph(n, edges, palette=frozenset(palette)), caps


def seeded_instances():
    for index in range(300):
        rng = random.Random(f"warm:{index}")
        yield f"warm:{index}", *sample_solver_instance(rng)
    for seed in range(8):
        yield f"gnp:{seed}", *gnp_instance(seed)


def cold_start(g, caps):
    """Reference maximiser: augment from the empty forest to a fixpoint."""
    forest = Forest(g)
    while (bigger := augment_step(g, caps, forest)) is not None:
        forest = bigger
    return forest


def forest_path_arcs(g, forest):
    """Member -> inside edges whose forest path uses it, by union-find.

    Member ``m`` lies on the forest path of inside edge ``(u, v)`` exactly
    when ``u`` and ``v`` fall into different components of the forest
    without ``m``.
    """

    def labels(kept):
        parent = list(range(g.n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in kept:
            e = g.edges[i]
            parent[find(e.u)] = find(e.v)
        return [find(v) for v in range(g.n)]

    members = set(forest.members)
    whole = labels(members)
    inside = [
        i
        for i, e in enumerate(g.edges)
        if i not in members and whole[e.u] == whole[e.v]
    ]
    arcs = {}
    for m in members:
        cut = labels(members - {m})
        arcs[m] = [i for i in inside if cut[g.edges[i].u] != cut[g.edges[i].v]]
    return arcs


class TestAugmentStep:
    def test_empty_forest_takes_first_addable_edge(self):
        g = path_ab()
        out = augment_step(g, CapacityMap.uniform(1), Forest(g))
        assert out is not None and out.members == (0,)

    def test_saturated_color_blocks_growth(self):
        g = path_aa()
        out = augment_step(g, CapacityMap({"a": 1}), Forest(g, (0,)))
        assert out is None

    def test_exchange_through_saturated_color(self):
        g = square_aabb()
        caps = CapacityMap({"a": 1, "b": 2})
        out = augment_step(g, caps, Forest(g, (0, 2)))
        assert out is not None and out.size == 3
        assert helpers.brute_force_max_forest_size(g, caps) == 3

    def test_over_capacity_forest_rejected(self):
        g = path_aa()
        with pytest.raises(PreconditionError):
            augment_step(g, CapacityMap({"a": 1}), Forest(g, (0, 1)))

    def test_foreign_forest_rejected(self):
        with pytest.raises(PreconditionError):
            augment_step(path_ab(), CapacityMap.uniform(1), Forest(triangle()))


class TestStepSelfChecks:
    # a search that hands back a bad path must be caught by the step's own
    # checks, never turned into a verdict
    @pytest.mark.parametrize(
        "make_graph, caps, bad_path, message",
        [
            (triangle, CapacityMap.uniform(1), [2],
             "augmentation broke acyclicity: edge #2 (2,0) closes a cycle"),
            (path_aa, CapacityMap({"a": 1}), [1],
             "augmentation produced an invalid forest"),
            (path_aa, CapacityMap({"a": 1}), [0],
             "augmentation produced an invalid forest"),
        ],
    )
    def test_bad_path_is_an_internal_error(
        self, monkeypatch, make_graph, caps, bad_path, message
    ):
        monkeypatch.setattr(
            ExchangeGraph, "shortest_augmenting_path", lambda self: list(bad_path)
        )
        with pytest.raises(InternalSolverError) as info:
            solve(make_graph(), caps, 1)
        assert str(info.value) == message


class TestMaximizeForest:
    def test_triangle_all_distinct(self):
        forest = maximize_forest(triangle(), CapacityMap.uniform(1))
        assert forest.size == 2 and forest.num_components == 1

    def test_one_color_path(self):
        forest = maximize_forest(path_aa(), CapacityMap({"a": 1}))
        assert forest.size == 1 and forest.num_components == 2

    def test_square_with_unit_budgets(self):
        g = square_aabb()
        caps = CapacityMap.uniform(1)
        forest = maximize_forest(g, caps)
        assert forest.size == 2
        assert forest.size == helpers.brute_force_max_forest_size(g, caps)

    def test_matches_brute_force_on_random_instances(self):
        for index in range(80):
            rng = random.Random(f"maxcheck:{index}")
            g, caps = sample_solver_instance(rng, max_n=7, max_edges=12)
            got = maximize_forest(g, caps).size
            assert got == helpers.brute_force_max_forest_size(g, caps), (
                f"maxcheck:{index}"
            )

    def test_min_max_identity_on_random_instances(self):
        for index in range(80):
            rng = random.Random(f"minmax:{index}")
            g, caps = sample_solver_instance(rng, max_n=7, max_edges=12)
            assert maximize_forest(g, caps).size == helpers.min_max_bound(g, caps), (
                f"minmax:{index}"
            )


class TestWarmStart:
    def test_equals_cold_start(self):
        for key, g, caps in seeded_instances():
            assert maximize_forest(g, caps).members == cold_start(g, caps).members, key

    def test_zero_budget_color_is_never_used(self):
        # a banned color never enters the forest, even on the first edge
        g = ColoredGraph(3, [(0, 1, "z"), (0, 2, "a"), (1, 2, "b")])
        caps = CapacityMap({"z": 0, "a": 1, "b": 1})
        forest = maximize_forest(g, caps)
        assert forest.members == (1, 2)
        assert forest.members == cold_start(g, caps).members

    def test_single_vertex(self):
        g = ColoredGraph(1)
        assert maximize_forest(g, CapacityMap.uniform(1)).members == ()
        verdict = solve(g, CapacityMap.uniform(1), 1)
        assert isinstance(verdict, Found) and verdict.forest.size == 0

    def test_edgeless_graph(self):
        g = ColoredGraph(4)
        caps = CapacityMap.uniform(1)
        assert maximize_forest(g, caps).members == ()
        assert isinstance(solve(g, caps, 4), Found)
        verdict = solve(g, caps, 1)
        assert isinstance(verdict, Impossible)
        assert verdict.certificate.violating == set()
        assert verdict.certificate.omega_measured == 4


class TestExchangeArcs:
    def check(self, key, g, caps, forest):
        graph = ExchangeGraph(g, caps, forest)
        # the search scans its first layer in this order, without sorting
        assert graph.sources == sorted(graph.sources), key
        for m, expected in forest_path_arcs(g, forest).items():
            assert sorted(graph._neighbors(m)) == expected, (key, m)

    def test_arcs_match_union_find_oracle_along_augmentation(self):
        for key, g, caps in seeded_instances():
            forest = Forest(g)
            while forest is not None:
                self.check(key, g, caps, forest)
                forest = augment_step(g, caps, forest)

    def test_arcs_on_random_spanning_forests(self):
        # forests that no augmentation run visits, with budgets that never bind
        caps = CapacityMap.uniform(10**6)
        for seed in range(10):
            g, _ = gnp_instance(seed, n=40)
            rng = random.Random(f"spanning:{seed}")
            order = list(range(len(g.edges)))
            rng.shuffle(order)
            kept, forest = [], Forest(g)
            for i in order[: rng.randint(0, len(g.edges))]:
                try:
                    forest = Forest(g, (*kept, i))
                except PreconditionError:
                    continue
                kept.append(i)
            self.check(f"spanning:{seed}", g, caps, forest)


class TestPrune:
    def test_spanning_tree_down_to_three_parts(self):
        g = ColoredGraph(4, [(0, 1, "a"), (1, 2, "b"), (2, 3, "c"), (3, 0, "d")])
        tree = Forest(g, (0, 1, 2))
        pruned = prune_to_components(tree, 3)
        assert pruned.size == 1 and pruned.num_components == 3

    def test_identity_when_already_at_target(self):
        forest = Forest(triangle(), (0, 1))
        assert prune_to_components(forest, 1) is forest

    def test_drops_highest_indices_first(self):
        g = ColoredGraph(4, [(0, 1, "a"), (1, 2, "b"), (2, 3, "c")])
        pruned = prune_to_components(Forest(g, (0, 1, 2)), 2)
        assert pruned.members == (0, 1)

    def test_pruning_preserves_capacities(self):
        g = square_aabb()
        caps = CapacityMap({"a": 1, "b": 2})
        forest = maximize_forest(g, caps)
        pruned = prune_to_components(forest, 2)
        assert all(
            count <= caps.cap(color) for color, count in pruned.color_counts().items()
        )

    def test_cannot_prune_upward(self):
        with pytest.raises(PreconditionError):
            prune_to_components(Forest(triangle()), 1)

    def test_target_out_of_range(self):
        with pytest.raises(PreconditionError):
            prune_to_components(Forest(triangle()), 4)


class TestSolve:
    def test_triangle_has_all_distinct_spanning_tree(self):
        verdict = solve(triangle(), CapacityMap.uniform(1), 1)
        assert isinstance(verdict, Found)
        forest = verdict.forest
        assert forest.num_components == 1 and forest.size == 2
        assert len(forest.color_counts()) == 2

    def test_one_color_path_is_impossible(self):
        verdict = solve(path_aa(), CapacityMap({"a": 1}), 1)
        assert isinstance(verdict, Impossible)
        cert = verdict.certificate
        assert cert.violating == {"a"}
        assert cert.omega_measured == 3 and cert.bound == 2

    def test_square_two_components_one_edge_each_color(self):
        verdict = solve(square_aabb(), CapacityMap.uniform(1), 2)
        assert isinstance(verdict, Found)
        assert verdict.forest.color_counts() == {"a": 1, "b": 1}

    def test_target_equal_to_order_gives_empty_forest(self):
        verdict = solve(triangle(), CapacityMap.uniform(0), 3)
        assert isinstance(verdict, Found)
        assert verdict.forest.size == 0

    def test_target_out_of_range(self):
        with pytest.raises(PreconditionError):
            solve(triangle(), CapacityMap.uniform(1), 0)
        with pytest.raises(PreconditionError):
            solve(triangle(), CapacityMap.uniform(1), 4)

    def test_monotone_in_target_components(self):
        for index in range(40):
            rng = random.Random(f"mono-m:{index}")
            g, caps = sample_solver_instance(rng)
            found_somewhere = False
            for m in range(1, g.n + 1):
                found = isinstance(solve(g, caps, m), Found)
                assert not (found_somewhere and not found), f"mono-m:{index} m={m}"
                found_somewhere = found_somewhere or found

    def test_monotone_in_capacities(self):
        for index in range(40):
            rng = random.Random(f"mono-f:{index}")
            g, caps = sample_solver_instance(rng)
            bigger = CapacityMap(
                {c: caps.cap(c) + rng.randint(0, 2) for c in sorted(g.palette)}
            )
            for m in range(1, g.n + 1):
                if isinstance(solve(g, caps, m), Found):
                    assert isinstance(solve(g, bigger, m), Found), (
                        f"mono-f:{index} m={m}"
                    )

    def test_unit_budget_matches_rainbow_tree_criterion(self):
        # connected graphs, all budgets 1, one component: the solver must
        # agree with the brute-force distinct-colors criterion
        checked = 0
        for index in range(150):
            rng = random.Random(f"rainbow:{index}")
            g, _ = sample_solver_instance(rng, max_n=6, max_edges=10, max_palette=4)
            if g.n == 0 or helpers.bfs_component_count(g.n, g.edges) != 1:
                continue
            checked += 1
            found = isinstance(solve(g, CapacityMap.uniform(1), 1), Found)
            assert found == helpers.rainbow_tree_condition(g), f"rainbow:{index}"
        assert checked >= 30

    def test_unit_budget_matches_partition_criterion(self):
        # same question in partition form: every split of the vertices into
        # t blocks must be crossed by >= t-1 distinct colors
        checked = 0
        for index in range(120):
            rng = random.Random(f"partition:{index}")
            g, _ = sample_solver_instance(rng, max_n=6, max_edges=10, max_palette=4)
            if g.n == 0 or helpers.bfs_component_count(g.n, g.edges) != 1:
                continue
            checked += 1
            found = isinstance(solve(g, CapacityMap.uniform(1), 1), Found)
            assert found == helpers.rainbow_tree_partition_condition(g), (
                f"partition:{index}"
            )
        assert checked >= 25

    def test_found_forests_satisfy_the_full_contract(self):
        for index in range(60):
            rng = random.Random(f"contract:{index}")
            g, caps = sample_solver_instance(rng)
            for m in range(1, g.n + 1):
                verdict = solve(g, caps, m)
                if not isinstance(verdict, Found):
                    continue
                forest = verdict.forest
                assert forest.num_components == m
                chosen = [g.edges[i] for i in forest.members]
                assert helpers.is_acyclic(g.n, chosen)
                assert helpers.within_capacities(chosen, caps)

