import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from capforest import (
    CapacityMap,
    ColoredGraph,
    Certificate,
    Forest,
    GenSpec,
    InternalSolverError,
    MissingCapacityError,
    PreconditionError,
    component_count,
    generate,
    maximize_forest,
    prune_to_components,
    solve,
)
from capforest import certificates, engine
from capforest.engine import (
    ExchangeGraph,
    _final_search,
    _path_to,
    augment_step,
    solve_every_target,
)
from capforest.instance_io import parse_capacity_file, parse_instance
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
    return ColoredGraph(n, edges), caps


def seeded_instances():
    for index in range(300):
        rng = random.Random(f"warm:{index}")
        yield f"warm:{index}", *sample_solver_instance(rng)
    for seed in range(8):
        yield f"gnp:{seed}", *gnp_instance(seed)
    # sparse rainbow graphs: augmenting paths of length 5 and 7
    for seed in range(5):
        g = generate(GenSpec(seed, 60, p=0.1, palette_size=60))
        yield f"rainbow:{seed}", g, CapacityMap.uniform(1)


def cold_start(g, caps):
    """Reference maximiser: augment from the empty forest to a fixpoint."""
    search = ExchangeGraph(caps, Forest(g))
    while (bigger := augment_step(search)) is not None:
        search = bigger
    return search.forest


def engine_run(g, caps):
    """Every result of the searches that ``maximize_forest`` runs, in order
    (an augmenting path, then None), and the forest it returns. The search
    is wrapped as ``tools/parity.py`` wraps it."""
    taken = []
    search = ExchangeGraph.shortest_augmenting_path

    def recorded(self):
        taken.append(search(self))
        return taken[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ExchangeGraph, "shortest_augmenting_path", recorded)
        forest = maximize_forest(g, caps)
    return taken, forest.members


def check_reference_paths(key, g, caps):
    """The solver takes the reference's paths, and certifies with its colors."""
    paths, members, reached = helpers.reference_paths(g, caps)
    taken, got = engine_run(g, caps)
    assert taken == [*paths, None], key
    assert list(got) == members, key
    if len(members) < g.n - 1:
        assert solve(g, caps, 1).violating == reached, key


@st.composite
def small_instances(draw, max_n=8, palette="abcd"):
    n = draw(st.integers(1, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    colors = draw(st.lists(st.sampled_from(palette), min_size=len(chosen), max_size=len(chosen)))
    caps = draw(st.fixed_dictionaries({c: st.integers(0, 3) for c in palette}))
    edges = [(u, v, c) for (u, v), c in zip(chosen, colors)]
    return ColoredGraph(n, edges), CapacityMap(caps)


class TestAugmentStep:
    def test_empty_forest_takes_first_addable_edge(self):
        g = path_ab()
        out = augment_step(ExchangeGraph(CapacityMap.uniform(1), Forest(g)))
        assert out is not None and out.forest.members == (0,)

    def test_saturated_color_blocks_growth(self):
        g = path_aa()
        search = ExchangeGraph(CapacityMap({"a": 1}), Forest(g, (0,)))
        assert augment_step(search) is None
        assert search.reached_colors is not None

    def test_exchange_through_saturated_color(self):
        g = square_aabb()
        caps = CapacityMap({"a": 1, "b": 2})
        out = augment_step(ExchangeGraph(caps, Forest(g, (0, 2))))
        assert out is not None and out.forest.size == 3
        assert helpers.brute_force_max_forest_size(g, caps) == 3

    def test_over_capacity_forest_rejected(self):
        g = path_aa()
        with pytest.raises(PreconditionError):
            ExchangeGraph(CapacityMap({"a": 1}), Forest(g, (0, 1)))

    def test_missing_budget_is_read_when_the_search_reaches_it(self):
        # b has no forest edge, so only the search asks for its budget
        search = ExchangeGraph(CapacityMap({"a": 1}), Forest(path_ab(), (0,)))
        assert search.sources == [1]
        with pytest.raises(MissingCapacityError, match="'b'"):
            search.shortest_augmenting_path()

    def test_sink_check_stops_at_its_first_sink(self):
        # source 3 expands the full color a to member 0, whose forest path
        # holds the sink 4; the budget of z, on the later inside edge 5, is
        # never read
        g = ColoredGraph(5, [(0, 1, "a"), (1, 2, "b"), (2, 3, "b"), (3, 4, "a"),
                             (0, 2, "s"), (0, 3, "z")])
        search = ExchangeGraph(CapacityMap({"a": 1, "b": 2, "s": 1}), Forest(g, (0, 1, 2)))
        assert search.shortest_augmenting_path() == [3, 0, 4]


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
            # swaps member 1 for outside edge 2: a valid forest that did not grow
            (triangle, CapacityMap.uniform(1), [1, 2],
             "augmentation produced an invalid forest"),
        ],
    )
    def test_bad_path_is_an_internal_error(
        self, monkeypatch, make_graph, caps, bad_path, message
    ):
        # the bad path once, then no path: only the step's checks can object
        paths = iter([list(bad_path)])
        monkeypatch.setattr(
            ExchangeGraph, "shortest_augmenting_path", lambda self: next(paths, None)
        )
        with pytest.raises(InternalSolverError) as info:
            solve(make_graph(), caps, 1)
        assert str(info.value) == message

    def test_parent_cycle_is_an_internal_error(self):
        # a search bug that leaves a parent cycle must not loop forever
        with pytest.raises(InternalSolverError, match="cycle above edge #0"):
            _path_to({0: 1, 1: 0}, 0)


class TestForestMaximumCheck:
    def test_search_that_gives_up_early_is_an_internal_error(self, monkeypatch):
        def give_up(search):
            search.reached_colors = frozenset()
            return None

        # the greedy forest (edges 0 and 2) leaves 3 components and the
        # exchange path 1, 0, 3 reaches 2; a search that gives up at once
        # claims no color reached, and the empty set alone would pass as a
        # certificate at m = 1, since 2 components > 1 + 0
        g = ColoredGraph(5, [(0, 1, "a"), (2, 3, "a"), (1, 2, "b"), (0, 2, "c")])
        caps = CapacityMap.uniform(1)
        assert maximize_forest(g, caps).members == (1, 2, 3)
        assert isinstance(solve(g, caps, 1), Certificate)
        monkeypatch.setattr(ExchangeGraph, "shortest_augmenting_path", give_up)
        with pytest.raises(InternalSolverError) as info:
            solve(g, caps, 1)
        assert str(info.value) == (
            "the forest is not maximum: 2 components without the reached "
            "colors, minus their budget 0, is not n - |F| = 3"
        )

    def test_found_target_is_proven_too(self, monkeypatch):
        def give_up(search):
            search.reached_colors = frozenset()
            return None

        # at m = 3 the greedy forest's two edges are enough, so only the
        # maximality proof can tell that the search gave up early
        g = ColoredGraph(5, [(0, 1, "a"), (2, 3, "a"), (1, 2, "b"), (0, 2, "c")])
        caps = CapacityMap.uniform(1)
        assert solve(g, caps, 3).members == (1, 2)
        monkeypatch.setattr(ExchangeGraph, "shortest_augmenting_path", give_up)
        with pytest.raises(InternalSolverError) as info:
            solve(g, caps, 3)
        assert str(info.value) == (
            "the forest is not maximum: 2 components without the reached "
            "colors, minus their budget 0, is not n - |F| = 3"
        )

    def test_proof_counts_once_per_maximisation(self, monkeypatch):
        counted = []

        def counting(g, without=frozenset()):
            counted.append(without)
            return component_count(g, without)

        monkeypatch.setattr(engine, "component_count", counting, raising=False)
        monkeypatch.setattr(certificates, "component_count", counting)
        # a spanning tree needs no proof
        assert isinstance(solve(triangle(), CapacityMap.uniform(1), 1), Forest)
        assert counted == []
        # one count for the star's one-edge forest, none per impossible target
        star = ColoredGraph(6, [(0, i, "a") for i in range(1, 6)])
        verdicts = list(solve_every_target(star, CapacityMap({"a": 1})))
        assert [isinstance(v, Certificate) for v in verdicts] == [True] * 4 + [False] * 2
        assert counted == [{"a"}]


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
        assert isinstance(verdict, Forest) and verdict.size == 0

    def test_edgeless_graph(self):
        g = ColoredGraph(4)
        caps = CapacityMap.uniform(1)
        assert maximize_forest(g, caps).members == ()
        assert isinstance(solve(g, caps, 4), Forest)
        verdict = solve(g, caps, 1)
        assert isinstance(verdict, Certificate)
        assert verdict.violating == set()
        assert verdict.omega_measured == 4


class TestReferencePaths:
    # the solver's augmenting paths equal those of the reference search in
    # tests/helpers.py, which states the tie-break rule once

    def test_seeded_instances(self):
        for key, g, caps in seeded_instances():
            check_reference_paths(key, g, caps)

    @settings(max_examples=150, deadline=None)
    @given(small_instances())
    def test_random_instances(self, instance):
        check_reference_paths("hypothesis", *instance)

    def test_searches_from_forests_no_augmentation_visits(self):
        # a random spanning forest less two edges, with its colors full and
        # a few spare colors outside it, so some searches run through swaps
        for seed in range(20):
            g, _ = gnp_instance(seed, n=40)
            rng = random.Random(f"spanning:{seed}")
            order = list(range(len(g.edges)))
            rng.shuffle(order)
            kept = []
            for i in order:
                try:
                    Forest(g, (*kept, i))
                except PreconditionError:
                    continue
                kept.append(i)
            forest = Forest(g, kept[2:])
            used = forest.color_counts()
            caps = CapacityMap(
                {c: used.get(c, int(rng.random() < 0.1)) for c in g.sorted_palette()}
            )
            path, _ = helpers.reference_search(g, caps, forest.members)
            got = ExchangeGraph(caps, forest).shortest_augmenting_path()
            assert got == path, f"spanning:{seed}"


class TestExchangeArcs:
    def test_few_colors_give_few_sources(self):
        # the impossible-fewcolor bench shape: about 24k edges on 8 colors
        g = generate(GenSpec(5, 400, p=0.3, palette_size=8))
        caps = CapacityMap({f"c{j}": 1 + j % 3 for j in range(8)})
        search = _final_search(g, caps)
        # every budget is used up, and no exchange helps
        assert search.forest.size == sum(1 + j % 3 for j in range(8))
        assert len(search.sources) <= 8
        assert search.reached_colors == {f"c{j}" for j in range(8)}


def every_target_equals_solve(key, g, caps):
    # Records compare by fields: the same forest members, or the same
    # violating colors, omega and bound
    expected = [solve(g, caps, m) for m in range(1, g.n + 1)]
    assert list(solve_every_target(g, caps)) == expected, key


class TestSolveEveryTarget:
    def test_seeded_instances(self):
        for key, g, caps in seeded_instances():
            every_target_equals_solve(key, g, caps)

    @settings(max_examples=150, deadline=None)
    @given(small_instances())
    def test_random_instances(self, instance):
        every_target_equals_solve("hypothesis", *instance)

    def test_one_maximisation_per_call(self, monkeypatch):
        calls = []
        real = engine._greedy_forest

        def greedy(g, caps):
            calls.append(g)
            return real(g, caps)

        monkeypatch.setattr(engine, "_greedy_forest", greedy)
        g, caps = gnp_instance(3)
        verdicts = list(solve_every_target(g, caps))
        assert len(verdicts) == g.n and len(calls) == 1
        assert any(isinstance(v, Forest) for v in verdicts)
        assert any(isinstance(v, Certificate) for v in verdicts)


class TestDualityAtScale:
    def test_final_search_colors_prove_the_forest_maximum(self):
        # Edmonds' min-max equality, at sizes the exhaustive oracles cannot
        # reach: the colors R that the final search reached leave exactly
        # n - |F| components once their edges are deleted and their budget
        # is spent, so no forest has fewer components than the solver's
        for index in range(400):
            rng = random.Random(f"duality:{index}")
            n, colors = rng.randint(30, 200), rng.randint(1, 8)
            p = rng.uniform(1, 8) / (n - 1)  # average degree 1-8
            g = generate(GenSpec(index, n, p=p, palette_size=colors))
            caps = CapacityMap({f"c{j}": rng.randint(0, n // colors) for j in range(colors)})
            search = _final_search(g, caps)
            reached = search.reached_colors
            assert component_count(g, reached) - caps.total(reached) == (
                n - search.forest.size
            ), f"duality:{index}"


class TestMemoryLaw:
    # tracemalloc's peak of one solve, after a warm-up solve, stays linear in
    # the edge count: no search may hold a pair per member and inside edge,
    # as the arc lists did on path and chords (1669 to 5928 bytes per edge)
    @pytest.mark.parametrize("name", ["chords-1000", "chords-2000", "chords-4000",
                                      "rainbow-600"])
    def test_peak_bytes_per_edge(self, case_files, name):
        inst, sidecar = case_files(name)
        g = parse_instance(inst.read_text()).graph
        caps = parse_capacity_file(sidecar.read_text())
        solve(g, caps, 1)
        tracemalloc.start()
        try:
            solve(g, caps, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 600 * len(g.edges), f"{peak / len(g.edges):.0f} B/edge"


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
        assert isinstance(verdict, Forest)
        forest = verdict
        assert forest.num_components == 1 and forest.size == 2
        assert len(forest.color_counts()) == 2

    def test_one_color_path_is_impossible(self):
        verdict = solve(path_aa(), CapacityMap({"a": 1}), 1)
        assert isinstance(verdict, Certificate)
        cert = verdict
        assert cert.violating == {"a"}
        assert cert.omega_measured == 3 and cert.bound == 2

    def test_square_two_components_one_edge_each_color(self):
        verdict = solve(square_aabb(), CapacityMap.uniform(1), 2)
        assert isinstance(verdict, Forest)
        assert verdict.color_counts() == {"a": 1, "b": 1}

    def test_target_equal_to_order_gives_empty_forest(self):
        verdict = solve(triangle(), CapacityMap.uniform(0), 3)
        assert isinstance(verdict, Forest)
        assert verdict.size == 0

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
                found = isinstance(solve(g, caps, m), Forest)
                assert not (found_somewhere and not found), f"mono-m:{index} m={m}"
                found_somewhere = found_somewhere or found

    def test_monotone_in_capacities(self):
        for index in range(40):
            rng = random.Random(f"mono-f:{index}")
            g, caps = sample_solver_instance(rng)
            bigger = CapacityMap(
                {c: caps.cap(c) + rng.randint(0, 2) for c in sorted(caps.assignments)}
            )
            for m in range(1, g.n + 1):
                if isinstance(solve(g, caps, m), Forest):
                    assert isinstance(solve(g, bigger, m), Forest), (
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
            found = isinstance(solve(g, CapacityMap.uniform(1), 1), Forest)
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
            found = isinstance(solve(g, CapacityMap.uniform(1), 1), Forest)
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
                if not isinstance(verdict, Forest):
                    continue
                forest = verdict
                assert forest.num_components == m
                chosen = [g.edges[i] for i in forest.members]
                assert helpers.is_acyclic(g.n, chosen)
                assert helpers.within_capacities(chosen, caps)

