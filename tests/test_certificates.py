import random

import pytest

import helpers
from capforest import (
    CapacityMap,
    Certificate,
    ColoredGraph,
    EmptyGraphError,
    Forest,
    Found,
    Impossible,
    InternalSolverError,
    OracleLimitError,
    PreconditionError,
    evaluate_condition,
    extract_certificate,
    maximize_forest,
    oracle_condition,
    oracle_forest_search,
    solve,
    sweeps,
)
from capforest.certificates import oracle_fewest_components, oracle_largest_forest
from capforest.engine import ExchangeGraph
from capforest.sweeps import sample_solver_instance


def path_aa():
    return ColoredGraph(3, [(0, 1, "a"), (1, 2, "a")])


def triangle():
    return ColoredGraph(3, [(0, 1, "a"), (1, 2, "b"), (2, 0, "c")])


def square_aabb():
    return ColoredGraph(4, [(0, 1, "a"), (1, 2, "a"), (2, 3, "b"), (3, 0, "b")])


def final_search(g, caps):
    """The failed search on a maximum forest, as ``solve`` hands it over."""
    search = ExchangeGraph(g, caps, maximize_forest(g, caps))
    assert search.shortest_augmenting_path() is None
    return search


class TestExtractCertificate:
    def test_two_step_peel_on_one_color_path(self):
        g = path_aa()
        caps = CapacityMap({"a": 1})
        cert = extract_certificate(final_search(g, caps), 1)
        assert cert.violating == {"a"}
        assert cert.omega_measured == 3 and cert.bound == 2

    def test_square_peels_both_colors(self):
        g = square_aabb()
        caps = CapacityMap.uniform(1)
        cert = extract_certificate(final_search(g, caps), 1)
        assert cert.violating == {"a", "b"}
        assert cert.omega_measured == 4 and cert.bound == 3
        # brute force: {a, b} is the only violating subset on this instance
        violators = [
            set(subset)
            for subset in helpers.all_color_subsets(g.palette)
            if helpers.components_without_colors(g, subset)
            > 1 + sum(caps.cap(c) for c in subset)
        ]
        assert violators == [{"a", "b"}]

    def test_disconnected_graph_yields_empty_color_set(self):
        g = ColoredGraph(3, [(0, 1, "a")])
        caps = CapacityMap({"a": 1})
        cert = extract_certificate(final_search(g, caps), 1)
        assert cert.violating == frozenset()
        assert cert.omega_measured == 2 and cert.bound == 1

    def test_rejects_non_maximum_forest(self):
        g = square_aabb()
        caps = CapacityMap({"a": 1, "b": 1})
        search = ExchangeGraph(g, caps, Forest(g))
        assert search.shortest_augmenting_path() is not None
        with pytest.raises(PreconditionError):
            extract_certificate(search, 1)

    def test_rejects_search_that_never_ran(self):
        g = path_aa()
        caps = CapacityMap({"a": 1})
        search = ExchangeGraph(g, caps, maximize_forest(g, caps))
        with pytest.raises(PreconditionError):
            extract_certificate(search, 1)

    def test_rejects_forest_that_already_reaches_target(self):
        g = triangle()
        caps = CapacityMap.uniform(1)
        with pytest.raises(PreconditionError):
            extract_certificate(final_search(g, caps), 1)

    def test_bound_comes_from_the_search_budgets(self):
        g = path_aa()
        for cap in range(2):
            search = final_search(g, CapacityMap({"a": cap}))
            cert = extract_certificate(search, 1)
            assert cert.violating == {"a"}
            assert cert.omega_measured == 3 and cert.bound == 1 + cap
            assert cert.bound == 1 + search.caps.total(cert.violating)

    def test_impossible_solve_builds_one_exchange_graph_per_augmentation_plus_one(
        self, monkeypatch
    ):
        builds, paths = [], []
        build = ExchangeGraph.__init__
        search = ExchangeGraph.shortest_augmenting_path

        def counted_build(self, *args):
            builds.append(1)
            build(self, *args)

        def counted_search(self):
            path = search(self)
            paths.append(path)
            return path

        monkeypatch.setattr(ExchangeGraph, "__init__", counted_build)
        monkeypatch.setattr(ExchangeGraph, "shortest_augmenting_path", counted_search)
        augmented = 0
        for seed in range(20):
            # shuffled G(30, 0.2) on 15 colors with budgets 1-2: too little
            # budget for a tree, and the greedy forest often falls short
            rng = random.Random(f"builds:{seed}")
            palette = [f"c{j}" for j in range(15)]
            edges = [
                (u, v, rng.choice(palette))
                for u in range(30)
                for v in range(u + 1, 30)
                if rng.random() < 0.2
            ]
            rng.shuffle(edges)
            caps = CapacityMap({c: rng.randint(1, 2) for c in palette})
            builds.clear()
            paths.clear()
            assert isinstance(solve(ColoredGraph(30, edges), caps, 1), Impossible)
            augmentations = sum(path is not None for path in paths)
            assert len(builds) == len(paths) == augmentations + 1, seed
            augmented += augmentations > 0
        assert augmented >= 5


class TestCertificate:
    def test_non_violating_pair_rejected(self):
        with pytest.raises(InternalSolverError):
            Certificate(frozenset({"a"}), 2, 2)

    def test_sorted_colors(self):
        cert = Certificate(frozenset({"b", "a"}), 5, 1)
        assert cert.sorted_colors() == ["a", "b"]


class TestOracleCondition:
    def test_triangle_holds_everywhere(self):
        assert oracle_condition(triangle(), CapacityMap.uniform(1), 1) is None

    def test_one_color_path_violates(self):
        cert = oracle_condition(path_aa(), CapacityMap({"a": 1}), 1)
        assert cert is not None and cert.violating == {"a"}

    def test_disconnected_graph_violates_with_empty_set(self):
        g = ColoredGraph(3, [(0, 1, "a")])
        cert = oracle_condition(g, CapacityMap({"a": 1}), 1)
        assert cert is not None and cert.violating == frozenset()

    def test_returns_lexicographically_first_violator(self):
        # two single-color paths, each too long for its budget; "a" < "b"
        g = ColoredGraph(
            6,
            [(0, 1, "b"), (1, 2, "b"), (3, 4, "a"), (4, 5, "a")],
        )
        caps = CapacityMap({"a": 0, "b": 0})
        cert = oracle_condition(g, caps, 2)
        assert cert is not None and cert.violating == {"a"}

    def test_palette_limit(self):
        g = ColoredGraph(2, [(0, 1, "a")], palette=frozenset(f"x{i}" for i in range(20)))
        with pytest.raises(OracleLimitError):
            oracle_condition(g, CapacityMap.uniform(1), 1)


class TestOracleForestSearch:
    def test_triangle_finds_tree(self):
        forest = oracle_forest_search(triangle(), CapacityMap.uniform(1), 1)
        assert forest is not None and forest.size == 2

    def test_one_color_path_finds_nothing(self):
        assert oracle_forest_search(path_aa(), CapacityMap({"a": 1}), 1) is None

    def test_square_uneven_budgets(self):
        g = square_aabb()
        forest = oracle_forest_search(g, CapacityMap({"a": 1, "b": 2}), 1)
        assert forest is not None
        # first qualifying tree in index order: edges 0, 2, 3 (one a, two b)
        assert forest.members == (0, 2, 3)
        assert forest.color_counts() == {"a": 1, "b": 2}

    def test_edge_limit(self):
        g = ColoredGraph(8, [(u, v, "a") for u in range(8) for v in range(u + 1, 8)])
        with pytest.raises(OracleLimitError):
            oracle_forest_search(g, CapacityMap.uniform(9), 1)


class TestOncePerInstanceOracles:
    @staticmethod
    def instances(count):
        for index in range(count):
            rng = random.Random(f"minmax:{index}")
            yield f"minmax:{index}", *sample_solver_instance(rng)

    def test_the_two_sides_of_the_min_max_equality_meet(self):
        for key, g, caps in self.instances(300):
            largest = oracle_largest_forest(g, caps)
            assert oracle_fewest_components(g, caps) == g.n - largest, key
            assert largest == helpers.brute_force_max_forest_size(g, caps), key

    def test_each_number_gives_the_per_m_verdict(self):
        for key, g, caps in self.instances(150):
            fewest = oracle_fewest_components(g, caps)
            largest = oracle_largest_forest(g, caps)
            for m in range(1, g.n + 1):
                holds = oracle_condition(g, caps, m) is None
                assert holds == (fewest <= m), f"{key} m={m}"
                found = oracle_forest_search(g, caps, m) is not None
                assert found == (g.n - largest <= m), f"{key} m={m}"

    def test_single_vertex(self):
        g = ColoredGraph(1, palette=frozenset({"a"}))
        assert oracle_fewest_components(g, CapacityMap.uniform(1)) == 1
        assert oracle_largest_forest(g, CapacityMap.uniform(1)) == 0

    def test_no_edges(self):
        g = ColoredGraph(4)
        assert oracle_fewest_components(g, CapacityMap()) == 4
        assert oracle_largest_forest(g, CapacityMap()) == 0

    def test_all_capacities_zero(self):
        g = square_aabb()
        caps = CapacityMap({"a": 0, "b": 0})
        assert oracle_fewest_components(g, caps) == 4
        assert oracle_largest_forest(g, caps) == 0

    def test_palette_limit(self):
        at_limit = frozenset(f"x{i:02}" for i in range(16))
        g = ColoredGraph(2, [(0, 1, "x00")], palette=at_limit)
        assert oracle_fewest_components(g, CapacityMap.uniform(1)) == 1
        g = ColoredGraph(2, [(0, 1, "x00")], palette=at_limit | {"x16"})
        with pytest.raises(OracleLimitError):
            oracle_fewest_components(g, CapacityMap.uniform(1))

    def test_edge_limit(self):
        pairs = [(u, v) for u in range(7) for v in range(u + 1, 7)]
        g = ColoredGraph(7, [(u, v, "a") for u, v in pairs[:20]])
        assert oracle_largest_forest(g, CapacityMap.uniform(9)) == 6
        g = ColoredGraph(7, [(u, v, "a") for u, v in pairs[:21]])
        with pytest.raises(OracleLimitError):
            oracle_largest_forest(g, CapacityMap.uniform(9))

    def test_an_off_by_one_oracle_fails_the_agreement_law(self, monkeypatch):
        # one edge short wherever a forest has edges; seed 11 draws instances
        # 0..3 with none, so the first failure is not the first instance
        real = sweeps.oracle_largest_forest
        failing = []
        for index in range(40):
            rng, key = sweeps._instance_rng(11, "agreement", index)
            if real(*sample_solver_instance(rng)):
                failing.append(key)
        assert failing[0] == "11:agreement:4"
        monkeypatch.setattr(
            sweeps, "oracle_largest_forest", lambda g, caps: max(real(g, caps) - 1, 0)
        )
        report = sweeps.run_oracle_agreement(40, 11)
        assert (report.passed, report.failed) == (40 - len(failing), len(failing))
        assert report.first_failing_key == failing[0]


class TestEvaluateCondition:
    def test_matches_independent_count(self):
        g = square_aabb()
        caps = CapacityMap.uniform(1)
        for subset in helpers.all_color_subsets(g.palette):
            remaining, budget = evaluate_condition(g, caps, 1, subset)
            assert remaining == helpers.components_without_colors(g, subset)
            assert budget == 1 + sum(caps.cap(c) for c in subset)

    def test_matches_counting_on_the_restricted_graph(self):
        for index in range(300):
            rng = random.Random(f"evaluate:{index}")
            g, caps = sample_solver_instance(rng)
            for _ in range(5):
                colors = {c for c in g.palette if rng.random() < 0.5}
                m = rng.randint(1, g.n)
                remaining, budget = evaluate_condition(g, caps, m, colors)
                assert remaining == helpers.components_without_colors(g, colors)
                assert budget == m + caps.total(colors)

    def test_empty_graph_has_no_component_count(self):
        with pytest.raises(EmptyGraphError):
            evaluate_condition(ColoredGraph(0), CapacityMap.uniform(1), 1, ())


class TestAgreementSweep:
    @staticmethod
    def oracle_agreement_holds(g, caps, components):
        """Solver vs. both per-m exhaustive oracles, one target component count."""
        verdict = solve(g, caps, components)
        cert = oracle_condition(g, caps, components)
        forest = oracle_forest_search(g, caps, components)
        return isinstance(verdict, Found) == (cert is None) == (forest is not None)

    def test_three_routes_agree_on_random_instances(self):
        for index in range(120):
            rng = random.Random(f"agree:{index}")
            g, caps = sample_solver_instance(rng)
            for m in range(1, g.n + 1):
                assert self.oracle_agreement_holds(g, caps, m), f"agree:{index} m={m}"

    def test_every_certificate_reverified_independently(self):
        seen = 0
        for index in range(120):
            rng = random.Random(f"certs:{index}")
            g, caps = sample_solver_instance(rng)
            for m in range(1, g.n + 1):
                verdict = solve(g, caps, m)
                if isinstance(verdict, Impossible):
                    seen += 1
                    cert = verdict.certificate
                    remaining = helpers.components_without_colors(g, cert.violating)
                    budget = m + sum(caps.cap(c) for c in cert.violating)
                    assert remaining == cert.omega_measured
                    assert budget == cert.bound
                    assert remaining >= budget + 1
        assert seen > 50

    def test_found_forests_never_contradict_the_inequality(self):
        # when a forest exists, every color set must satisfy the bound
        for index in range(40):
            rng = random.Random(f"necessity:{index}")
            g, caps = sample_solver_instance(rng)
            for m in range(1, g.n + 1):
                if not isinstance(solve(g, caps, m), Found):
                    continue
                for _ in range(100):
                    subset = {
                        c for c in g.palette if rng.random() < 0.5
                    }
                    remaining, budget = evaluate_condition(g, caps, m, subset)
                    assert remaining <= budget, f"necessity:{index} m={m}"
