import math
import random
from fractions import Fraction

import pytest

from capforest import (
    CapacityMap,
    ColoredGraph,
    Forest,
    PreconditionError,
    color_census,
    complete_graph_threshold,
    component_count,
    density_sufficient,
    max_edges_for_components,
    solve,
)
from capforest.generators import GenSpec, generate


def complete_uniform(n, palette_size, seed):
    return generate(
        GenSpec(seed=seed, n=n, model="complete", palette_size=palette_size)
    )


def clique_plus_isolated(n, s):
    """Extremal graph: one clique on n-s+1 vertices, s-1 isolated vertices."""
    k = n - s + 1
    edges = [(u, v, "x") for u in range(k) for v in range(u + 1, k)]
    return ColoredGraph(n, edges)


class TestMaxEdgesForComponents:
    def test_known_value(self):
        assert max_edges_for_components(10, 4) == 21

    def test_single_component_is_complete_graph(self):
        assert max_edges_for_components(5, 1) == 10

    def test_all_isolated(self):
        assert max_edges_for_components(5, 5) == 0

    def test_range_validation(self):
        with pytest.raises(PreconditionError):
            max_edges_for_components(5, 0)
        with pytest.raises(PreconditionError):
            max_edges_for_components(5, 6)

    def test_random_graphs_respect_the_bound(self):
        for index in range(100):
            rng = random.Random(f"edgebound:{index}")
            n = rng.randint(1, 10)
            g = generate(
                GenSpec(
                    seed=rng.getrandbits(32),
                    n=n,
                    model="gnp",
                    p=rng.random(),
                    palette_size=3,
                )
            )
            s = component_count(g)
            assert len(g.edges) <= max_edges_for_components(n, s)

    def test_extremal_construction_achieves_equality(self):
        for n in range(1, 11):
            for s in range(1, n + 1):
                g = clique_plus_isolated(n, s)
                assert component_count(g) == s
                assert len(g.edges) == max_edges_for_components(n, s)


class TestCompleteGraphThreshold:
    def test_k5_single_component(self):
        assert complete_graph_threshold(5, 1) == Fraction(5, 2)

    def test_k2(self):
        assert complete_graph_threshold(2, 1) == 1

    def test_half_order_at_k6(self):
        # for one component the bound is n/2, here exactly 3
        assert complete_graph_threshold(6, 1) == 3

    def test_range_validation(self):
        with pytest.raises(PreconditionError):
            complete_graph_threshold(5, 5)
        with pytest.raises(PreconditionError):
            complete_graph_threshold(5, 0)


class TestDensitySufficient:
    def test_k5_with_small_color_classes_is_guaranteed(self):
        # K5, every color on at most 2 edges, unit budgets
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        colors = ["c0", "c0", "c1", "c1", "c2", "c2", "c3", "c3", "c4", "c4"]
        g = ColoredGraph(5, [(u, v, c) for (u, v), c in zip(edges, colors)])
        report = density_sufficient(g, CapacityMap.uniform(1), 1)
        assert report.edge_count == 10 and report.threshold == 6
        assert report.ratio == Fraction(10, 4)
        assert report.guaranteed

    def test_k5_with_a_triple_color_is_not_guaranteed(self):
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        colors = ["c0", "c0", "c0", "c1", "c1", "c2", "c2", "c3", "c3", "c4"]
        g = ColoredGraph(5, [(u, v, c) for (u, v), c in zip(edges, colors)])
        report = density_sufficient(g, CapacityMap.uniform(1), 1)
        assert not report.per_color["c0"].ok
        assert not report.guaranteed

    def test_threshold_is_the_extremal_count_for_one_more_component(self):
        for n in range(2, 10):
            g = clique_plus_isolated(n, 1)
            for m in range(1, n):
                report = density_sufficient(g, CapacityMap.uniform(1), m)
                assert report.threshold == math.comb(n - m, 2), (n, m)
                # a graph with more edges has at most m components
                sparse = clique_plus_isolated(n, m + 1)
                assert len(sparse.edges) == report.threshold
                assert component_count(sparse) == m + 1

    def test_sparse_graph_fails_the_density_clause(self):
        g = ColoredGraph(5, [(0, 1, "a")])
        report = density_sufficient(g, CapacityMap.uniform(5), 1)
        assert report.edge_count <= report.threshold
        assert not report.guaranteed

    def test_boundary_count_is_allowed(self):
        # observed == bound exactly: 5 edges of one color in K5, budget 2,
        # bound 2 * 10/4 = 5
        edges = [(u, v) for u in range(5) for v in range(u + 1, 5)]
        colors = ["c0"] * 5 + ["c1"] * 5
        g = ColoredGraph(5, [(u, v, c) for (u, v), c in zip(edges, colors)])
        report = density_sufficient(g, CapacityMap.uniform(2), 1)
        assert report.per_color["c0"].bound == 5
        assert report.per_color["c0"].ok
        assert report.guaranteed

    def test_needs_budgets_for_edge_colors_only(self):
        # 12 of the 30 colors are drawn onto K6's 15 edges
        g = generate(GenSpec(2, 6, model="complete", palette_size=30))
        census = color_census(g)
        report = density_sufficient(g, CapacityMap({c: 1 for c in census}), 1)
        assert sorted(report.per_color) == sorted(census)
        assert report.guaranteed

    def test_target_equal_to_order_rejected(self):
        g = ColoredGraph(3, [(0, 1, "a")])
        with pytest.raises(PreconditionError):
            density_sufficient(g, CapacityMap.uniform(1), 3)

    def test_per_color_bound_matches_complete_graph_threshold(self):
        for n, m, seed in [(5, 1, 11), (6, 2, 12), (7, 3, 13)]:
            g = complete_uniform(n, 3, seed)
            caps = CapacityMap({c: 2 for c in g.sorted_palette()})
            report = density_sufficient(g, caps, m)
            expected = complete_graph_threshold(n, m)
            for color in g.sorted_palette():
                assert report.per_color[color].bound == expected * caps.cap(color)

    def test_guaranteed_implies_solvable(self):
        checked = 0
        for index in range(120):
            rng = random.Random(f"density:{index}")
            n = rng.randint(3, 7)
            m = rng.randint(1, n - 1)
            g = complete_uniform(n, rng.randint(1, 4), rng.getrandbits(32))
            census = color_census(g)
            caps = CapacityMap(
                {
                    c: math.ceil(Fraction(census.get(c, 0) * (n - m), len(g.edges)))
                    for c in g.sorted_palette()
                }
            )
            report = density_sufficient(g, caps, m)
            if not report.guaranteed:
                continue
            checked += 1
            assert isinstance(solve(g, caps, m), Forest), f"density:{index}"
        assert checked >= 100
