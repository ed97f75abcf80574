import tracemalloc

import pytest

from capforest import (
    CapacityMap,
    Found,
    PreconditionError,
    color_census,
    solve,
)
from capforest.generators import MAX_VERTICES, GenSpec, generate


class TestDeterminism:
    def test_same_spec_same_graph(self):
        spec = GenSpec(seed=99, n=8, model="gnp", p=0.4, palette_size=4)
        assert generate(spec) == generate(spec)

    def test_different_seed_usually_differs(self):
        a = GenSpec(seed=1, n=8, model="gnp", p=0.5, palette_size=4)
        b = GenSpec(seed=2, n=8, model="gnp", p=0.5, palette_size=4)
        assert generate(a) != generate(b)

    def test_golden_triangle(self):
        # frozen from the first run of this generator; guards the PRNG contract
        g = generate(
            GenSpec(seed=1, n=3, model="gnp", p=1.0, palette_size=3)
        )
        assert [(e.u, e.v, e.color) for e in g.edges] == [
            (0, 1, "c1"),
            (0, 2, "c0"),
            (1, 2, "c1"),
        ]


class TestSizeLimit:
    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec(seed=0, n=MAX_VERTICES + 1, model="complete", palette_size=1),
            GenSpec(seed=0, n=MAX_VERTICES + 1, model="gnp", p=1.0, palette_size=1),
            GenSpec(seed=0, n=MAX_VERTICES + 2, model="complete_factorized"),
        ],
    )
    def test_one_past_the_limit_is_refused_before_allocating(self, spec):
        tracemalloc.start()
        try:
            with pytest.raises(PreconditionError, match="generator limit"):
                generate(spec)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # bytes; the pairs alone would take hundreds of MB


class TestModels:
    def test_gnp_p_zero_is_empty(self):
        g = generate(GenSpec(seed=3, n=5, model="gnp", p=0.0, palette_size=2))
        assert g.edges == () and g.n == 5

    def test_gnp_p_one_is_complete(self):
        g = generate(GenSpec(seed=3, n=5, model="gnp", p=1.0, palette_size=2))
        assert len(g.edges) == 10

    def test_complete(self):
        g = generate(GenSpec(seed=0, n=6, model="complete", palette_size=2))
        assert len(g.edges) == 15

    def test_gnp_needs_probability(self):
        with pytest.raises(PreconditionError):
            generate(GenSpec(seed=0, n=3, model="gnp", palette_size=1))

    def test_unknown_model(self):
        with pytest.raises(PreconditionError):
            generate(GenSpec(seed=0, n=3, model="ring", palette_size=1))


class TestFactorized:
    def test_k4_structure(self):
        g = generate(GenSpec(seed=0, n=4, model="complete_factorized"))
        assert len(g.edges) == 6
        assert color_census(g) == {"c0": 2, "c1": 2, "c2": 2}

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10])
    def test_each_color_is_a_perfect_matching(self, n):
        g = generate(GenSpec(seed=0, n=n, model="complete_factorized"))
        assert len(g.edges) == n * (n - 1) // 2
        assert len(g.palette) == n - 1
        by_color = {}
        for e in g.edges:
            by_color.setdefault(e.color, []).append(e)
        for color, edges in by_color.items():
            assert len(edges) == n // 2
            touched = [v for e in edges for v in (e.u, e.v)]
            assert sorted(touched) == list(range(n))

    def test_odd_order_rejected(self):
        with pytest.raises(PreconditionError):
            generate(GenSpec(seed=0, n=5, model="complete_factorized"))

    def test_palette_size_and_k_are_ignored(self):
        plain = generate(GenSpec(seed=0, n=6, model="complete_factorized"))
        spec = GenSpec(seed=0, n=6, model="complete_factorized", palette_size=0, k=-1)
        assert generate(spec) == plain

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_unit_budgets_always_admit_a_spanning_tree(self, n):
        g = generate(GenSpec(seed=7, n=n, model="complete_factorized"))
        assert isinstance(solve(g, CapacityMap.uniform(1), 1), Found)


class TestColorings:
    def test_k_bounded_respects_the_ceiling(self):
        for seed in range(10):
            g = generate(
                GenSpec(seed=seed, n=7, model="complete", palette_size=8, k=3)
            )
            assert max(color_census(g).values()) <= 3

    def test_k_one_means_all_distinct(self):
        g = generate(
            GenSpec(seed=4, n=5, model="complete", palette_size=10, k=1)
        )
        census = color_census(g)
        assert all(count == 1 for count in census.values())

    def test_k_bounded_infeasible(self):
        with pytest.raises(PreconditionError):
            generate(
                GenSpec(seed=0, n=5, model="complete", palette_size=2, k=2)
            )

    def test_k_picks_the_k_bounded_coloring(self):
        # uniform draws put some color on two of K5's ten edges for this seed
        uniform = generate(GenSpec(seed=4, n=5, model="complete", palette_size=10))
        assert max(color_census(uniform).values()) > 1
        bounded = generate(GenSpec(seed=4, n=5, model="complete", palette_size=10, k=1))
        assert max(color_census(bounded).values()) == 1

    @pytest.mark.parametrize(
        "k, message",
        [
            (None, "uniform coloring needs palette_size >= 1"),
            (2, "k_bounded coloring needs palette_size >= 1"),
        ],
    )
    @pytest.mark.parametrize("size", [None, 0])
    def test_palette_size_message_names_the_coloring(self, k, message, size):
        with pytest.raises(PreconditionError) as info:
            generate(GenSpec(seed=0, n=3, model="complete", palette_size=size, k=k))
        assert str(info.value) == message

    def test_negative_k_rejected(self):
        with pytest.raises(PreconditionError) as info:
            generate(GenSpec(seed=0, n=3, model="complete", palette_size=2, k=-1))
        assert str(info.value) == "k_bounded coloring needs k >= 0"

    def test_uniform_declares_whole_palette(self):
        g = generate(GenSpec(seed=0, n=3, model="gnp", p=0.0, palette_size=4))
        assert g.palette == {"c0", "c1", "c2", "c3"}

