"""Acceptance suite: one test per release criterion, each at full size.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one summary line
per criterion. The randomized corpora are seeded, so every run checks the
same instances.
"""

import random
import subprocess
import sys

import pytest

import helpers
from capforest import (
    CapacityMap,
    ColoredGraph,
    Found,
    Impossible,
    component_count,
    max_edges_for_components,
    maximize_forest,
    oracle_condition,
    oracle_forest_search,
    solve,
)
from capforest.generators import GenSpec, generate
from capforest.sweeps import (
    run_bounded_complete,
    run_density_guarantee,
    sample_solver_instance,
)

SEED = 20260810
AGREEMENT_COUNT = 500
MAXFOREST_COUNT = 200
LAW_COUNT = 200


@pytest.fixture(scope="session")
def solved_corpus():
    """500 seeded instances with the solver's verdict for every target m."""
    corpus = []
    for index in range(AGREEMENT_COUNT):
        rng = random.Random(f"{SEED}:agreement:{index}")
        g, caps = sample_solver_instance(
            rng, max_n=7, max_edges=14, max_palette=5, max_cap=3
        )
        verdicts = {m: solve(g, caps, m) for m in range(1, g.n + 1)}
        corpus.append((f"{SEED}:agreement:{index}", g, caps, verdicts))
    return corpus


def test_criterion_1_exactly_one_law(solved_corpus):
    """Solver, subset oracle, and forest search agree on every instance."""
    checks = 0
    for key, g, caps, verdicts in solved_corpus:
        for m, verdict in verdicts.items():
            cert = oracle_condition(g, caps, m)
            forest = oracle_forest_search(g, caps, m)
            found = isinstance(verdict, Found)
            assert found == (cert is None) == (forest is not None), f"{key} m={m}"
            checks += 1
    assert len(solved_corpus) >= 500
    print(
        f"\nACCEPTANCE 1 PASS: exactly-one law on {len(solved_corpus)} instances "
        f"({checks} solver/oracle comparisons, zero disagreements)"
    )


def test_criterion_2_certificate_validity(solved_corpus):
    """Every Impossible certificate is strictly violating, recomputed from scratch."""
    certified = 0
    for key, g, caps, verdicts in solved_corpus:
        for m, verdict in verdicts.items():
            if not isinstance(verdict, Impossible):
                continue
            certified += 1
            cert = verdict.certificate
            remaining = helpers.components_without_colors(g, cert.violating)
            budget = m + sum(caps.cap(c) for c in cert.violating)
            assert remaining == cert.omega_measured, f"{key} m={m}"
            assert budget == cert.bound, f"{key} m={m}"
            assert remaining >= m + 1 + sum(caps.cap(c) for c in cert.violating)
    assert certified > 0
    print(
        f"\nACCEPTANCE 2 PASS: {certified} certificates re-verified, "
        f"all strictly violating"
    )


@pytest.fixture(scope="session")
def maxforest_corpus():
    corpus = []
    for index in range(MAXFOREST_COUNT):
        rng = random.Random(f"{SEED}:maxforest:{index}")
        g, caps = sample_solver_instance(rng, max_n=7, max_edges=12)
        corpus.append((f"{SEED}:maxforest:{index}", g, caps))
    return corpus


def test_criterion_3_maximality_oracle(maxforest_corpus):
    """Augmenting-path maximum equals the brute-force subset maximum."""
    for key, g, caps in maxforest_corpus:
        assert (
            maximize_forest(g, caps).size
            == helpers.brute_force_max_forest_size(g, caps)
        ), key
    print(
        f"\nACCEPTANCE 3 PASS: maximum forest size matches brute force on "
        f"{len(maxforest_corpus)} instances"
    )


def test_criterion_4_min_max_identity(maxforest_corpus):
    """Maximum forest size equals min over color sets of n - omega + budget."""
    for key, g, caps in maxforest_corpus:
        assert maximize_forest(g, caps).size == helpers.min_max_bound(g, caps), key
    print(
        f"\nACCEPTANCE 4 PASS: min-max identity holds on "
        f"{len(maxforest_corpus)} instances"
    )


def test_criterion_5_half_bounded_complete_graphs():
    """K_n colored with <= floor(n/2) edges per color always has a rainbow tree."""
    report = run_bounded_complete(LAW_COUNT, SEED)
    assert report.failed == 0, report.first_failing_key
    assert report.passed >= 200
    print(
        f"\nACCEPTANCE 5 PASS: bounded-complete law {report.passed}/{report.passed}"
    )


def test_criterion_6_density_guarantee():
    """density_sufficient(guaranteed=True) instances always solve to Found."""
    report = run_density_guarantee(LAW_COUNT, SEED)
    assert report.failed == 0, report.first_failing_key
    assert report.passed >= 200
    print(
        f"\nACCEPTANCE 6 PASS: density-guarantee law {report.passed}/{report.passed} "
        f"(includes perfect-matching colorings of K4..K10)"
    )


def test_criterion_7_edge_count_bound():
    """|E| <= C(n - s + 1, 2) for s components; clique-plus-isolated is tight."""
    for index in range(100):
        rng = random.Random(f"{SEED}:edgebound:{index}")
        n = rng.randint(1, 10)
        g = generate(
            GenSpec(
                seed=rng.getrandbits(32),
                n=n,
                model="gnp",
                p=rng.random(),
                palette_size=4,
            )
        )
        s = component_count(g)
        assert len(g.edges) <= max_edges_for_components(n, s)
    equalities = 0
    for n in range(1, 11):
        for s in range(1, n + 1):
            k = n - s + 1
            edges = [(u, v, "x") for u in range(k) for v in range(u + 1, k)]
            g = ColoredGraph(n, edges)
            assert component_count(g) == s
            assert len(g.edges) == max_edges_for_components(n, s)
            equalities += 1
    print(
        f"\nACCEPTANCE 7 PASS: edge bound on 100 random graphs; extremal "
        f"equality in {equalities} (n, s) cases"
    )


def test_criterion_8_monotonicity(solved_corpus):
    """Verdicts are monotone in the target m and in the capacities."""
    m_checks = f_checks = 0
    for key, g, caps, verdicts in solved_corpus:
        found_somewhere = False
        for m in range(1, g.n + 1):
            found = isinstance(verdicts[m], Found)
            assert not (found_somewhere and not found), f"{key} m={m}"
            found_somewhere = found_somewhere or found
            m_checks += 1
        rng = random.Random(f"{key}:bump")
        bigger = CapacityMap(
            {c: caps.cap(c) + rng.randint(0, 2) for c in sorted(g.palette)}
        )
        for m in range(1, g.n + 1):
            if isinstance(verdicts[m], Found):
                assert isinstance(solve(g, bigger, m), Found), f"{key} m={m}"
                f_checks += 1
    print(
        f"\nACCEPTANCE 8 PASS: monotone in m ({m_checks} checks) and in "
        f"capacities ({f_checks} checks), zero violations"
    )


def test_criterion_9_determinism(tmp_path):
    """gen and solve produce byte-identical output across runs."""

    def run(*args):
        return subprocess.run(
            [sys.executable, "-m", "capforest", *args],
            capture_output=True,
            check=False,
        )

    gen_args = (
        "gen", "--model", "gnp", "--n", "7", "--p", "0.5",
        "--colors", "8", "--k", "3", "--seed", "123",
    )
    first, second = run(*gen_args), run(*gen_args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout and first.stdout

    instance = tmp_path / "inst.txt"
    instance.write_bytes(first.stdout + b"fdefault 1\n")
    solve_args = ("solve", str(instance), "-m", "2", "--json")
    third, fourth = run(*solve_args), run(*solve_args)
    assert third.returncode == fourth.returncode
    assert third.returncode in (0, 1)
    assert third.stdout == fourth.stdout and third.stdout
    print("\nACCEPTANCE 9 PASS: gen and solve byte-identical across runs")
