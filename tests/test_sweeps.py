"""``run_all`` runs the three law functions in sequence, in this process.

The law functions are the reference: ``run_all`` must return their reports,
or raise the exception of the earliest law that raises. A rigged solver or
instance stream checks the failure counts, the first failing key and the
exit code of a ``sweep`` that hits a solver bug.
"""

import hashlib
import json
import math

import pytest

from capforest import Forest, cli, color_census, sweeps
from capforest.errors import InternalSolverError


def sequential(count, seed):
    return [
        sweeps.run_oracle_agreement(count, seed),
        sweeps.run_density_guarantee(count, seed),
        sweeps.run_bounded_complete(count, seed),
    ]


def hook_instances(monkeypatch, on_instance):
    """Call ``on_instance(law, index)`` as each instance is drawn."""
    real = sweeps._instance_rng

    def instance_rng(seed, law, index):
        on_instance(law, index)
        return real(seed, law, index)

    monkeypatch.setattr(sweeps, "_instance_rng", instance_rng)


def rig_solver(monkeypatch, failing):
    """Make ``sweeps.solve`` and ``sweeps.solve_every_target`` wrong on the
    instances whose index is in ``failing``.

    The wrong verdict is the opposite of the right one, so every law
    records a failure there.
    """
    current = {}
    hook_instances(monkeypatch, lambda law, index: current.update(index=index))
    real_solve, real_every_target = sweeps.solve, sweeps.solve_every_target

    def rigged(g, verdict):
        if current["index"] not in failing:
            return verdict
        return None if isinstance(verdict, Forest) else Forest(g)

    def solve(g, caps, components):
        return rigged(g, real_solve(g, caps, components))

    def solve_every_target(g, caps):
        return (rigged(g, verdict) for verdict in real_every_target(g, caps))

    monkeypatch.setattr(sweeps, "solve", solve)
    monkeypatch.setattr(sweeps, "solve_every_target", solve_every_target)


# The class names predate the one-process sweep; they are kept so that the
# test ids stay stable.


class TestParallelEqualsSequential:
    """``run_all`` returns the law functions' reports, in law order."""

    @pytest.mark.parametrize("count", [0, 1, 2, 7, 40])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_reports_match(self, count, seed):
        expected = sequential(count, seed)
        assert [r.passed for r in expected] == [count] * 3
        assert sweeps.run_all(count, seed) == expected

    @pytest.mark.parametrize(
        "failing",
        [
            {30, 35},  # only late in the range
            {5, 20, 33},  # spread over the range
            {12, 13, 39},  # adjacent, and the last index
        ],
    )
    def test_lowest_failing_key_wins(self, monkeypatch, failing):
        rig_solver(monkeypatch, failing)
        expected = sequential(40, 3)
        for report in expected:
            assert report.passed == 40 - len(failing)
            assert report.failed == len(failing)
            assert report.first_failing_key.endswith(f":{min(failing)}")
        assert sweeps.run_all(40, 3) == expected


class TestFailuresCrossTheFork:
    """An exception in a law ends the sweep: the earliest law's is raised."""

    @staticmethod
    def raise_at(monkeypatch, raising):
        def on_instance(law, index):
            if (law, index) in raising:
                raise InternalSolverError(f"rigged failure at {law} {index}")

        hook_instances(monkeypatch, on_instance)

    @pytest.mark.parametrize(
        "raising, message",
        [
            ({("agreement", 7)}, "agreement 7"),
            ({("agreement", 7), ("density", 4)}, "agreement 7"),
            ({("bounded", 0), ("density", 8)}, "density 8"),
            ({("density", 8), ("density", 5)}, "density 5"),
            ({("bounded", 2), ("bounded", 3)}, "bounded 2"),
        ],
    )
    def test_the_sequential_run_s_exception_is_raised(
        self, monkeypatch, raising, message
    ):
        self.raise_at(monkeypatch, raising)
        with pytest.raises(InternalSolverError) as reference:
            sequential(9, 1)
        assert str(reference.value) == f"rigged failure at {message}"
        with pytest.raises(InternalSolverError) as raised:
            sweeps.run_all(9, 1)
        assert type(raised.value) is InternalSolverError
        assert str(raised.value) == str(reference.value)

    def test_cli_exits_three_with_one_line(self, monkeypatch, capfd):
        self.raise_at(monkeypatch, {("agreement", 7), ("density", 4)})
        assert cli.main(["sweep", "--count", "9", "--seed", "1"]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: rigged failure at agreement 7\n"


def test_density_instance_that_fails_its_check_is_an_internal_error(monkeypatch):
    # the density law builds every instance to pass the check; one that
    # does not is a bug in the sweep, never a law failure
    real = sweeps.density_sufficient
    monkeypatch.setattr(
        sweeps,
        "density_sufficient",
        lambda *args: real(*args)._replace(guaranteed=False),
    )
    with pytest.raises(InternalSolverError) as info:
        sweeps.run_density_guarantee(3, 2)
    assert str(info.value) == (
        "sweep instance 2:density:0 was built to pass the density check"
    )


# sha256 of the density law's instances at seed 0, indices 0-249
DENSITY_STREAM_SHA256 = "b2895ae757dd21a02719768375dde37a86a950391859e6a78bbe38bbeb7527a2"


class TestDensityInstances:
    @staticmethod
    def instance(index):
        rng, _ = sweeps._instance_rng(0, "density", index)
        return sweeps.density_guarantee_instance(rng, index)

    def test_stream_is_pinned(self):
        rows = []
        for index in range(250):
            g, caps, m = self.instance(index)
            edges = [list(e) for e in g.edges]
            rows.append([g.n, edges, sorted(caps.assignments.items()), m])
        digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
        assert digest == DENSITY_STREAM_SHA256

    def test_budgets_are_the_least_the_density_bound_allows(self):
        # every fourth instance is matching-colored, the rest uniformly
        for index in range(200):
            g, caps, m = self.instance(index)
            assert len(g.edges) == math.comb(g.n, 2), index
            census = color_census(g)
            assert sorted(caps.assignments) == sorted(census), index
            for color, observed in census.items():
                f = caps.cap(color)
                assert observed * (g.n - m) <= len(g.edges) * f, (index, color)
                assert observed * (g.n - m) > len(g.edges) * (f - 1), (index, color)
