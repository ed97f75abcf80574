"""``run_all`` runs the three law functions in sequence, in this process.

The law functions are the reference: ``run_all`` must return their reports,
or raise the exception of the earliest law that raises. A rigged solver or
instance stream checks the failure counts, the first failing key and the
exit code of a ``sweep`` that hits a solver bug.
"""

import pytest

from capforest import Forest, cli, sweeps
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
