"""``run_all`` splits each law's instances over forked workers.

The three law functions run over the whole range in this process are the
reference: ``run_all`` must return the same reports, or raise the same
exception, whatever the number of workers. The CPU count is forced, so
that the workers fork on a machine with one CPU too.
"""

import os
import signal

import pytest

from capforest import Forest, Found, cli, sweeps
from capforest.errors import InternalSolverError

WORKERS = (1, 2, 3)


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Count the forks of this process; the children's own are not seen."""
    calls = []
    real_fork = os.fork

    def counting_fork():
        calls.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return calls


def sequential(count, seed, max_n=7):
    return [
        sweeps.run_oracle_agreement(count, seed, max_n=max_n),
        sweeps.run_density_guarantee(count, seed),
        sweeps.run_bounded_complete(count, seed),
    ]


def parallel(monkeypatch, workers, count, seed, max_n=7):
    monkeypatch.setattr(sweeps, "_usable_cpus", lambda: workers)
    return sweeps.run_all(count, seed, max_n=max_n)


def hook_instances(monkeypatch, on_instance):
    """Call ``on_instance(law, index)`` as each instance is drawn."""
    real = sweeps._instance_rng

    def instance_rng(seed, law, index):
        on_instance(law, index)
        return real(seed, law, index)

    monkeypatch.setattr(sweeps, "_instance_rng", instance_rng)


def rig_solver(monkeypatch, failing):
    """Make ``sweeps.solve`` wrong on the instances whose index is in ``failing``.

    The wrong verdict is the opposite of the right one, so every law
    records a failure there. Forked workers inherit the patch.
    """
    current = {}
    hook_instances(monkeypatch, lambda law, index: current.update(index=index))
    real_solve = sweeps.solve

    def solve(g, caps, components):
        verdict = real_solve(g, caps, components)
        if current["index"] not in failing:
            return verdict
        return None if isinstance(verdict, Found) else Found(Forest(g))

    monkeypatch.setattr(sweeps, "solve", solve)


class TestParallelEqualsSequential:
    @pytest.mark.parametrize("count", [0, 1, 2, 7, 40])
    @pytest.mark.parametrize("seed", [0, 5, 11])
    @pytest.mark.parametrize("max_n", [4, 7])
    def test_reports_match(self, monkeypatch, forks, count, seed, max_n):
        expected = sequential(count, seed, max_n)
        assert [r.passed for r in expected] == [count] * 3
        for workers in WORKERS:
            forks.clear()
            assert parallel(monkeypatch, workers, count, seed, max_n) == expected
            assert len(forks) == max(1, min(workers, count)) - 1

    @pytest.mark.parametrize(
        "failing",
        [
            {30, 35},  # only in the last of three shares (26..39)
            {5, 20, 33},  # one in each share
            {12, 13, 39},  # the last of share 0, the first of share 1
        ],
    )
    def test_lowest_failing_key_wins(self, monkeypatch, failing):
        rig_solver(monkeypatch, failing)
        expected = sequential(40, 3)
        for report in expected:
            assert report.failed == len(failing)
            assert report.first_failing_key.endswith(f":{min(failing)}")
        for workers in WORKERS:
            assert parallel(monkeypatch, workers, 40, 3) == expected


class TestFailuresCrossTheFork:
    @staticmethod
    def raise_at(monkeypatch, raising):
        def on_instance(law, index):
            if (law, index) in raising:
                raise InternalSolverError(f"rigged failure at {law} {index}")

        hook_instances(monkeypatch, on_instance)

    # nine instances over three workers: shares 0..2, 3..5 and 6..8
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
        for workers in WORKERS:
            with pytest.raises(InternalSolverError) as raised:
                parallel(monkeypatch, workers, 9, 1)
            assert type(raised.value) is InternalSolverError
            assert str(raised.value) == str(reference.value)

    def test_cli_exits_three_with_one_line(self, monkeypatch, capfd):
        self.raise_at(monkeypatch, {("agreement", 7), ("density", 4)})
        monkeypatch.setattr(sweeps, "_usable_cpus", lambda: 3)
        assert cli.main(["sweep", "--count", "9", "--seed", "1"]) == 3
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == "internal error: rigged failure at agreement 7\n"

    def test_a_worker_that_dies_is_an_internal_error(self, monkeypatch):
        parent = os.getpid()

        def on_instance(law, index):
            if index == 7 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)

        hook_instances(monkeypatch, on_instance)
        with pytest.raises(InternalSolverError, match=r"instances 6\.\.8 ended"):
            parallel(monkeypatch, 3, 9, 1)
