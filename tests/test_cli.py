import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from capforest import cli, sweeps
from capforest.instance_io import MAX_VERTICES as MAX_INSTANCE_VERTICES
from capforest.instance_io import parse_instance

SRC = Path(__file__).resolve().parents[1] / "src"
TRIANGLE = "graph 3\nfdefault 1\ne 0 1 a\ne 1 2 b\ne 2 0 c\n"
PATH_AA = "graph 3\nf a 1\ne 0 1 a\ne 1 2 a\n"
SQUARE = "graph 4\nfdefault 1\ne 0 1 a\ne 1 2 a\ne 2 3 b\ne 3 0 b\n"


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text(TRIANGLE)
    return str(path)


@pytest.fixture
def path_file(tmp_path):
    path = tmp_path / "path.txt"
    path.write_text(PATH_AA)
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE)
    return str(path)


class TestSolveCommand:
    def test_found_exits_zero(self, triangle_file, capsys):
        assert cli.main(["solve", triangle_file, "-m", "1"]) == 0
        out = capsys.readouterr().out
        assert "forest with 1 components (2 edges)" in out

    def test_impossible_exits_one_with_certificate(self, path_file, capsys):
        assert cli.main(["solve", path_file, "-m", "1", "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload == {
            "exists": False,
            "violating_colors": ["a"],
            "omega": 3,
            "bound": 2,
        }

    def test_two_components_succeed_on_the_path(self, path_file, capsys):
        assert cli.main(["solve", path_file, "-m", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exists"] is True
        assert payload["components"] == 2
        assert payload["forest"] == [[0, 1, "a"]]
        assert payload["color_counts"] == {"a": 1}

    def test_missing_capacity_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nocaps.txt"
        path.write_text("graph 2\ne 0 1 a\n")
        assert cli.main(["solve", str(path), "-m", "1"]) == 2
        assert "no capacity" in capsys.readouterr().err

    def test_parse_error_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "broken.txt"
        path.write_text("graph 2\ne 0 5 a\n")
        assert cli.main(["solve", str(path), "-m", "1"]) == 2
        assert ":2:" in capsys.readouterr().err

    def test_missing_file_is_input_error(self, tmp_path, capsys):
        assert cli.main(["solve", str(tmp_path / "nope.txt"), "-m", "1"]) == 2

    def test_non_utf8_instance_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "binary.txt"
        path.write_bytes(b"\xff\xfe")
        assert cli.main(["solve", str(path), "-m", "1"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "UTF-8" in err
        assert err.count("\n") == 1

    def test_non_utf8_caps_is_input_error(self, triangle_file, tmp_path, capsys):
        sidecar = tmp_path / "caps.txt"
        sidecar.write_bytes(b"\xff\xfe")
        assert cli.main(["solve", triangle_file, "-m", "1", "--caps", str(sidecar)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(sidecar) in err
        assert err.count("\n") == 1

    def test_instance_with_byte_order_mark(self, tmp_path, path_file, capsys):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + PATH_AA.encode())
        assert cli.main(["solve", path_file, "-m", "1", "--json"]) == 1
        plain = capsys.readouterr().out
        assert cli.main(["solve", str(path), "-m", "1", "--json"]) == 1
        assert capsys.readouterr().out == plain

    def test_caps_with_byte_order_mark(self, path_file, tmp_path, capsys):
        sidecar = tmp_path / "caps.txt"
        sidecar.write_bytes(b"\xef\xbb\xbff a 2\n")
        assert cli.main(["solve", path_file, "-m", "1", "--caps", str(sidecar)]) == 0

    def test_non_utf8_offset_counts_the_byte_order_mark(self, tmp_path, capsys):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbfgraph 2\n\xff")
        assert cli.main(["solve", str(path), "-m", "1"]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: not valid UTF-8 (byte 11: invalid start byte)\n"
        )

    def test_internal_error_exits_three(self, triangle_file, capsys, monkeypatch):
        from capforest import InternalSolverError

        def broken(g, caps, components):
            raise InternalSolverError("augmentation produced an invalid forest")

        monkeypatch.setattr(cli, "solve", broken)
        assert cli.main(["solve", triangle_file, "-m", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "internal error: augmentation produced an invalid forest\n"
        )

    @pytest.mark.parametrize(
        "text, bad_path, message",
        [
            (TRIANGLE, [2], "augmentation broke acyclicity: edge #2 (2,0) closes a cycle"),
            (PATH_AA, [1], "augmentation produced an invalid forest"),
            (PATH_AA, [0], "augmentation produced an invalid forest"),
        ],
    )
    def test_bad_augmenting_path_exits_three(
        self, tmp_path, capsys, monkeypatch, text, bad_path, message
    ):
        from capforest.engine import ExchangeGraph

        monkeypatch.setattr(
            ExchangeGraph, "shortest_augmenting_path", lambda self: list(bad_path)
        )
        path = tmp_path / "inst.txt"
        path.write_text(text)
        assert cli.main(["solve", str(path), "-m", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"internal error: {message}\n"

    def test_target_out_of_range_is_input_error(self, triangle_file, capsys):
        assert cli.main(["solve", triangle_file, "-m", "9"]) == 2

    @pytest.mark.parametrize("n", [MAX_INSTANCE_VERTICES + 1, 10**20])
    def test_huge_vertex_count_is_input_error(self, tmp_path, capsys, n):
        path = tmp_path / "huge.txt"
        path.write_text(f"graph {n}\n")
        assert cli.main(["solve", str(path), "-m", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: {path}:1: vertex count {n} exceeds the limit of "
            f"{MAX_INSTANCE_VERTICES}\n"
        )

    def test_sidecar_overrides_inline(self, tmp_path, capsys):
        instance = tmp_path / "inst.txt"
        instance.write_text(PATH_AA)
        sidecar = tmp_path / "caps.txt"
        sidecar.write_text("f a 2\n")
        assert cli.main(["solve", str(instance), "-m", "1", "--caps", str(sidecar)]) == 0

    def test_dot_output(self, triangle_file, tmp_path, capsys):
        dot = tmp_path / "out.dot"
        assert cli.main(["solve", triangle_file, "-m", "1", "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.count("penwidth=3") == 2


class TestCertifyCommand:
    def test_violated(self, square_file, capsys):
        code = cli.main(["certify", square_file, "-m", "1", "--colors", "a", "b"])
        out = capsys.readouterr().out
        assert code == 1
        assert "components without them: 4" in out
        assert "budget: 3" in out
        assert "violated" in out

    def test_holds(self, square_file, capsys):
        code = cli.main(["certify", square_file, "-m", "1", "--colors", "a"])
        out = capsys.readouterr().out
        assert code == 0
        assert "components without them: 2" in out
        assert "budget: 2" in out
        assert "holds" in out

    def test_empty_color_set_on_connected_graph(self, triangle_file, capsys):
        code = cli.main(["certify", triangle_file, "-m", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "components without them: 1" in out
        assert "holds" in out

    def test_unknown_color(self, triangle_file, capsys):
        assert cli.main(["certify", triangle_file, "-m", "1", "--colors", "zz"]) == 2
        assert "unknown colors: zz" in capsys.readouterr().err


    @pytest.mark.parametrize("m", [0, 4, -4])
    def test_target_out_of_range_is_input_error(self, triangle_file, capsys, m):
        assert cli.main(["certify", triangle_file, "-m", str(m)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: component count must be in 1..3, got {m}\n"


class TestOracleCommand:
    def test_agreement_on_solvable_instance(self, triangle_file, capsys):
        assert cli.main(["oracle", triangle_file, "-m", "1"]) == 0
        assert "AGREE exists=true" in capsys.readouterr().out

    def test_agreement_on_impossible_instance(self, path_file, capsys):
        assert cli.main(["oracle", path_file, "-m", "1"]) == 0
        assert "AGREE exists=false" in capsys.readouterr().out

    def test_edge_limit_is_input_error(self, tmp_path, capsys):
        # K7 on three colors: 21 edges, one more than the search accepts
        edges = [f"e {u} {v} c{(u + v) % 3}\n" for u in range(7) for v in range(u + 1, 7)]
        path = tmp_path / "k7.txt"
        path.write_text("graph 7\nfdefault 1\n" + "".join(edges))
        assert cli.main(["oracle", str(path), "-m", "1"]) == 2
        assert capsys.readouterr().err == "error: 21 edges exceed the search limit of 20\n"

    @pytest.mark.parametrize("flag", ["--max-palette", "--max-edges"])
    def test_limits_are_not_options(self, path_file, capsys, flag):
        with pytest.raises(SystemExit) as info:
            cli.main(["oracle", path_file, "-m", "1", flag, "-1"])
        assert info.value.code == 2

    def test_disagreement_exits_three(self, path_file, capsys, monkeypatch):
        from capforest import Forest, Found

        def broken(g, caps, components):
            return Found(Forest(g))

        monkeypatch.setattr(cli, "solve", broken)
        assert cli.main(["oracle", path_file, "-m", "1"]) == 3
        assert "DISAGREE" in capsys.readouterr().out


# Impossible instances and their `solve -m 1 --json` bytes, frozen from the
# solver that peeled a maximum forest; the violating set read off the final
# search must match them byte for byte.
IMPOSSIBLE_GOLDEN = [
    (  # budget-0 color c0
        "graph 7\nf c0 0\nf c1 2\nf c2 3\ne 0 3 c0\ne 0 4 c1\ne 0 5 c1\n"
        "e 1 4 c0\ne 1 6 c2\ne 2 3 c1\ne 2 5 c1\ne 2 6 c0\ne 3 6 c0\n"
        "e 4 6 c0\ne 5 6 c0\n",
        '{"bound": 3, "exists": false, "omega": 6, "violating_colors": ["c0", "c1"]}\n',
    ),
    (  # two budget-0 colors, one color left out of the set
        "graph 7\nf c0 1\nf c1 0\nf c2 3\nf c3 0\ne 0 1 c2\ne 0 3 c0\n"
        "e 0 6 c3\ne 1 2 c1\ne 1 3 c0\ne 1 5 c3\ne 1 6 c2\ne 2 4 c0\n"
        "e 2 5 c0\ne 2 6 c1\ne 3 4 c0\ne 3 5 c2\ne 4 6 c0\n",
        '{"bound": 2, "exists": false, "omega": 4, "violating_colors": ["c0", "c1", "c3"]}\n',
    ),
    (
        "graph 7\nf c0 1\nf c1 2\nf c2 1\nf c3 3\ne 0 2 c1\ne 0 5 c3\n"
        "e 0 6 c2\ne 1 2 c0\ne 1 4 c0\ne 1 6 c2\ne 2 3 c0\ne 3 4 c3\n",
        '{"bound": 3, "exists": false, "omega": 4, "violating_colors": ["c0", "c2"]}\n',
    ),
    (
        "graph 7\nf c0 2\nf c1 1\nf c2 1\nf c3 2\ne 0 1 c1\ne 0 2 c2\n"
        "e 0 5 c2\ne 1 4 c3\ne 1 5 c1\ne 1 6 c2\ne 2 3 c1\ne 2 4 c1\n"
        "e 2 5 c2\ne 2 6 c2\ne 3 4 c2\ne 3 6 c3\ne 4 5 c3\n",
        '{"bound": 5, "exists": false, "omega": 7, "violating_colors": ["c1", "c2", "c3"]}\n',
    ),
    (  # disconnected: the empty set violates
        "graph 6\nf c0 3\nf c1 3\nf c2 2\nf c3 2\ne 0 1 c0\ne 0 2 c0\n"
        "e 0 4 c3\ne 0 5 c2\ne 1 4 c0\ne 1 5 c0\ne 2 4 c1\ne 4 5 c2\n",
        '{"bound": 1, "exists": false, "omega": 2, "violating_colors": []}\n',
    ),
]


class TestSolveGoldenImpossible:
    @pytest.mark.parametrize("text, expected", IMPOSSIBLE_GOLDEN)
    def test_small_instances(self, tmp_path, capsys, text, expected):
        path = tmp_path / "inst.txt"
        path.write_text(text)
        assert cli.main(["solve", str(path), "-m", "1", "--json"]) == 1
        assert capsys.readouterr().out == expected

    def test_generated_instance_with_a_sidecar(self, tmp_path, capsys):
        inst, caps = tmp_path / "g.txt", tmp_path / "g.caps"
        assert cli.main(["gen", "--model", "gnp", "--n", "30", "--p", "0.2",
                         "--colors", "12", "--seed", "5", "--out", str(inst)]) == 0
        caps.write_text("fdefault 3\nf c0 0\nf c1 1\nf c2 1\nf c3 0\n")
        args = ["solve", str(inst), "-m", "1", "--caps", str(caps), "--json"]
        assert cli.main(args) == 1
        assert capsys.readouterr().out == (
            '{"bound": 21, "exists": false, "omega": 26, "violating_colors": '
            '["c0", "c1", "c10", "c11", "c2", "c3", "c4", "c5", "c6", "c7"]}\n'
        )


# `solve --json` at bench scale: `gen --model gnp` arguments, the budget
# sidecar, m, the exit code and the sha256 of stdout. Recorded once; a
# change to the solver must reproduce them and may never re-record them.
GOLDEN_AT_SCALE = {
    # rainbow G(600, 0.04): 7129 edges, 28 augmentations after the greedy pass
    "rainbow-600": (
        ("--n", "600", "--p", "0.04", "--colors", "600", "--seed", "3"),
        "fdefault 1\n", 1, 0,
        "b94c6d9e82df8f839fcdfe5fe494944f6139452337a05ce2d418d458d585fc51",
    ),
    # sparse rainbow G(120, 0.05) on 130 colors: augmenting paths of 5 and
    # 7 nodes
    "sparse-rainbow-120": (
        ("--n", "120", "--p", "0.05", "--colors", "130", "--seed", "2"),
        "fdefault 1\n", 1, 0,
        "6e75eeace5720cbc461a020bd4601abc45c1bcd0fc8f24675b2975ad4be90422",
    ),
    # the maximum forest has 99 edges; m = 10 prunes 9 of them
    "prune-100": (
        ("--n", "100", "--p", "0.3", "--colors", "100", "--seed", "1"),
        "fdefault 1\n", 10, 0,
        "8310b8b1d5d74167001f79341b80fd9fc0aec437e387919552e4e5d193092550",
    ),
    # impossible: in the final search 357 outside edges of c0 still have
    # spare budget, and none of them is reachable from the 18 sources
    "impossible-300": (
        ("--n", "300", "--p", "0.03", "--colors", "2", "--seed", "2"),
        "f c0 1000\nf c1 1\n", 1, 1,
        "7ba87dcb8c5b2df7484dbf57f70aa69ebf8a4ae855b30446ae9a0a67988ab3fe",
    ),
}


class TestSolveGoldenAtScale:
    @pytest.mark.parametrize(
        "name, hash_seed",
        [
            ("rainbow-600", "0"),
            ("sparse-rainbow-120", "0"),
            ("sparse-rainbow-120", "4242"),
            ("prune-100", "0"),
            ("impossible-300", "0"),
            ("impossible-300", "4242"),
        ],
    )
    def test_solve_json_bytes(self, tmp_path, name, hash_seed):
        gen_args, caps, m, code, digest = GOLDEN_AT_SCALE[name]
        inst, sidecar = tmp_path / "inst.txt", tmp_path / "inst.caps"
        assert cli.main(["gen", "--model", "gnp", *gen_args, "--out", str(inst)]) == 0
        sidecar.write_text(caps)
        env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=hash_seed)
        run = subprocess.run(
            [sys.executable, "-m", "capforest", "solve", str(inst), "-m", str(m),
             "--caps", str(sidecar), "--json"],
            env=env, capture_output=True, check=False, timeout=120,
        )
        assert run.returncode == code, run.stderr
        assert hashlib.sha256(run.stdout).hexdigest() == digest


class TestGenCommand:
    def test_factorized_k4(self, capsys):
        assert cli.main(["gen", "--model", "complete-factorized", "--n", "4"]) == 0
        text = capsys.readouterr().out
        inst = parse_instance(text)
        assert inst.graph.n == 4
        assert len(inst.graph.edges) == 6
        assert len(inst.graph.palette) == 3

    def test_gnp_golden_bytes(self, capsys):
        args = ["gen", "--model", "gnp", "--n", "6", "--p", "0.5",
                "--colors", "4", "--k", "3", "--seed", "7"]
        assert cli.main(args) == 0
        # frozen from the first run; guards generator + emitter determinism
        assert capsys.readouterr().out == (
            "graph 6\n"
            "e 0 1 c1\n"
            "e 0 2 c0\n"
            "e 0 4 c3\n"
            "e 1 2 c1\n"
            "e 1 3 c2\n"
            "e 1 5 c0\n"
            "e 2 3 c2\n"
            "e 2 4 c2\n"
            "e 2 5 c0\n"
            "e 3 4 c3\n"
            "e 4 5 c3\n"
        )

    def test_empty_gnp_writes_header_only(self, capsys):
        assert cli.main(["gen", "--model", "gnp", "--n", "3", "--p", "0"]) == 0
        assert capsys.readouterr().out == "graph 3\n"

    def test_written_file_reparses_to_same_graph(self, tmp_path):
        out = tmp_path / "g.txt"
        args = ["gen", "--model", "gnp", "--n", "7", "--p", "0.6",
                "--colors", "3", "--seed", "11", "--out", str(out)]
        assert cli.main(args) == 0
        inst = parse_instance(out.read_text())
        again = parse_instance(out.read_text())
        assert inst.graph == again.graph

    def test_vertex_limit_is_input_error(self, capsys):
        from capforest.generators import MAX_VERTICES

        args = ["gen", "--model", "complete", "--n", str(MAX_VERTICES + 1)]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: vertex count {MAX_VERTICES + 1} exceeds the generator "
            f"limit of {MAX_VERTICES}\n"
        )

    def test_infeasible_spec_is_input_error(self, capsys):
        args = ["gen", "--model", "complete", "--n", "6", "--colors", "2", "--k", "1"]
        assert cli.main(args) == 2

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--colors", "0"], "uniform coloring needs palette_size >= 1"),
            (["--colors", "0", "--k", "2"], "k_bounded coloring needs palette_size >= 1"),
            (["--k", "-1"], "k_bounded coloring needs k >= 0"),
            (["--k", "1"], "cannot place 3 edges on 1 colors with at most 1 edges each"),
        ],
    )
    def test_coloring_errors_follow_k(self, flags, message, capsys):
        assert cli.main(["gen", "--model", "complete", "--n", "3", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_factorized_ignores_colors_and_k(self, capsys):
        # the name is kept from when these flags were silently dropped
        base = ["gen", "--model", "complete-factorized", "--n", "6"]
        assert cli.main([*base, "--colors", "0", "--k", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the complete-factorized model does not read --colors --k\n"
        )

    @pytest.mark.parametrize(
        "model, flags, unread",
        [
            ("complete", ["--p", "0.5"], "--p"),
            ("complete", ["--p", "0.5", "--colors", "2", "--k", "3"], "--p"),
            ("complete-factorized", ["--p", "1"], "--p"),
            ("complete-factorized", ["--colors", "1"], "--colors"),
            ("complete-factorized", ["--k", "3"], "--k"),
            ("complete-factorized", ["--k", "3", "--p", "0", "--colors", "5"],
             "--p --colors --k"),
        ],
    )
    def test_flags_the_model_does_not_read_are_refused(
        self, model, flags, unread, capsys, tmp_path
    ):
        out = tmp_path / "g.txt"
        args = ["gen", "--model", model, "--n", "4", *flags, "--out", str(out)]
        assert cli.main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: the {model} model does not read {unread}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "args",
        [
            ["--model", "gnp", "--n", "5", "--p", "0.5"],
            ["--model", "complete", "--n", "5"],
        ],
    )
    def test_absent_colors_means_one_color(self, args, capsys):
        assert cli.main(["gen", *args]) == 0
        absent = capsys.readouterr().out
        assert cli.main(["gen", *args, "--colors", "1"]) == 0
        assert capsys.readouterr().out == absent
        assert {e.color for e in parse_instance(absent).graph.edges} == {"c0"}


class TestSweepCommand:
    def test_small_clean_sweep(self, capsys):
        assert cli.main(["sweep", "--count", "8", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "oracle-agreement: 8/8 passed" in out
        assert "all laws hold" in out

    def test_zero_count_is_vacuously_clean(self, capsys):
        assert cli.main(["sweep", "--count", "0"]) == 0

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--max-n", "0"], "max_n must be in 1..2000, got 0"),
            (["--max-n", "-3"], "max_n must be in 1..2000, got -3"),
            (["--max-n", "2001"], "max_n must be in 1..2000, got 2001"),
            (["--count", "-1"], "instance count must be non-negative, got -1"),
        ],
    )
    def test_bad_sizes_are_input_errors(self, capsys, monkeypatch, args, message):
        def no_instances(*_):
            raise AssertionError("an instance was built")

        monkeypatch.setattr(sweeps, "_instance_rng", no_instances)
        assert cli.main(["sweep", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_corrupted_solver_is_caught(self, monkeypatch):
        # negative control: a solver that always claims success must trip
        # the agreement law
        from capforest import Forest, Found

        def broken(g, caps, components):
            return Found(Forest(g))

        monkeypatch.setattr(sweeps, "solve", broken)
        report = sweeps.run_oracle_agreement(20, 5)
        assert not report.ok
        assert report.first_failing_key is not None

    def test_cli_reports_violations_with_exit_three(self, capsys, monkeypatch):
        def rigged(count, seed, max_n=7):
            return [sweeps.LawReport("oracle-agreement", 0, 1, f"{seed}:agreement:0")]

        monkeypatch.setattr(sweeps, "run_all", rigged)
        assert cli.main(["sweep", "--count", "1", "--seed", "9"]) == 3
        out = capsys.readouterr().out
        assert "first failure: 9:agreement:0" in out
        assert "LAW VIOLATION" in out


class TestDeterminism:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "capforest", *args],
            capture_output=True,
            check=False,
        )

    def test_gen_is_byte_identical_across_runs(self):
        args = ("gen", "--model", "gnp", "--n", "7", "--p", "0.5",
                "--colors", "3", "--seed", "42")
        first = self.run_cli(*args)
        second = self.run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout

    def test_solve_is_byte_identical_across_runs(self, tmp_path):
        instance = tmp_path / "inst.txt"
        instance.write_text(SQUARE)
        args = ("solve", str(instance), "-m", "2", "--json")
        first = self.run_cli(*args)
        second = self.run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
