"""The command line's exit-code contract under seeded fuzzing.

``cli.main`` runs in-process on mutated instance files, capacity files and
argument vectors, for all five subcommands. Every run must exit 0, 1 or 2
without a traceback, and write to stderr nothing or one ``error:`` line;
argparse's usage errors (the usage text, then one error line, exit 2) are
the one exception. Every ``solve`` verdict is re-checked with the
brute-force helpers, which share no code with the engine. The seed and the
number of runs are fixed.
"""

import contextlib
import io
import json
import os
import random

import helpers
from capforest import CapforestError, cli

SEED = 20240
RUNS = 300
HUGE = "99999999999999999999"
# tokens that the parsers and the commands must each accept or refuse
VALUES = ["-1", "0", "1", "2", "3", "7", "x", "1.5", "", "nan", HUGE, "c0", "#", "e"]


def base_instance(rng, n):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    lines = [f"graph {n}"]
    if rng.random() < 0.5:
        lines.append(f"fdefault {rng.randint(0, 2)}")
    lines += [f"f c{j} {rng.randint(0, 2)}" for j in range(rng.randint(0, 2))]
    for u, v in pairs[: rng.randint(0, 8)]:
        lines.append(f"e {u} {v} c{rng.randrange(3)}")
    return "\n".join(lines) + "\n"


def mutate(rng, text):
    """``text`` as UTF-8 with up to three byte- and token-level faults."""
    data = text.encode()
    for _ in range(rng.choice([0, 0, 0, 1, 2, 3])):
        op = rng.randrange(7)
        at = rng.randrange(len(data) + 1)
        if op == 0 and data:  # flip one byte to any value
            at = min(at, len(data) - 1)
            data = data[:at] + bytes([rng.randrange(256)]) + data[at + 1 :]
        elif op == 1:  # truncate
            data = data[:at]
        elif op == 2:  # swap two tokens
            tokens = data.split(b" ")
            i, j = rng.randrange(len(tokens)), rng.randrange(len(tokens))
            tokens[i], tokens[j] = tokens[j], tokens[i]
            data = b" ".join(tokens)
        elif op == 3:  # replace a token, huge integers included
            tokens = data.split(b" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(VALUES).encode()
            data = b" ".join(tokens)
        elif op == 4:
            data = b"\xef\xbb\xbf" + data
        elif op == 5:
            data = data[:at] + rng.choice([b"\r", b"\r\n", b"\f", b"\n"]) + data[at:]
        else:  # bytes that are not UTF-8
            data = data[:at] + rng.choice([b"\xff", b"\xc3", b"\x80"]) + data[at:]
    return data


def base_argv(rng, inst, caps, tmp_path, n):
    command = rng.choice(["solve", "certify", "oracle", "gen", "sweep"])
    m = str(rng.randint(1, n))
    with_caps = ["--caps", str(caps)] if rng.random() < 0.5 else []
    if command == "solve":
        dot = ["--dot", str(tmp_path / "out.dot")] if rng.random() < 0.2 else []
        return ["solve", str(inst), "-m", m, "--json", *with_caps, *dot]
    if command == "certify":
        colors = [f"c{j}" for j in range(rng.randint(0, 3))]
        return ["certify", str(inst), "-m", m, *with_caps, "--colors", *colors]
    if command == "oracle":
        return ["oracle", str(inst), "-m", m, *with_caps]
    if command == "gen":
        model = rng.choice(["gnp", "complete", "complete-factorized"])
        argv = ["gen", "--model", model, "--n", str(rng.randint(0, 7))]
        if model == "gnp":
            argv += ["--p", "0.5"]
        if model != "complete-factorized":
            argv += ["--colors", str(rng.randint(1, 4))]
            if rng.random() < 0.5:
                argv += ["--k", str(rng.randint(0, 6))]
        out = rng.choice([None, tmp_path / "gen.txt", tmp_path, tmp_path / "no" / "x"])
        return argv + ([] if out is None else ["--out", str(out)])
    return ["sweep", "--count", str(rng.randint(0, 2)), "--seed", m]


def mutate_argv(rng, argv, paths):
    argv = list(argv)
    for _ in range(rng.choice([0, 0, 0, 1, 2])):
        op = rng.randrange(4)
        at = rng.randrange(1, len(argv) + 1)
        if op == 0 and at < len(argv):
            del argv[at]
        elif op == 1 and at < len(argv):
            # a sweep runs as many instances as --count asks, by design
            pool = VALUES if argv[0] != "sweep" else [v for v in VALUES if v != HUGE]
            argv[at] = rng.choice(pool + paths)
        elif op == 2:
            flag = rng.choice(["--bogus", "-m", "--caps", "--json", "--colors"])
            argv.insert(at, flag)
        elif op == 3 and at < len(argv):
            argv.insert(at, argv[at])
    return argv


def run(argv, capsys):
    """Exit code, stdout and stderr; the code is "usage" when argparse refuses."""
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code == 2
        code = "usage"
    out, err = capsys.readouterr()
    return code, out, err


def check_streams(code, err):
    if code == "usage":
        lines = err.splitlines()
        assert lines[0].startswith("usage: capforest")
        assert lines[-1].startswith("capforest") and ": error: " in lines[-1]
        assert not any(line.startswith("error:") for line in lines)
        return
    assert code in (0, 1, 2)
    assert "Traceback" not in err
    one_line = err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert err == "" or one_line
    assert (code == 2) == (err != "")


def solve_expectation(argv):
    """What ``solve`` must do with ``argv``, worked out before it runs.

    None when argparse refuses ``argv``; 2 when the files, ``-m``, a
    missing budget or the ``--dot`` path make it bad input; otherwise the
    graph, budgets, ``m`` and ``--json`` for :func:`check_verdict`. It runs
    first because ``--dot`` may overwrite one of the input files.
    """
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            args = cli.build_parser().parse_args(argv)
    except SystemExit:
        return None
    try:
        instance = cli._load_instance(args.instance)
        caps = cli._load_capacities(args, instance)
        for color in instance.graph.palette:
            caps.cap(color)
    except (CapforestError, OSError):
        return 2
    g, m = instance.graph, args.components
    dot_ok = args.dot is None or (
        not os.path.isdir(args.dot) and os.path.isdir(os.path.dirname(args.dot) or ".")
    )
    if not 1 <= m <= g.n or not dot_ok:
        return 2
    return g, caps, m, args.json


def check_verdict(expected, code, out):
    """A ``solve`` run against its expectation, verdicts by brute force."""
    if expected is None or expected == 2:
        assert code == ("usage" if expected is None else 2)
        return
    g, caps, m, as_json = expected
    exists = g.n - helpers.brute_force_max_forest_size(g, caps) <= m
    assert code == (0 if exists else 1)
    if not as_json:
        return
    payload = json.loads(out)
    assert payload["exists"] == exists
    if exists:
        edge_set = {(e.u, e.v, e.color) for e in g.edges}
        chosen = [tuple(edge) for edge in payload["forest"]]
        assert set(chosen) <= edge_set and len(set(chosen)) == len(chosen)
        assert helpers.is_acyclic(g.n, chosen)
        assert g.n - len(chosen) == m == payload["components"]
        counts = {}
        for _, _, color in chosen:
            counts[color] = counts.get(color, 0) + 1
        assert all(count <= caps.cap(color) for color, count in counts.items())
    else:
        colors = payload["violating_colors"]
        omega = helpers.components_without_colors(g, colors)
        assert omega == payload["omega"] > payload["bound"]
        assert payload["bound"] == m + sum(caps.cap(c) for c in colors)


def test_every_run_keeps_the_exit_code_contract(tmp_path, capsys, monkeypatch):
    rng = random.Random(SEED)
    codes = set()
    for index in range(RUNS):
        # a fresh directory per run, so no run truncates a file that an
        # earlier run wrote (slow on some file systems); mutated relative
        # paths such as "x" land there too
        run_dir = tmp_path / f"run{index}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        inst, caps = run_dir / "inst.txt", run_dir / "caps.txt"
        paths = [str(inst), str(caps), str(run_dir), str(run_dir / "missing.txt")]
        n = rng.randint(1, 6)
        inst.write_bytes(mutate(rng, base_instance(rng, n)))
        caps.write_bytes(mutate(rng, "fdefault 1\nf c0 2\n"))
        argv = mutate_argv(rng, base_argv(rng, inst, caps, run_dir, n), paths)
        expected = solve_expectation(argv) if argv[0] == "solve" else None
        code, out, err = run(argv, capsys)
        try:
            check_streams(code, err)
            if argv[0] == "solve":
                check_verdict(expected, code, out)
        except AssertionError as exc:
            raise AssertionError(f"run {index}: {argv!r} -> {code!r}\n{err}") from exc
        codes.add(code)
    # the generator reaches every outcome the contract allows
    assert codes == {0, 1, 2, "usage"}
