from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from capforest import (
    ColoredGraph,
    Forest,
    InstanceParseError,
    PreconditionError,
    cli,
)
from capforest.graph import Edge
from capforest.instance_io import (
    MAX_VERTICES,
    emit_instance,
    graph_to_dot,
    parse_capacity_file,
    parse_instance,
    resolve_capacities,
)

SAMPLE = """\
# a triangle with inline budgets
graph 3
f a 1
f b 2
fdefault 1
e 0 1 a
e 1 2 b
e 2 0 c
"""


class TestParseInstance:
    def test_sample(self):
        inst = parse_instance(SAMPLE, source="sample")
        assert inst.graph.n == 3
        assert [(e.u, e.v, e.color) for e in inst.graph.edges] == [
            (0, 1, "a"),
            (1, 2, "b"),
            (2, 0, "c"),
        ]
        assert inst.capacities == {"a": 1, "b": 2}
        assert inst.default_capacity == 1

    def test_missing_header(self):
        with pytest.raises(InstanceParseError, match="missing 'graph"):
            parse_instance("# only a comment\n")

    def test_edge_before_header(self):
        with pytest.raises(InstanceParseError, match="t.txt:2: edge before"):
            parse_instance("# x\ne 0 1 a\ngraph 3\n", source="t.txt")

    def test_duplicate_header(self):
        with pytest.raises(InstanceParseError, match=":2: duplicate 'graph'"):
            parse_instance("graph 3\ngraph 3\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(InstanceParseError, match=":2: vertex out of range"):
            parse_instance("graph 2\ne 0 2 a\n")

    def test_loop_rejected(self):
        with pytest.raises(InstanceParseError, match=":2: loop"):
            parse_instance("graph 2\ne 1 1 a\n")

    def test_duplicate_pair_rejected(self):
        with pytest.raises(InstanceParseError, match=":3: duplicate edge"):
            parse_instance("graph 2\ne 0 1 a\ne 1 0 b\n")

    def test_duplicate_capacity_rejected(self):
        with pytest.raises(InstanceParseError, match=":3: duplicate capacity"):
            parse_instance("graph 2\nf a 1\nf a 2\n")

    def test_duplicate_default_rejected(self):
        with pytest.raises(InstanceParseError, match=":3: duplicate 'fdefault'"):
            parse_instance("graph 2\nfdefault 1\nfdefault 2\n")

    def test_unknown_directive(self):
        with pytest.raises(InstanceParseError, match=":1: unknown directive 'edge'"):
            parse_instance("edge 0 1 a\n")

    def test_negative_capacity_rejected(self):
        with pytest.raises(InstanceParseError, match="non-negative"):
            parse_instance("graph 2\nf a -1\n")

    def test_vertex_count_at_the_limit_is_accepted(self):
        assert parse_instance(f"graph {MAX_VERTICES}\n").graph.n == MAX_VERTICES

    def test_bad_vertex_token(self):
        with pytest.raises(InstanceParseError, match="must be an integer"):
            parse_instance("graph 2\ne zero 1 a\n")


    def test_trailing_comments_are_stripped(self):
        inst = parse_instance("graph 3  # three\ne 0 1 a # first\nf a 1 #\n")
        assert inst.graph.n == 3
        assert [tuple(e) for e in inst.graph.edges] == [(0, 1, "a")]
        assert inst.capacities == {"a": 1}

    def test_hash_inside_a_token_is_not_a_comment(self):
        inst = parse_instance("graph 2\ne 0 1 a#b\nf a#b 2\n")
        assert inst.graph.edges[0].color == "a#b"
        assert inst.capacities == {"a#b": 2}

    @pytest.mark.parametrize(
        "text, message",
        [
            ("graph 3\ne 0 1 a\ne 1 0 b\n", "f.txt:3: duplicate edge {1,0}"),
            ("graph 3\ne x 1 a\n", "f.txt:2: vertex id must be an integer, got 'x'"),
            ("graph 3\ne 0 1.5 a\n", "f.txt:2: vertex id must be an integer, got '1.5'"),
            ("graph 3\ne 0 3 a\n", "f.txt:2: vertex out of range 0..2"),
            ("graph 3\ne -1 2 a\n", "f.txt:2: vertex out of range 0..2"),
            ("graph 3\ne 2 2 a\n", "f.txt:2: loop at vertex 2"),
            ("graph 3\ne 0 1\n", "f.txt:2: expected 'e <u> <v> <color>'"),
            ("graph 3\ne 0 1 a b\n", "f.txt:2: expected 'e <u> <v> <color>'"),
            ("# c\ne 0 1 a\ngraph 3\n", "f.txt:2: edge before 'graph' header"),
            ("e 0 1\ngraph 3\n", "f.txt:1: edge before 'graph' header"),
        ],
    )
    def test_bad_edge_line_messages(self, text, message):
        with pytest.raises(InstanceParseError) as info:
            parse_instance(text, source="f.txt")
        assert str(info.value) == message

    def test_every_pair_once_is_accepted(self):
        # the duplicate key min * n + max must not collide across pairs
        n = 7
        lines = [f"e {u} {v} a" for u in range(n) for v in range(u + 1, n)]
        inst = parse_instance(f"graph {n}\n" + "\n".join(lines) + "\n")
        assert len(inst.graph.edges) == n * (n - 1) // 2

    # str.splitlines breaks at each of these; a file read by open() does not
    @pytest.mark.parametrize(
        "sep", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_lines_break_only_at_newlines(self, sep):
        with pytest.raises(InstanceParseError) as info:
            parse_instance(f"graph 2{sep}\ne 0 5 a\n", source="ff.txt")
        assert str(info.value) == "ff.txt:2: vertex out of range 0..1"
        inst = parse_instance(f"graph 2\ne 0{sep}1 a{sep}\nf a{sep}1\n")
        assert [tuple(e) for e in inst.graph.edges] == [(0, 1, "a")]
        assert inst.capacities == {"a": 1}
        with pytest.raises(InstanceParseError) as info:
            parse_capacity_file(f"f a 1{sep}\nf a 2\n", source="c.txt")
        assert str(info.value) == "c.txt:2: duplicate capacity for color 'a'"

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_texts_parse_as_lf_texts(self, newline):
        assert parse_instance(SAMPLE.replace("\n", newline)) == parse_instance(SAMPLE)
        with pytest.raises(InstanceParseError) as info:
            parse_instance(newline.join(["graph 3", "", "e 0 3 a", ""]), source="f.txt")
        assert str(info.value) == "f.txt:3: vertex out of range 0..2"
        text = newline.join(["f a 1", "fdefault 2", ""])
        assert parse_capacity_file(text) == ({"a": 1}, 2)

    def test_solve_reports_the_line_of_the_file(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "ff.txt").write_bytes(b"graph 2\x0c\ne 0 5 a\n")
        monkeypatch.chdir(tmp_path)
        assert cli.main(["solve", "ff.txt", "-m", "1"]) == 2
        assert capsys.readouterr().err == "error: ff.txt:2: vertex out of range 0..1\n"


def readme_instance_example():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Instance file format", 1)[1]
    return section.split("```", 2)[1].lstrip("\n")


class TestReadmeExample:
    def test_parses_verbatim(self):
        inst = parse_instance(readme_instance_example(), source="readme_ex.txt")
        assert inst.graph.n == 4
        assert [tuple(e) for e in inst.graph.edges] == [
            (0, 1, "red"),
            (1, 2, "red"),
            (2, 3, "blue"),
        ]
        assert inst.capacities == {"red": 1}
        assert inst.default_capacity == 2

    def test_solves_from_the_command_line(self, tmp_path, capsys):
        path = tmp_path / "readme_ex.txt"
        path.write_text(readme_instance_example())
        assert cli.main(["solve", str(path), "-m", "2"]) == 0
        assert cli.main(["solve", str(path), "-m", "1"]) == 1


@st.composite
def instance_files(draw):
    """A valid instance file, with the vertex count and edges it declares."""
    n = draw(st.integers(0, 9))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    lines = [f"graph {n}  # header"]
    edges = []
    for u, v in chosen:
        if draw(st.booleans()):
            u, v = v, u
        color = draw(st.sampled_from(["a", "b", "c7", "7", "x-y", "\u00e4"]))
        u_token = draw(st.sampled_from([str(u), f"0{u}", f"+{u}"]))
        comment = draw(st.sampled_from(["", "  # note", " #"]))
        lines.append(f"e {u_token} {v} {color}{comment}")
        lines.extend(draw(st.lists(st.sampled_from(["", "# c"]), max_size=1)))
        edges.append((u, v, color))
    lines.extend(draw(st.lists(st.sampled_from(["fdefault 2", "f a 1"]), unique=True)))
    return "\n".join(lines) + "\n", n, edges


class TestParsedGraph:
    """The parser stores the edges it checked without validating them again."""

    @given(instance_files())
    def test_equals_the_fully_validated_graph(self, case):
        text, n, edges = case
        graph = parse_instance(text).graph
        assert graph == ColoredGraph(n, edges)
        assert hash(graph) == hash(ColoredGraph(n, edges))
        assert all(type(e) is Edge for e in graph.edges)


class TestRoundTrip:
    def test_emit_then_parse_is_identity(self):
        inst = parse_instance(SAMPLE)
        text = emit_instance(inst.graph, inst.capacities, inst.default_capacity)
        again = parse_instance(text)
        assert again.graph == ColoredGraph(inst.graph.n, inst.graph.edges)
        assert again.capacities == inst.capacities
        assert again.default_capacity == inst.default_capacity

    @pytest.mark.parametrize("color", ["#x", "a b", ""])
    def test_emit_rejects_colors_that_would_not_read_back(self, color):
        with pytest.raises(PreconditionError):
            emit_instance(ColoredGraph(2, [(0, 1, color)]))
        with pytest.raises(PreconditionError):
            emit_instance(ColoredGraph(2), {color: 1})

    def test_emit_is_stable(self):
        inst = parse_instance(SAMPLE)
        text = emit_instance(inst.graph, inst.capacities, inst.default_capacity)
        assert text == emit_instance(inst.graph, inst.capacities, inst.default_capacity)


class TestCapacityResolution:
    def test_sidecar_overrides_inline(self):
        inst = parse_instance(SAMPLE)
        sidecar = parse_capacity_file("f a 9\nfdefault 4\n")
        caps = resolve_capacities(inst, sidecar)
        assert caps.cap("a") == 9     # sidecar wins
        assert caps.cap("b") == 2     # inline survives
        assert caps.cap("zz") == 4    # sidecar default wins

    def test_no_sidecar_uses_inline(self):
        caps = resolve_capacities(parse_instance(SAMPLE))
        assert caps.cap("a") == 1 and caps.cap("c") == 1

    def test_capacity_file_rejects_edges(self):
        with pytest.raises(InstanceParseError, match="unknown directive 'e'"):
            parse_capacity_file("e 0 1 a\n")

    def test_capacity_file_strips_trailing_comments(self):
        assert parse_capacity_file("f a 1 # one\nfdefault 2 #\n") == ({"a": 1}, 2)

    def test_capacity_file_rejects_duplicates(self):
        with pytest.raises(InstanceParseError, match="duplicate capacity"):
            parse_capacity_file("f a 1\nf a 1\n")

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("f a\n", 1, "expected 'f <color> <cap>'"),
            ("f a 1 2\n", 1, "expected 'f <color> <cap>'"),
            ("f a 1\nf a 2\n", 2, "duplicate capacity for color 'a'"),
            ("f a x\n", 1, "capacity must be an integer, got 'x'"),
            ("f a -1\n", 1, "capacity must be non-negative"),
            ("fdefault\n", 1, "expected 'fdefault <cap>'"),
            ("fdefault 1 2\n", 1, "expected 'fdefault <cap>'"),
            ("fdefault 1\nfdefault 1\n", 2, "duplicate 'fdefault'"),
            ("fdefault -2\n", 1, "capacity must be non-negative"),
        ],
    )
    def test_capacity_line_messages_match_in_both_files(self, text, line, message):
        with pytest.raises(InstanceParseError) as sidecar:
            parse_capacity_file(text, source="c.txt")
        assert str(sidecar.value) == f"c.txt:{line}: {message}"
        with pytest.raises(InstanceParseError) as inline:
            parse_instance("graph 2\n" + text, source="c.txt")
        assert str(inline.value) == f"c.txt:{line + 1}: {message}"


class TestDot:
    def test_forest_edges_are_bold(self):
        inst = parse_instance(SAMPLE)
        forest = Forest(inst.graph, (0, 1))
        dot = graph_to_dot(inst.graph, forest)
        assert dot.count("penwidth=3") == 2
        assert '  0 -- 1 [label="a", penwidth=3];' in dot
        assert '  2 -- 0 [label="c"];' in dot

    def test_plain_graph(self):
        inst = parse_instance(SAMPLE)
        dot = graph_to_dot(inst.graph)
        assert "penwidth" not in dot
        assert dot.startswith("graph instance {")
