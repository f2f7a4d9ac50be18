"""Tests for METIS / edge-list / partition-file I/O."""

from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import (
    GraphError,
    from_coo,
    from_edges,
    read_edge_list,
    read_metis,
    read_partition,
    write_edge_list,
    write_metis,
    write_partition,
)

from ..conftest import random_graphs


class TestMetisFormat:
    def test_round_trip_unweighted(self, two_triangles, tmp_path):
        path = tmp_path / "g.metis"
        write_metis(two_triangles, path)
        again = read_metis(path)
        assert sorted(again.edges()) == sorted(two_triangles.edges())

    def test_round_trip_weighted(self, weighted_square, tmp_path):
        path = tmp_path / "w.metis"
        write_metis(weighted_square, path)
        again = read_metis(path)
        assert sorted(again.edges()) == sorted(weighted_square.edges())
        assert again.vwgt.tolist() == weighted_square.vwgt.tolist()

    def test_header_omits_fmt_for_unit_weights(self, two_triangles):
        buf = io.StringIO()
        write_metis(two_triangles, buf)
        assert buf.getvalue().splitlines()[0] == "6 7"

    def test_reads_comments(self):
        text = "% a comment\n3 2\n2\n% inline comment\n1 3\n2\n"
        g = read_metis(io.StringIO(text))
        assert g.num_nodes == 3
        assert g.num_edges == 2

    def test_blank_line_is_isolated_node(self):
        text = "3 1\n2\n1\n\n"
        g = read_metis(io.StringIO(text))
        assert g.num_nodes == 3
        assert g.degree(2) == 0

    def test_rejects_wrong_edge_count(self):
        text = "3 5\n2\n1 3\n2\n"
        with pytest.raises(GraphError, match="promised"):
            read_metis(io.StringIO(text))

    def test_rejects_wrong_line_count(self):
        with pytest.raises(GraphError, match="adjacency lines"):
            read_metis(io.StringIO("3 1\n2\n1\n"))

    def test_rejects_node_sizes(self):
        with pytest.raises(GraphError, match="not supported"):
            read_metis(io.StringIO("1 0 100\n\n"))

    def test_rejects_empty_file(self):
        with pytest.raises(GraphError, match="empty"):
            read_metis(io.StringIO("% nothing\n"))

    @given(random_graphs(min_nodes=1, max_nodes=25))
    def test_round_trip_random(self, graph):
        buf = io.StringIO()
        write_metis(graph, buf)
        buf.seek(0)
        again = read_metis(buf)
        assert sorted(again.edges()) == sorted(graph.edges())
        assert again.vwgt.tolist() == graph.vwgt.tolist()


def _square(node_weights: bool, edge_weights: bool):
    return from_edges(
        5,  # node 4 is isolated: its adjacency line is blank
        [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)],
        weights=[3, 1, 4, 1, 5] if edge_weights else None,
        vwgt=np.array([2, 7, 1, 8, 2]) if node_weights else None,
    )


def loop_read_metis(text: str):
    """The per-token loop reader the vectorised one replaced: the oracle."""
    lines = [ln for ln in text.splitlines() if not ln.lstrip().startswith("%")]
    while lines and not lines[0].strip():
        lines.pop(0)
    header = lines[0].split()
    n = int(header[0])
    fmt = (header[2] if len(header) > 2 else "000").zfill(3)
    node_weights, edge_weights = fmt[1] == "1", fmt[2] == "1"
    vwgt = np.ones(n, dtype=np.int64)
    rows, cols, wgts = [], [], []
    for v, line in enumerate(lines[1 : n + 1]):
        tokens = [int(tok) for tok in line.split()]
        pos = 0
        if node_weights:
            vwgt[v] = tokens[0]
            pos = 1
        while pos < len(tokens):
            u = tokens[pos] - 1
            pos += 1
            w = 1
            if edge_weights:
                w = tokens[pos]
                pos += 1
            if u > v:
                rows.append(v)
                cols.append(u)
                wgts.append(w)
    return from_coo(n, rows, cols, wgts, vwgt=vwgt)


@st.composite
def metis_texts(draw):
    """Valid but untidy METIS bodies: one-sided and duplicate arcs with
    conflicting weights, self-loops, comments and blank lines."""
    n = draw(st.integers(1, 8))
    fmt = draw(st.sampled_from(["", "000", "010", "001", "011", "1", "11"]))
    flags = fmt.zfill(3)
    body = []
    for _ in range(n):
        tokens = [draw(st.integers(1, 9))] if flags[1] == "1" else []
        for _ in range(draw(st.integers(0, 4))):
            tokens.append(draw(st.integers(1, n)))
            if flags[2] == "1":
                tokens.append(draw(st.integers(1, 5)))
        body.append(" ".join(map(str, tokens)))
        if draw(st.booleans()) and draw(st.booleans()):
            body.append("% comment")
    unchecked = f"{n} 0 {fmt}\n" + "\n".join(body) + "\n"
    m = loop_read_metis(unchecked).num_edges
    return f"% generated\n{n} {m} {fmt}\n" + "\n".join(body) + "\n"


class TestMetisReader:
    @given(metis_texts())
    def test_matches_loop_reader(self, text):
        got, want = read_metis(io.StringIO(text)), loop_read_metis(text)
        for field in ("xadj", "adjncy", "adjwgt", "vwgt"):
            assert getattr(got, field).dtype == getattr(want, field).dtype, field
            assert getattr(got, field).tolist() == getattr(want, field).tolist(), field

    @pytest.mark.parametrize("node_weights,edge_weights,header", [
        (False, False, "5 5"),
        (True, False, "5 5 010"),
        (False, True, "5 5 001"),
        (True, True, "5 5 011"),
    ])
    def test_round_trip_every_fmt(self, node_weights, edge_weights, header, tmp_path):
        graph = _square(node_weights, edge_weights)
        path = tmp_path / "g.metis"
        write_metis(graph, path)
        assert path.read_text().splitlines()[0] == header
        again = read_metis(path)
        for field in ("xadj", "adjncy", "adjwgt", "vwgt"):
            got, want = getattr(again, field), getattr(graph, field)
            assert got.dtype == np.int64, field
            assert got.tolist() == want.tolist(), field
        assert again.name == "g"

    def test_comment_lines_anywhere(self):
        text = "% head\n  % indented\n3 2 001\n2 4\n%mid\n1 4 3 9\n% tail\n2 9\n"
        g = read_metis(io.StringIO(text))
        assert sorted(g.edges()) == [(0, 1, 4), (1, 2, 9)]

    def test_blank_lines_are_isolated_nodes(self):
        g = read_metis(io.StringIO("4 1\n\n3\n2\n\n"))
        assert g.degrees.tolist() == [0, 1, 1, 0]

    def test_all_blank_body(self):
        g = read_metis(io.StringIO("3 0\n\n\n\n"))
        assert g.num_nodes == 3 and g.num_edges == 0

    def test_arc_listed_only_on_the_higher_side_counts(self):
        # Only entries u > v count: node 1 lists 2, node 2 lists nothing.
        g = read_metis(io.StringIO("3 1\n2\n\n\n"))
        assert sorted(g.edges()) == [(0, 1, 1)]

    def test_arc_listed_only_on_the_lower_side_is_ignored(self):
        g = read_metis(io.StringIO("3 0\n\n1\n\n"))
        assert g.num_edges == 0

    def test_tabs_and_extra_spaces(self):
        g = read_metis(io.StringIO("3 2\n\t2  \n 1\t 3\n2\n"))
        assert sorted(g.edges()) == [(0, 1, 1), (1, 2, 1)]

    @pytest.mark.parametrize("text,message", [
        # non-integer tokens, in the body and in the header
        ("3 2\n2\n1 x\n2\n", r"^line 3: 'x' is not an integer$"),
        ("3 2\n2\n1 3.0\n2\n", r"^line 3: '3.0' is not an integer$"),
        ("3 2\n2\n1 - 3\n2\n", r"^line 3: '-' is not an integer$"),
        ("3 two\n2\n1 3\n2\n", r"^line 1: 'two' is not an integer$"),
        ("3\n", r"^line 1: METIS header needs"),
        # odd token count on an edge-weighted line (would pair across lines)
        ("3 2 001\n2 5\n1 5 3\n2\n", r"^line 3: odd number of neighbour/weight"),
        ("3 2 011\n1 2 5\n1 1 5 3\n1 2\n", r"^line 3: odd number of neighbour/weight"),
        # missing node weight
        ("3 2 010\n1 2\n\n1 2\n", r"^line 3: missing node weight$"),
        # neighbour outside [1, n]
        ("3 2\n2\n1 4\n2\n", r"^line 3: neighbour 4 is outside \[1, 3\]$"),
        ("3 2\n2\n0 1 3\n2\n", r"^line 3: neighbour 0 is outside \[1, 3\]$"),
        ("3 2\n-2\n1 3\n2\n", r"^line 2: neighbour -2 is outside \[1, 3\]$"),
        # comment lines still count towards the reported file line
        ("% c\n3 2\n% c\n2\n1 x\n2\n", r"^line 5: 'x' is not an integer$"),
        ("% c\n3 2 001\n\n% c\n2 1 3 1\n2\n", r"^line 6: odd number"),
    ])
    def test_malformed_names_the_line(self, text, message):
        with pytest.raises(GraphError, match=message):
            read_metis(io.StringIO(text))

    def test_malformed_file_names_the_path(self, tmp_path):
        path = tmp_path / "bad.metis"
        path.write_text("3 2\n2\n1 x\n2\n")
        with pytest.raises(GraphError) as info:
            read_metis(path)
        assert str(info.value) == f"{path}: line 3: 'x' is not an integer"


class TestEdgeListFormat:
    def test_round_trip(self, weighted_square, tmp_path):
        path = tmp_path / "g.edges"
        write_edge_list(weighted_square, path)
        again = read_edge_list(path)
        assert sorted(again.edges()) == sorted(weighted_square.edges())


class TestPartitionFiles:
    def test_round_trip(self, tmp_path):
        part = np.array([0, 1, 2, 1, 0])
        path = tmp_path / "p.txt"
        write_partition(part, path)
        assert read_partition(path).tolist() == part.tolist()

    def test_single_entry(self, tmp_path):
        path = tmp_path / "p1.txt"
        write_partition(np.array([3]), path)
        assert read_partition(path).tolist() == [3]

    def test_non_integer_names_path_and_line(self, tmp_path):
        path = tmp_path / "bad.part"
        path.write_text("0\n1\nblock2\n")
        with pytest.raises(GraphError) as info:
            read_partition(path)
        assert str(info.value) == f"{path}: line 3: 'block2' is not an integer"

    def test_ragged_rows_raise_graph_error(self, tmp_path):
        path = tmp_path / "ragged.part"
        path.write_text("0\n1 2\n")
        with pytest.raises(GraphError, match=str(path)):
            read_partition(path)
