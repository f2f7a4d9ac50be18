"""Unit tests for graph builders."""

from __future__ import annotations

import importlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graph import (
    check_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    from_adjacency,
    from_coo,
    from_edges,
    from_networkx,
    from_scipy,
    path_graph,
    star_graph,
    to_networkx,
    to_scipy,
)

from ..conftest import random_graphs


def scipy_from_coo(num_nodes, rows, cols, weights=None, vwgt=None, name="graph"):
    """The SciPy ``from_coo`` the NumPy builder replaced: the oracle.

    ``A + A.T`` over the canonicalised upper triangle with duplicate
    summation; SciPy's sparse addition drops entries that sum to 0.
    """
    import scipy.sparse as sp

    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if weights is None:
        weights = np.ones(rows.size, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    keep = rows != cols
    rows, cols, weights = rows[keep], cols[keep], weights[keep]
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    upper = sp.coo_matrix((weights, (lo, hi)), shape=(num_nodes, num_nodes))
    upper.sum_duplicates()
    mat = (upper + upper.T).tocsr()
    mat.sort_indices()
    return from_scipy(mat, vwgt=vwgt, name=name)


def assert_bit_identical(got, want):
    for field in ("xadj", "adjncy", "adjwgt", "vwgt"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype, field
        np.testing.assert_array_equal(a, b, err_msg=field)


@st.composite
def coo_inputs(draw):
    """Random COO triples over few ids, so duplicates collide often.

    Covers self-loops, both orientations of one edge, negative weights,
    edges whose weights sum to 0 (each triple may get a reversed,
    negated twin), n = 0 and isolated trailing nodes.
    """
    used = draw(st.integers(0, 10))
    trailing = draw(st.integers(0, 3))
    if used == 0:
        return trailing, [], [], []
    ids = st.integers(0, used - 1)
    triples = draw(st.lists(st.tuples(ids, ids, st.integers(-3, 3)), max_size=40))
    twins = draw(st.lists(st.booleans(), min_size=len(triples), max_size=len(triples)))
    triples += [(v, u, -w) for (u, v, w), twin in zip(triples, twins) if twin]
    order = draw(st.permutations(range(len(triples))))
    rows, cols, weights = zip(*(triples[i] for i in order)) if triples else ((), (), ())
    return used + trailing, list(rows), list(cols), list(weights)


class TestFromCooDifferential:
    """The NumPy ``from_coo`` is bit-identical to the SciPy one it replaced."""

    @given(coo_inputs())
    def test_matches_scipy_oracle(self, case):
        n, rows, cols, weights = case
        got = from_coo(n, rows, cols, weights)
        assert_bit_identical(got, scipy_from_coo(n, rows, cols, weights))

    @given(coo_inputs())
    def test_matches_scipy_oracle_unit_weights(self, case):
        n, rows, cols, _ = case
        got = from_coo(n, rows, cols)
        assert_bit_identical(got, scipy_from_coo(n, rows, cols))

    def test_zero_sum_edge_dropped(self):
        g = from_coo(3, [0, 1, 1], [1, 0, 2], [4, -4, 2])
        assert sorted(g.edges()) == [(1, 2, 2)]

    def test_node_weights_passed_through(self):
        vwgt = np.array([3, 1, 4], dtype=np.int64)
        g = from_coo(3, [0], [2], vwgt=vwgt)
        assert_bit_identical(g, scipy_from_coo(3, [0], [2], vwgt=vwgt))

    @pytest.mark.parametrize("build", [from_coo, scipy_from_coo])
    @pytest.mark.parametrize("n,rows,cols", [
        (3, [0], [3]),
        (3, [5], [1]),
        (3, [-1], [1]),
        (3, [1], [-2]),
        (0, [0], [1]),
    ])
    def test_bad_ids_raise(self, build, n, rows, cols):
        with pytest.raises(ValueError):
            build(n, rows, cols)

    @pytest.mark.parametrize("make", [
        lambda g: g.barabasi_albert(150, attach=3, seed=1),
        lambda g: g.powerlaw_cluster(150, attach=4, triad_probability=0.5, seed=2),
        lambda g: g.web_copy_graph(200, out_degree=8, copy_probability=0.8, seed=3),
        lambda g: g.web_copy_graph(200, out_degree=6, leaf_fraction=0.5, seed=4),
        lambda g: g.delaunay(7, seed=5),
        lambda g: g.grid_2d(9, 11),
        lambda g: g.grid_3d(4, 5, 6),
        lambda g: g.rgg(7, seed=6),
    ], ids=["ba", "powerlaw_cluster", "web", "web_leaves", "delaunay",
            "grid_2d", "grid_3d", "rgg"])
    def test_suite_generators_match_oracle(self, make, monkeypatch):
        # Every generator behind the Table I registry builds through
        # from_coo (directly or via from_edges); check each call it makes.
        calls = []

        def checked(num_nodes, rows, cols, weights=None, vwgt=None, name="graph"):
            got = from_coo(num_nodes, rows, cols, weights, vwgt=vwgt, name=name)
            assert_bit_identical(
                got, scipy_from_coo(num_nodes, rows, cols, weights, vwgt=vwgt, name=name)
            )
            calls.append(name)
            return got

        for module in ("repro.graph.build", "repro.generators.delaunay",
                       "repro.generators.mesh", "repro.generators.rgg"):
            monkeypatch.setattr(importlib.import_module(module), "from_coo", checked)
        graph = make(importlib.import_module("repro.generators"))
        assert calls and graph.num_edges > 0


class TestFromEdges:
    def test_simple_triangle(self):
        g = from_edges(3, [(0, 1), (1, 2), (2, 0)])
        assert g.num_edges == 3
        check_graph(g)

    def test_duplicate_edges_merge_weights(self):
        g = from_edges(2, [(0, 1), (0, 1), (1, 0)], weights=[2, 3, 5])
        assert g.num_edges == 1
        assert g.incident_weights(0).tolist() == [10]

    def test_self_loops_dropped(self):
        g = from_edges(3, [(0, 0), (1, 2)])
        assert g.num_edges == 1
        check_graph(g)

    def test_empty_edge_list(self):
        g = from_edges(4, [])
        assert g.num_nodes == 4
        assert g.num_edges == 0

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="pairs"):
            from_edges(3, np.array([[0, 1, 2]]))

    def test_rejects_mismatched_weights(self):
        with pytest.raises(ValueError, match="parallel"):
            from_edges(3, [(0, 1)], weights=[1, 2])

    def test_node_weights_kept(self):
        g = from_edges(2, [(0, 1)], vwgt=np.array([7, 9]))
        assert g.vwgt.tolist() == [7, 9]


class TestScipyRoundTrip:
    def test_round_trip_preserves_graph(self, two_triangles):
        again = from_scipy(to_scipy(two_triangles))
        assert sorted(again.edges()) == sorted(two_triangles.edges())

    def test_from_scipy_drops_diagonal(self):
        import scipy.sparse as sp

        mat = sp.csr_matrix(np.array([[5, 1], [1, 0]]))
        g = from_scipy(mat)
        assert g.num_edges == 1
        check_graph(g)


class TestNetworkxRoundTrip:
    def test_round_trip(self, karate):
        nx_g = to_networkx(karate)
        again = from_networkx(nx_g)
        assert again.num_nodes == karate.num_nodes
        assert sorted(again.edges()) == sorted(karate.edges())

    def test_weights_survive(self):
        import networkx as nx

        nx_g = nx.Graph()
        nx_g.add_edge(0, 1, weight=4)
        g = from_networkx(nx_g)
        assert g.incident_weights(0).tolist() == [4]


class TestTinyGraphs:
    def test_empty(self):
        g = empty_graph(5)
        assert g.num_nodes == 5 and g.num_edges == 0

    def test_complete(self):
        g = complete_graph(5)
        assert g.num_edges == 10
        assert np.all(g.degrees == 4)

    def test_path(self):
        g = path_graph(5)
        assert g.num_edges == 4
        assert g.degrees.tolist() == [1, 2, 2, 2, 1]

    def test_cycle(self):
        g = cycle_graph(5)
        assert g.num_edges == 5
        assert np.all(g.degrees == 2)

    def test_cycle_too_small(self):
        with pytest.raises(ValueError):
            cycle_graph(2)

    def test_star(self):
        g = star_graph(4)
        assert g.degree(0) == 4
        assert g.num_edges == 4

    def test_from_adjacency(self):
        g = from_adjacency([[1, 2], [0, 2], [0, 1]])
        assert g.num_edges == 3


class TestProperties:
    @given(random_graphs())
    def test_builders_always_produce_valid_graphs(self, graph):
        check_graph(graph)

    @given(random_graphs())
    def test_arc_count_is_even(self, graph):
        assert graph.num_arcs % 2 == 0

    @given(random_graphs())
    def test_coo_round_trip(self, graph):
        src = graph.arc_sources()
        mask = src < graph.adjncy
        again = from_coo(
            graph.num_nodes,
            src[mask],
            graph.adjncy[mask],
            graph.adjwgt[mask],
            vwgt=graph.vwgt,
        )
        assert sorted(again.edges()) == sorted(graph.edges())
