"""Builders that turn edge lists and external formats into :class:`Graph`.

All builders normalise their input the same way: edges are symmetrised,
parallel edges are merged by summing their weights, and self-loops are
dropped.  The result therefore always satisfies the invariants
:mod:`repro.graph.validation` checks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .csr import Graph

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "from_edges",
    "from_coo",
    "from_adjacency",
    "from_scipy",
    "to_scipy",
    "from_networkx",
    "to_networkx",
    "empty_graph",
    "complete_graph",
    "path_graph",
    "cycle_graph",
    "star_graph",
]


def from_edges(
    num_nodes: int,
    edges: Iterable[tuple[int, int]] | np.ndarray,
    weights: Sequence[int] | np.ndarray | None = None,
    vwgt: np.ndarray | None = None,
    name: str = "graph",
) -> Graph:
    """Build a graph from an iterable of ``(u, v)`` pairs.

    Parameters
    ----------
    num_nodes:
        Number of nodes; edge endpoints must lie in ``[0, num_nodes)``.
    edges:
        Edge pairs.  Direction is ignored; duplicates (including the
        reverse orientation) are merged by summing weights.
    weights:
        Optional per-edge weights (default 1).
    vwgt:
        Optional node weights (default 1).
    """
    arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges, dtype=np.int64)
    if arr.size == 0:
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("edges must be an iterable of (u, v) pairs")
    w = (
        np.ones(arr.shape[0], dtype=np.int64)
        if weights is None
        else np.asarray(weights, dtype=np.int64)
    )
    if w.shape[0] != arr.shape[0]:
        raise ValueError("weights must be parallel to edges")
    return from_coo(num_nodes, arr[:, 0], arr[:, 1], w, vwgt=vwgt, name=name)


def from_coo(
    num_nodes: int,
    rows: np.ndarray,
    cols: np.ndarray,
    weights: np.ndarray | None = None,
    vwgt: np.ndarray | None = None,
    name: str = "graph",
) -> Graph:
    """Build a graph from COO-style arrays, symmetrising and deduplicating.

    Self-loops are dropped, each edge is canonicalised to ``(min, max)``
    so that duplicates in either orientation merge by summing their
    weights, edges whose summed weight is 0 are dropped, and the rest are
    mirrored into CSR with each neighbour list sorted ascending.  The
    weight of an undirected edge present in both orientations of the
    input is therefore counted once per orientation (standard
    COO-duplicate semantics), which lets callers feed either half- or
    full-symmetric inputs as long as they are consistent about it.
    Raises ``ValueError`` if an endpoint lies outside ``[0, num_nodes)``.
    """
    n = int(num_nodes)
    if n < 0:
        raise ValueError(f"num_nodes must be non-negative, got {n}")
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    if weights is None:
        weights = np.ones(rows.size, dtype=np.int64)
    weights = np.asarray(weights, dtype=np.int64)
    keep = rows != cols  # drop self loops before symmetrising
    rows, cols, weights = rows[keep], cols[keep], weights[keep]
    lo = np.minimum(rows, cols)
    hi = np.maximum(rows, cols)
    # The dels below free each intermediate as soon as it is dead, which
    # keeps the transient footprint under the SciPy build this replaced.
    del rows, cols, keep
    if lo.size and (lo.min() < 0 or hi.max() >= n):
        raise ValueError(f"edge endpoint outside [0, {n})")
    # Sort the canonical pairs by (lo, hi) through one scalar key (n**2
    # fits int64 for any n that fits in memory) and sum runs of equal keys.
    key = lo * n + hi
    del lo, hi
    order = np.argsort(key)
    key = key[order]
    weights = weights[order]
    del order
    if key.size:
        first = np.empty(key.size, dtype=bool)
        first[0] = True
        np.not_equal(key[1:], key[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        del first
        weights = np.add.reduceat(weights, starts)
        key = key[starts]
        del starts
    nonzero = weights != 0
    lo, hi = np.divmod(key[nonzero], max(n, 1))
    weights = weights[nonzero]
    del key, nonzero
    # Mirror.  The upper arcs (lo -> hi) are already in CSR order, and the
    # mirrored arcs (hi -> lo) of one source appear with ascending lo; all
    # mirrored targets of a node are below it and all upper targets above,
    # so one stable sort by source over [mirrored, upper] yields CSR order.
    src = np.concatenate([hi, lo])
    xadj = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=xadj[1:])
    order = np.argsort(src, kind="stable")
    del src
    adjncy = np.concatenate([lo, hi])[order]
    del lo, hi
    adjwgt = np.concatenate([weights, weights])[order]
    return Graph(
        xadj,
        adjncy,
        np.ones(n, dtype=np.int64) if vwgt is None else vwgt,
        adjwgt,
        name=name,
    )


def from_scipy(mat: sp.spmatrix, vwgt: np.ndarray | None = None, name: str = "graph") -> Graph:
    """Build a graph from a *symmetric* SciPy sparse matrix.

    The diagonal is discarded.  Symmetry is the caller's responsibility
    (checked cheaply by arc-count parity in :class:`Graph` validation and
    thoroughly by :func:`repro.graph.validation.check_graph`).
    """
    import scipy.sparse as sp

    coo = sp.coo_matrix(mat)
    off_diag = coo.row != coo.col
    csr = sp.csr_matrix(
        (coo.data[off_diag], (coo.row[off_diag], coo.col[off_diag])), shape=coo.shape
    )
    csr.sum_duplicates()
    csr.eliminate_zeros()
    csr.sort_indices()
    n = csr.shape[0]
    return Graph(
        csr.indptr.astype(np.int64),
        csr.indices.astype(np.int64),
        np.ones(n, dtype=np.int64) if vwgt is None else vwgt,
        csr.data.astype(np.int64),
        name=name,
    )


def to_scipy(graph: Graph) -> sp.csr_matrix:
    """Weighted adjacency matrix of ``graph`` as ``scipy.sparse.csr_matrix``."""
    import scipy.sparse as sp

    return sp.csr_matrix(
        (graph.adjwgt.astype(np.float64), graph.adjncy, graph.xadj),
        shape=(graph.num_nodes, graph.num_nodes),
    )


def from_adjacency(
    adjacency: Sequence[Sequence[int]],
    vwgt: np.ndarray | None = None,
    name: str = "graph",
) -> Graph:
    """Build a graph from per-node neighbour lists (unit edge weights)."""
    edges: list[tuple[int, int]] = []
    for u, nbrs in enumerate(adjacency):
        for v in nbrs:
            if u < v:
                edges.append((u, v))
    return from_edges(len(adjacency), edges, vwgt=vwgt, name=name)


def from_networkx(nx_graph, weight_attr: str = "weight", name: str | None = None) -> Graph:
    """Convert a ``networkx`` graph (nodes relabelled to ``0..n-1``)."""
    import networkx as nx

    relabelled = nx.convert_node_labels_to_integers(nx_graph, ordering="sorted")
    n = relabelled.number_of_nodes()
    edges = []
    weights = []
    for u, v, data in relabelled.edges(data=True):
        edges.append((u, v))
        weights.append(int(data.get(weight_attr, 1)))
    return from_edges(n, edges, weights, name=name or str(nx_graph))


def to_networkx(graph: Graph):
    """Convert to a ``networkx.Graph`` with ``weight`` edge attributes."""
    import networkx as nx

    out = nx.Graph()
    out.add_nodes_from(range(graph.num_nodes))
    for u, v, w in graph.edges():
        out.add_edge(u, v, weight=w)
    return out


# ----------------------------------------------------------------------
# Tiny deterministic graphs (used heavily by the test-suite)
# ----------------------------------------------------------------------

def empty_graph(num_nodes: int) -> Graph:
    """Graph with ``num_nodes`` isolated nodes."""
    return Graph.from_csr(np.zeros(num_nodes + 1, dtype=np.int64), np.empty(0, dtype=np.int64))


def complete_graph(num_nodes: int) -> Graph:
    """Complete graph ``K_n`` with unit weights."""
    edges = [(u, v) for u in range(num_nodes) for v in range(u + 1, num_nodes)]
    return from_edges(num_nodes, edges, name=f"K{num_nodes}")


def path_graph(num_nodes: int) -> Graph:
    """Path ``P_n``."""
    return from_edges(num_nodes, [(i, i + 1) for i in range(num_nodes - 1)], name=f"P{num_nodes}")


def cycle_graph(num_nodes: int) -> Graph:
    """Cycle ``C_n`` (requires ``num_nodes >= 3``)."""
    if num_nodes < 3:
        raise ValueError("a cycle needs at least three nodes")
    edges = [(i, (i + 1) % num_nodes) for i in range(num_nodes)]
    return from_edges(num_nodes, edges, name=f"C{num_nodes}")


def star_graph(num_leaves: int) -> Graph:
    """Star with one hub (node 0) and ``num_leaves`` leaves."""
    return from_edges(
        num_leaves + 1, [(0, i) for i in range(1, num_leaves + 1)], name=f"S{num_leaves}"
    )
