"""Vectorised, chunked gain-evaluation kernels for SCLP (the hot path).

Both label-propagation engines — the sequential scan of
:mod:`repro.core.label_propagation` and the per-PE scans of
:mod:`repro.dist.dist_lp` — evaluate the same move for every visited node
``v``: aggregate the connection strength ``omega({(v,u) : u in N(v) and
label(u) = l})`` per neighbouring label ``l``, drop ineligible labels
(size bound / budget share), and move to the strongest remaining label,
ties broken uniformly at random.  The original engines do this one node
at a time over Python lists; the kernels here do it for a *chunk* of
nodes at once with NumPy:

* neighbour-label aggregation is sort-based: one stable
  :func:`numpy.lexsort` over ``(label, node)`` followed by
  :func:`numpy.add.reduceat` over group boundaries yields every
  ``(node, label)`` connection strength of the chunk;
* the eligible-argmax with ordered tie-breaking is a masked segmented
  maximum (ineligible candidates are forced below every real strength)
  plus a segmented rank so that tied labels keep the *dict insertion
  order* of the scalar scan — first occurrence in the adjacency list,
  own label last when no neighbour carries it;
* weight/budget bookkeeping is applied **between** chunks: within a
  chunk every node sees the label array and the weight view as of the
  chunk start, and :func:`capped_inflow_mask` cancels the tail of the
  chunk's moves into any label whose remaining capacity they would
  overrun, so hard bounds survive the staleness.

``chunk_size = 1`` therefore reproduces the node-at-a-time semantics
*bit for bit* (same labels, same tie-RNG stream — test-enforced), while
larger chunks trade phase-internal staleness for throughput.  The
distributed engine already tolerates exactly this kind of staleness
across PEs (ghost labels are one phase old, Section IV-A of the paper);
chunking applies the same idea within a PE's own scan.

Engine selection: ``resolve_chunk_size`` maps an explicit value, the
``REPRO_LP_CHUNK`` environment variable, or the built-in default to a
chunk size; ``0`` selects the legacy scalar scan.  The sequential
engine's built-in default is size-gated: the chunked kernels from
:data:`CHUNKED_MIN_NODES` nodes up, the scan below.  Orthogonally,
``resolve_engine`` picks between the ``full`` sweep (every phase scans
every node), the ``frontier`` engine (phases after the first rescan
only the *active set*), and the default ``adaptive`` engine (the
runtime controller of :mod:`repro.engine.autotune` switches between the
two per iteration), honouring ``REPRO_LP_ENGINE`` and the legacy
``REPRO_LP_FRONTIER``.

The frontier engine is label-identical to the full sweep per iteration.
That hinges on the hash tie-break (:func:`candidate_tie_hash`): because
a node's decision is a pure function of its neighbourhood snapshot —
no shared RNG stream advanced per visit — scanning *fewer* nodes cannot
perturb the decisions of the nodes that are scanned.  It remains to
show a skipped node would not have moved, which
:func:`pick_targets_hashed` makes checkable at scan time: alongside the
chosen candidate it flags nodes as *risky* when some ineligible label
ties or beats the choice.  For an unflagged stay-put node the choice is
an argmax over ``(strength, hash)`` in which every potential winner was
eligible and lost to the own label; eligibility of losers can only
flip between phases if weights change, and a flip from ineligible to
eligible matters only for the flagged labels — so while the node's
neighbourhood is label-stable, its decision is provably ``stay``.  The
active set therefore needs exactly: last phase's movers and their
neighbours, nodes whose ghost neighbours changed, risky/capped nodes,
and (refine mode) members of over-budget blocks.
"""

from __future__ import annotations

import os
import random as _pyrandom
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_CHUNK_SIZE",
    "CHUNKED_MIN_NODES",
    "SCAN_ENGINE",
    "FULL_ENGINE",
    "FRONTIER_ENGINE",
    "ADAPTIVE_ENGINE",
    "ENGINES",
    "FRONTIER_FULL_SWEEP_FRACTION",
    "IterationWorkspace",
    "resolve_chunk_size",
    "resolve_engine",
    "effective_chunk",
    "make_tie_breaker",
    "candidate_tie_hash",
    "ChunkCandidates",
    "ChunkPlan",
    "plan_chunk",
    "aggregate_candidates",
    "gather_candidates",
    "gather_neighbors",
    "pick_targets",
    "pick_targets_hashed",
    "capped_inflow_mask",
    "chunk_ranges",
]

#: default nodes per chunk when neither the caller nor the environment says
#: otherwise — large enough that NumPy dominates the Python loop overhead,
#: small enough that the weight view refreshes many times per phase
DEFAULT_CHUNK_SIZE = 1024

#: sentinel chunk size selecting the legacy node-at-a-time scan engine
SCAN_ENGINE = 0

#: sweep engine: every phase scans every (eligible) local node
FULL_ENGINE = "full"

#: active-set engine: phases after the first rescan only the frontier
FRONTIER_ENGINE = "frontier"

#: auto-tuning engine: a runtime controller switches each iteration
#: between the full sweep and frontier dispatch from the allreduced
#: global active fraction, and tunes the chunk size during the first
#: iterations (see :mod:`repro.engine.autotune`)
ADAPTIVE_ENGINE = "adaptive"

#: every valid sweep-engine selector, in resolution-document order
ENGINES = (FULL_ENGINE, FRONTIER_ENGINE, ADAPTIVE_ENGINE)

#: above this active fraction a frontier phase scans the full visit
#: order with the prebuilt window plans instead of filtering — scanning
#: a superset of the active set is label-identical (the extra nodes are
#: provably stay-put stable) and the filtered re-plans roughly double
#: the per-arc cost, so filtering only pays below ~half activity
FRONTIER_FULL_SWEEP_FRACTION = 0.5

#: minimum bookkeeping refreshes per phase at chunk sizes > 1 — a fully
#: synchronous update (one chunk covering the whole scan) oscillates on
#: symmetric structures (the classic LP two-colouring flip); splitting
#: every phase into at least this many chunks breaks the symmetry while
#: leaving large instances at the requested chunk size
MIN_REFRESHES_PER_PHASE = 32

#: smallest graph on which the sequential engine defaults to the chunked
#: kernels — every phase there runs at least MIN_REFRESHES_PER_PHASE
#: chunks of at least 128 nodes.  Below it the fixed per-chunk overhead
#: (~6 ms per iteration) loses to the node-at-a-time scan; above it the
#: chunked sweep wins, by ~3-4x at 2^15 nodes (table in docs/algorithms.md)
CHUNKED_MIN_NODES = 128 * MIN_REFRESHES_PER_PHASE


def resolve_chunk_size(
    explicit: int | None = None, default: int | None = DEFAULT_CHUNK_SIZE
) -> int | None:
    """Resolve the LP engine selector to a chunk size.

    Precedence: ``explicit`` (a function argument or
    ``PartitionConfig.lp_chunk_size``; ``0`` = scan engine, ``>= 1`` =
    chunked kernels, negative values are rejected), then
    ``REPRO_LP_CHUNK`` (empty/invalid/negative values are ignored), then
    ``default``.  The distributed hot path defaults to
    :data:`DEFAULT_CHUNK_SIZE`; the sequential engine passes
    ``default=None`` and, when nothing was requested, picks by graph
    size (:data:`CHUNKED_MIN_NODES`).
    """
    if explicit is not None:
        value = int(explicit)
        if value < 0:
            raise ValueError(
                f"chunk_size must be >= 0 (0 selects the scan engine), got {value}"
            )
        return value
    raw = os.environ.get("REPRO_LP_CHUNK", "").strip()
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        return default
    return value if value >= 0 else default


def resolve_engine(
    explicit: str | None = None,
    default: str = ADAPTIVE_ENGINE,
    chunk: int | None = None,
) -> str:
    """Resolve the sweep-engine selector to ``full``/``frontier``/``adaptive``.

    One documented precedence order, highest first:

    1. a *pinned* explicit engine — ``engine='full'`` or
       ``engine='frontier'`` (a function argument or
       ``PartitionConfig.lp_engine``) always wins, over the environment
       too.  An explicit ``'adaptive'`` is **not** pinned: it means "no
       static choice", so it only replaces ``default`` and stays
       re-resolvable by the environment below — which is what lets
       ``lp_engine='adaptive'`` be the config default while the CI
       matrix still forces both static engines through the environment.
    2. the bit-exact guard: at a resolved ``chunk <= 1`` (node-at-a-time
       semantics, RNG tie-break) the environment is *not* consulted and
       the full sweep is returned — neither ``REPRO_LP_ENGINE`` nor
       ``REPRO_LP_FRONTIER`` may silently change bit-exact results.
    3. ``REPRO_LP_ENGINE`` — ``full`` | ``frontier`` | ``adaptive``.
       Unknown non-empty values raise (a typo must not silently select
       a different engine; the :func:`resolve_backend` precedent).
    4. the legacy ``REPRO_LP_FRONTIER`` boolean (truthy selects the
       frontier engine, falsy the full sweep; empty/unknown falls
       through).
    5. ``default`` — :data:`ADAPTIVE_ENGINE` unless the caller says
       otherwise.
    """
    if explicit is not None:
        if explicit not in ENGINES:
            raise ValueError(
                f"lp engine must be one of {ENGINES}, got {explicit!r}"
            )
        if explicit != ADAPTIVE_ENGINE:
            return explicit
        default = ADAPTIVE_ENGINE
    if chunk is not None and chunk <= 1:
        return FULL_ENGINE
    raw = os.environ.get("REPRO_LP_ENGINE", "").strip().lower()
    if raw:
        if raw not in ENGINES:
            raise ValueError(
                f"REPRO_LP_ENGINE must be one of {ENGINES}, got {raw!r}"
            )
        return raw
    raw = os.environ.get("REPRO_LP_FRONTIER", "").strip().lower()
    if raw in {"1", "true", "yes", "on", FRONTIER_ENGINE}:
        return FRONTIER_ENGINE
    if raw in {"0", "false", "no", "off", FULL_ENGINE}:
        return FULL_ENGINE
    return default


def effective_chunk(chunk: int, n_scan: int) -> int:
    """Cap a requested chunk size for a phase scanning ``n_scan`` nodes.

    ``chunk <= 1`` is returned unchanged (the bit-exact mode must stay
    node-at-a-time); larger chunks are capped so every phase performs at
    least :data:`MIN_REFRESHES_PER_PHASE` weight refreshes.
    """
    if chunk <= 1:
        return chunk
    return max(1, min(chunk, -(-n_scan // MIN_REFRESHES_PER_PHASE)))


def make_tie_breaker(seed: int, chunk_size: int):
    """The tie-breaking RNG for a chunked run.

    At ``chunk_size == 1`` the stdlib generator is used so the draw
    stream matches the scalar scan call for call; larger chunks use a
    NumPy generator (vectorised draws, still deterministic per seed).
    """
    if chunk_size == 1:
        return _pyrandom.Random(seed)
    return np.random.default_rng(seed)


_MIX_A = np.uint64(0x9E3779B97F4A7C15)
_MIX_B = np.uint64(0xBF58476D1CE4E5B9)
_MIX_C = np.uint64(0x94D049BB133111EB)
_MIX_D = np.uint64(0xFF51AFD7ED558CCD)
_SHIFT = np.uint64(33)


def candidate_tie_hash(
    seed: int, nodes: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Stateless per-``(seed, node, label)`` tie-break priorities.

    A splitmix64-style avalanche over the candidate's node id and label.
    Unlike a shared RNG stream, the value a candidate receives does not
    depend on which other nodes are visited or in which phase — the
    property that makes frontier scans decision-identical to full
    sweeps.  Ties on the hash itself (vanishingly rare) fall back to the
    candidates' deterministic order in :func:`pick_targets_hashed`.
    """
    x = nodes.astype(np.uint64) * _MIX_A
    x ^= labels.astype(np.uint64) + _MIX_B + (np.uint64(seed) << np.uint64(1))
    x ^= x >> _SHIFT
    x *= _MIX_D
    x ^= x >> _SHIFT
    x *= _MIX_C
    x ^= x >> _SHIFT
    return x


def chunk_ranges(n: int, chunk_size: int):
    """Yield ``(start, stop)`` pairs covering ``range(n)`` in chunks."""
    for start in range(0, n, chunk_size):
        yield start, min(start + chunk_size, n)


class IterationWorkspace:
    """Reusable scratch buffers for the chunked LP kernels.

    One workspace per SCLP call (one level of the hierarchy): every
    named buffer is allocated once at the first chunk that needs it,
    grown to the next power of two when a later chunk is larger, and
    *reused* across chunks and iterations — the per-iteration
    allocation churn of the aggregation/argmax kernels collapses to the
    handful of NumPy calls with no ``out=`` form (``argsort``,
    ``flatnonzero``).  Buffers are handed out as prefix *views*; a
    caller must consume a view before requesting the same key again
    (the kernels here do: every candidate array dies with its chunk).

    Not thread-safe and not shared between backends: each rank of an
    SPMD run drives its own SCLP call, hence its own workspace.
    """

    __slots__ = ("_bufs",)

    def __init__(self) -> None:
        self._bufs: dict[str, np.ndarray] = {}

    def buf(self, key: str, size: int, dtype) -> np.ndarray:
        """A length-``size`` view of the (grow-only) buffer ``key``."""
        arr = self._bufs.get(key)
        if arr is None or arr.size < size or arr.dtype != np.dtype(dtype):
            capacity = max(16, 1 << max(0, int(size - 1).bit_length()))
            arr = np.empty(capacity, dtype=dtype)
            self._bufs[key] = arr
        return arr[:size]

    def arange(self, size: int) -> np.ndarray:
        """A read-only ``arange(size)`` prefix view (cached, grow-only)."""
        arr = self._bufs.get("arange")
        if arr is None or arr.size < size:
            capacity = max(16, 1 << max(0, int(size - 1).bit_length()))
            arr = np.arange(capacity, dtype=np.int64)
            self._bufs["arange"] = arr
        return arr[:size]

    @property
    def nbytes(self) -> int:
        """Total bytes held across all buffers (for ``mem`` telemetry)."""
        return sum(arr.nbytes for arr in self._bufs.values())


@dataclass
class ChunkCandidates:
    """Per-(node, label) move candidates for one chunk of nodes.

    Candidates are grouped by chunk node and, within a node, ordered by
    first occurrence in the adjacency scan (own-label fallback rows
    last) — the insertion order of the scalar scan's ``conn`` dict.
    """

    node_pos: np.ndarray  # chunk position of each candidate (ascending)
    labels: np.ndarray  # candidate label
    strength: np.ndarray  # summed weight of arcs into the label
    is_own: np.ndarray  # candidate label == the node's current label
    seg_start: np.ndarray  # per chunk node: offset of its candidate run
    seg_count: np.ndarray  # per chunk node: number of candidates (>= 1)
    arcs_scanned: int  # degrees summed over the chunk (work accounting)


def _segment_local_arange(counts: np.ndarray, total: int) -> np.ndarray:
    """``[0..counts[0]-1, 0..counts[1]-1, ...]`` without a Python loop."""
    offsets = np.zeros(counts.size, dtype=np.int64)
    np.cumsum(counts[:-1], out=offsets[1:])
    return np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)


@dataclass
class ChunkPlan:
    """Label-independent arc structure of one chunk of nodes.

    Everything here depends only on the visit order, the CSR arrays and
    the (phase-invariant) constraint — not on the evolving labels — so a
    plan built once can be re-aggregated every phase.  The cluster
    engines exploit this: their degree-ascending order is fixed, so the
    per-chunk gather/repeat/cumsum work happens once per run instead of
    once per phase.
    """

    nodes: np.ndarray  # the chunk's nodes, in visit order
    own_pos: np.ndarray  # chunk position of each surviving arc's source
    nbr: np.ndarray  # arc targets (constraint-filtered)
    wgt: np.ndarray  # arc weights (constraint-filtered)
    arcs_scanned: int  # degrees summed pre-filter (work accounting)


def plan_chunk(
    nodes: np.ndarray,
    xadj: np.ndarray,
    adjncy: np.ndarray,
    adjwgt: np.ndarray,
    constraint: np.ndarray | None = None,
) -> ChunkPlan:
    """Build the label-independent arc structure for a chunk of nodes.

    A zero-weight *self-arc* is appended per chunk node (after the real
    arcs, so it sorts behind every real occurrence): its neighbour label
    is the node's own label by construction, which realises the scan's
    ``conn.setdefault(own, 0)`` with no membership test at aggregation
    time.  Self-arcs contribute no strength and are excluded from the
    work accounting.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    n_chunk = nodes.size
    begins = xadj[nodes]
    counts = (xadj[nodes + 1] - begins).astype(np.int64)
    total = int(counts.sum())
    arc_idx = np.repeat(begins, counts) + _segment_local_arange(counts, total)
    node_pos = np.repeat(np.arange(n_chunk, dtype=np.int64), counts)
    nbr = adjncy[arc_idx]
    wgt = adjwgt[arc_idx]
    if constraint is not None:
        keep = constraint[nbr] == constraint[nodes][node_pos]
        node_pos, nbr, wgt = node_pos[keep], nbr[keep], wgt[keep]
    node_pos = np.concatenate([node_pos, np.arange(n_chunk, dtype=np.int64)])
    nbr = np.concatenate([nbr, nodes])
    wgt = np.concatenate([wgt, np.zeros(n_chunk, dtype=wgt.dtype)])
    return ChunkPlan(
        nodes=nodes, own_pos=node_pos, nbr=nbr, wgt=wgt, arcs_scanned=total
    )


def gather_neighbors(
    nodes: np.ndarray, xadj: np.ndarray, adjncy: np.ndarray
) -> np.ndarray:
    """Concatenated CSR adjacency of ``nodes`` (one vectorised gather).

    The frontier engines use this to turn a set of movers into the set
    of nodes whose decision inputs changed.  Duplicates are returned as
    stored; callers scatter into boolean masks, so dedup is implicit.
    """
    nodes = np.asarray(nodes, dtype=np.int64)
    begins = xadj[nodes]
    counts = (xadj[nodes + 1] - begins).astype(np.int64)
    total = int(counts.sum())
    arc_idx = np.repeat(begins, counts) + _segment_local_arange(counts, total)
    return adjncy[arc_idx]


def aggregate_candidates(
    plan: ChunkPlan,
    labels: np.ndarray,
    label_span: int,
    exact_order: bool = False,
    workspace: IterationWorkspace | None = None,
) -> ChunkCandidates:
    """Aggregate a chunk's neighbour-label connection strengths.

    Every chunk node receives at least one candidate: its own label is
    appended with strength 0 when no (constraint-eligible) neighbour
    carries it, mirroring ``conn.setdefault(own, 0)`` in the scan.

    ``exact_order`` makes the candidates of each node appear in the
    scalar scan's dict insertion order — first occurrence in the
    adjacency scan, own-label fallback last — which the ``chunk_size=1``
    bit-exactness contract requires (the tie-break rank depends on it).
    The default orders a node's candidates by label value instead, which
    halves the sort passes and is still deterministic.  ``label_span``
    must exceed every value in ``labels``.

    ``workspace`` (fast path only) routes every sized temporary through
    reusable buffers; results are views into the workspace, valid until
    the next chunk requests it.  Output values are identical with and
    without it (test-enforced).
    """
    n_chunk = plan.nodes.size
    node_pos = plan.own_pos
    wgt = plan.wgt
    total = plan.arcs_scanned

    if workspace is not None and not exact_order and n_chunk * label_span <= 2**62:
        return _aggregate_fast_ws(plan, labels, label_span, workspace)
    own = labels[plan.nodes]
    lab = labels[plan.nbr]

    if not exact_order and n_chunk * label_span <= 2**62:
        # Fast path: a combined single sort key halves the sort passes
        # (within-node candidate order becomes label value — irrelevant
        # beyond ``chunk_size=1``).
        key = node_pos * label_span + lab
        order = np.argsort(key, kind="stable")
        g_key = key[order]
        head = np.empty(g_key.size, dtype=bool)
        head[0] = True
        head[1:] = g_key[1:] != g_key[:-1]
        starts = np.flatnonzero(head)
        c_str = np.add.reduceat(wgt[order], starts).astype(np.int64)
        c_node, c_lab = np.divmod(g_key[starts], label_span)
    else:
        # Exact path: group by (node, label) with a stable lexsort; the
        # first element of each group is the label's first occurrence in
        # the adjacency scan (the plan's trailing self-arc realises the
        # appended-last own label), then order each node's candidates by
        # that first occurrence — the scan dict's insertion order.
        arc_pos = np.arange(lab.size, dtype=np.int64)
        order = np.lexsort((lab, node_pos))
        g_node, g_lab = node_pos[order], lab[order]
        g_wgt, g_pos = wgt[order], arc_pos[order]
        head = np.empty(g_node.size, dtype=bool)
        head[0] = True
        head[1:] = (g_node[1:] != g_node[:-1]) | (g_lab[1:] != g_lab[:-1])
        starts = np.flatnonzero(head)
        c_first = g_pos[starts]
        c_str = np.add.reduceat(g_wgt, starts).astype(np.int64)
        order = np.lexsort((c_first, g_node[starts]))
        c_node = g_node[starts][order]
        c_lab = g_lab[starts][order]
        c_str = c_str[order]

    seg_count = np.bincount(c_node, minlength=n_chunk).astype(np.int64)
    seg_start = np.zeros(n_chunk, dtype=np.int64)
    np.cumsum(seg_count[:-1], out=seg_start[1:])
    return ChunkCandidates(
        node_pos=c_node,
        labels=c_lab,
        strength=c_str,
        is_own=c_lab == own[c_node],
        seg_start=seg_start,
        seg_count=seg_count,
        arcs_scanned=total,
    )


def _aggregate_fast_ws(
    plan: ChunkPlan,
    labels: np.ndarray,
    label_span: int,
    ws: IterationWorkspace,
) -> ChunkCandidates:
    """The combined-key fast path of :func:`aggregate_candidates`, with
    every sized temporary routed through the workspace.  Same values as
    the allocating path; only ``argsort``/``flatnonzero`` still allocate
    (NumPy offers no ``out=`` form for either)."""
    n_chunk = plan.nodes.size
    node_pos = plan.own_pos
    m = node_pos.size
    own = np.take(labels, plan.nodes, out=ws.buf("agg.own", n_chunk, np.int64))
    lab = np.take(labels, plan.nbr, out=ws.buf("agg.lab", m, np.int64))

    key = ws.buf("agg.key", m, np.int64)
    np.multiply(node_pos, label_span, out=key)
    key += lab
    order = np.argsort(key, kind="stable")
    g_key = np.take(key, order, out=ws.buf("agg.gkey", m, np.int64))
    head = ws.buf("agg.head", m, bool)
    head[0] = True
    np.not_equal(g_key[1:], g_key[:-1], out=head[1:])
    starts = np.flatnonzero(head)
    n_cand = starts.size
    wgt = plan.wgt if plan.wgt.dtype == np.int64 else plan.wgt.astype(np.int64)
    g_wgt = np.take(wgt, order, out=ws.buf("agg.gwgt", m, np.int64))
    c_str = ws.buf("agg.cstr", n_cand, np.int64)
    np.add.reduceat(g_wgt, starts, out=c_str)
    s_key = np.take(g_key, starts, out=ws.buf("agg.skey", n_cand, np.int64))
    c_node = ws.buf("agg.cnode", n_cand, np.int64)
    np.floor_divide(s_key, label_span, out=c_node)
    c_lab = ws.buf("agg.clab", n_cand, np.int64)
    np.remainder(s_key, label_span, out=c_lab)

    # Every chunk node owns at least one candidate (the trailing
    # self-arc), so the run boundaries of the sorted ``c_node`` cover
    # exactly the ``n_chunk`` nodes — ``diff`` of boundaries replaces
    # the allocating ``bincount``.
    nhead = ws.buf("agg.nhead", n_cand, bool)
    nhead[0] = True
    np.not_equal(c_node[1:], c_node[:-1], out=nhead[1:])
    seg_start = np.flatnonzero(nhead)
    seg_count = ws.buf("agg.segcnt", n_chunk, np.int64)
    np.subtract(seg_start[1:], seg_start[:-1], out=seg_count[: n_chunk - 1])
    seg_count[n_chunk - 1] = n_cand - seg_start[n_chunk - 1]

    own_at = np.take(own, c_node, out=ws.buf("agg.ownat", n_cand, np.int64))
    is_own = ws.buf("agg.isown", n_cand, bool)
    np.equal(c_lab, own_at, out=is_own)
    return ChunkCandidates(
        node_pos=c_node,
        labels=c_lab,
        strength=c_str,
        is_own=is_own,
        seg_start=seg_start,
        seg_count=seg_count,
        arcs_scanned=plan.arcs_scanned,
    )


def gather_candidates(
    nodes: np.ndarray,
    xadj: np.ndarray,
    adjncy: np.ndarray,
    adjwgt: np.ndarray,
    labels: np.ndarray,
    constraint: np.ndarray | None = None,
    exact_order: bool = False,
) -> ChunkCandidates:
    """One-shot convenience wrapper: :func:`plan_chunk` + aggregation."""
    plan = plan_chunk(nodes, xadj, adjncy, adjwgt, constraint)
    label_span = int(labels.max(initial=0)) + 1
    return aggregate_candidates(plan, labels, label_span, exact_order)


def pick_targets(cands: ChunkCandidates, eligible: np.ndarray, tie_rng) -> np.ndarray:
    """Masked argmax with ordered tie-breaking, per chunk node.

    ``eligible`` masks candidates per the mode's rules (own label already
    masked for evicting nodes).  Returns, per chunk node, the index of
    the chosen candidate into the candidate arrays, or ``-1`` when no
    candidate is eligible.  The tie-break draws exactly one
    ``randrange(t)`` per node with ``t > 1`` tied strongest labels, in
    visit order, over the labels in first-occurrence order — the scalar
    scan's behaviour.
    """
    n_chunk = cands.seg_start.size
    choice = np.full(n_chunk, -1, dtype=np.int64)
    if cands.node_pos.size == 0:
        return choice
    eff = np.where(eligible, cands.strength, np.int64(-1))
    seg_max = np.maximum.reduceat(eff, cands.seg_start)
    best = eligible & (cands.strength == seg_max[cands.node_pos])

    best_int = best.astype(np.int64)
    tie_count = np.add.reduceat(best_int, cands.seg_start)
    cum = np.cumsum(best_int)
    seg_before = cum[cands.seg_start] - best_int[cands.seg_start]
    rank = cum - 1 - seg_before[cands.node_pos]

    draws = np.zeros(n_chunk, dtype=np.int64)
    multi = np.flatnonzero(tie_count > 1)
    if multi.size:
        if isinstance(tie_rng, np.random.Generator):
            draws[multi] = tie_rng.integers(0, tie_count[multi])
        else:
            for i in multi.tolist():
                draws[i] = tie_rng.randrange(int(tie_count[i]))
    chosen = best & (rank == draws[cands.node_pos])
    sel = np.flatnonzero(chosen)
    choice[cands.node_pos[sel]] = sel
    return choice


def pick_targets_hashed(
    cands: ChunkCandidates,
    eligible: np.ndarray,
    tie_hash: np.ndarray,
    workspace: IterationWorkspace | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Masked argmax with hash tie-breaking, plus a *risky* flag per node.

    The counterpart of :func:`pick_targets` for the frontier-capable
    engines: ties among the strongest eligible labels go to the largest
    :func:`candidate_tie_hash` value (hash collisions fall back to the
    first candidate in aggregation order), so the decision is a pure
    function of the node's ``(label, strength, eligibility)`` snapshot —
    no RNG stream is consumed and visiting fewer nodes cannot shift
    other nodes' draws.

    Returns ``(choice, risky)``.  ``choice`` is as in
    :func:`pick_targets`.  ``risky[i]`` is set when some *ineligible*
    candidate of node ``i`` would *win* were it eligible: its strength
    strictly beats the eligible optimum, or matches it and beats the
    winner's tie hash (the hash order is phase-invariant, so an
    equality-tie that loses it today loses it in every rescan).  Only
    for risky nodes can an eligibility flip (a label regaining
    capacity) alter the decision while the neighbourhood's labels stay
    put, so un-risky stay-put nodes may safely leave the frontier.
    """
    n_chunk = cands.seg_start.size
    choice = np.full(n_chunk, -1, dtype=np.int64)
    risky = np.zeros(n_chunk, dtype=bool)
    if cands.node_pos.size == 0:
        return choice, risky
    if workspace is not None:
        return _pick_hashed_ws(cands, eligible, tie_hash, workspace,
                               choice, risky)
    eff = np.where(eligible, cands.strength, np.int64(-1))
    seg_max = np.maximum.reduceat(eff, cands.seg_start)
    node_max = seg_max[cands.node_pos]

    best = eligible & (cands.strength == node_max)
    h_eff = np.where(best, tie_hash, np.uint64(0))
    seg_hmax = np.maximum.reduceat(h_eff, cands.seg_start)
    winner = best & (h_eff == seg_hmax[cands.node_pos])
    idx = np.arange(cands.node_pos.size, dtype=np.int64)
    idx_eff = np.where(winner, idx, np.int64(np.iinfo(np.int64).max))
    seg_first = np.minimum.reduceat(idx_eff, cands.seg_start)
    has = seg_max >= 0
    choice[has] = seg_first[has]

    # A node with no eligible candidate at all stays risky for every
    # ineligible one (any flip hands that label the win outright).
    danger = (~eligible) & (
        (cands.strength > node_max)
        | (
            # >= : an exact hash collision falls back to aggregation
            # order, which an eligibility flip could tip — keep it risky
            (cands.strength == node_max)
            & (tie_hash >= seg_hmax[cands.node_pos])
        )
        | ~has[cands.node_pos]
    )
    risky = np.add.reduceat(danger.astype(np.int64), cands.seg_start) > 0
    return choice, risky


def _pick_hashed_ws(
    cands: ChunkCandidates,
    eligible: np.ndarray,
    tie_hash: np.ndarray,
    ws: IterationWorkspace,
    choice: np.ndarray,
    risky: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Workspace-buffered body of :func:`pick_targets_hashed` (same
    values as the allocating path, test-enforced).  ``choice``/``risky``
    are the caller's freshly-allocated result arrays — per-node sized,
    cheap, and safe to outlive the next chunk's workspace reuse."""
    m = cands.node_pos.size
    seg_start = cands.seg_start
    n_seg = seg_start.size
    eff = ws.buf("pick.eff", m, np.int64)
    eff.fill(-1)
    np.copyto(eff, cands.strength, where=eligible)
    seg_max = ws.buf("pick.segmax", n_seg, np.int64)
    np.maximum.reduceat(eff, seg_start, out=seg_max)
    node_max = np.take(seg_max, cands.node_pos,
                       out=ws.buf("pick.nodemax", m, np.int64))

    best = ws.buf("pick.best", m, bool)
    np.equal(cands.strength, node_max, out=best)
    best &= eligible
    h_eff = ws.buf("pick.heff", m, np.uint64)
    h_eff.fill(0)
    np.copyto(h_eff, tie_hash, where=best)
    seg_hmax = ws.buf("pick.seghmax", n_seg, np.uint64)
    np.maximum.reduceat(h_eff, seg_start, out=seg_hmax)
    node_hmax = np.take(seg_hmax, cands.node_pos,
                        out=ws.buf("pick.nodehmax", m, np.uint64))
    winner = ws.buf("pick.winner", m, bool)
    np.equal(h_eff, node_hmax, out=winner)
    winner &= best
    idx_eff = ws.buf("pick.idxeff", m, np.int64)
    idx_eff.fill(np.iinfo(np.int64).max)
    np.copyto(idx_eff, ws.arange(m), where=winner)
    seg_first = ws.buf("pick.segfirst", n_seg, np.int64)
    np.minimum.reduceat(idx_eff, seg_start, out=seg_first)
    has = ws.buf("pick.has", n_seg, bool)
    np.greater_equal(seg_max, 0, out=has)
    np.copyto(choice, seg_first, where=has)

    danger = ws.buf("pick.danger", m, bool)
    np.greater(cands.strength, node_max, out=danger)
    t_eq = ws.buf("pick.teq", m, bool)
    np.equal(cands.strength, node_max, out=t_eq)
    t_hash = ws.buf("pick.thash", m, bool)
    np.greater_equal(tie_hash, node_hmax, out=t_hash)
    t_eq &= t_hash
    danger |= t_eq
    no_elig = np.take(has, cands.node_pos, out=t_hash)  # reuse: done with it
    np.logical_not(no_elig, out=no_elig)
    danger |= no_elig
    np.logical_not(eligible, out=t_eq)  # reuse: done with it
    danger &= t_eq
    np.logical_or.reduceat(danger, seg_start, out=risky)
    return choice, risky


def capped_inflow_mask(
    targets: np.ndarray,
    weights: np.ndarray,
    used: np.ndarray,
    budget: np.ndarray,
) -> np.ndarray:
    """Cancel chunk moves that would overrun a label's remaining capacity.

    ``targets``/``weights`` are the chunk's intended moves in visit
    order; ``used[i]`` is the weight already booked against
    ``targets[i]`` as of the chunk start and ``budget[i]`` its capacity
    (both identical for equal targets).  Per target label, the
    cumulative moved weight in visit order is cut at the first overrun
    of ``used + cumulative <= budget``, so committed weights never
    exceed the chunk-start capacity even though every node evaluated
    eligibility against the same stale snapshot.  The test is written as
    an addition (not ``cumulative <= budget - used``) so that a chunk of
    one move reproduces the scan's eligibility comparison bit for bit,
    floats included.
    """
    if targets.size == 0:
        return np.zeros(0, dtype=bool)
    order = np.argsort(targets, kind="stable")
    t_s, w_s = targets[order], weights[order]
    cum = np.cumsum(w_s)
    head = np.empty(t_s.size, dtype=bool)
    head[0] = True
    head[1:] = t_s[1:] != t_s[:-1]
    starts = np.flatnonzero(head)
    seg_base = cum[starts] - w_s[starts]
    seg_id = np.cumsum(head) - 1
    within = cum - seg_base[seg_id]
    ok = (used[order] + within) <= budget[order]
    keep = np.empty(targets.size, dtype=bool)
    keep[order] = ok
    return keep
