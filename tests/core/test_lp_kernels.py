"""Tests for the vectorised chunked SCLP kernels (repro.engine.kernels).

The load-bearing contract: ``chunk_size=1`` reproduces the node-at-a-time
scan engine *bit for bit* — same labels, same tie-RNG stream — across
cluster mode, refine mode and V-cycle constraint masking.  Larger chunks
only have to match in quality, not label-for-label.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.label_propagation import size_constrained_label_propagation
from repro.engine.kernels import (
    DEFAULT_CHUNK_SIZE,
    MIN_REFRESHES_PER_PHASE,
    SCAN_ENGINE,
    IterationWorkspace,
    aggregate_candidates,
    candidate_tie_hash,
    capped_inflow_mask,
    chunk_ranges,
    effective_chunk,
    gather_candidates,
    make_tie_breaker,
    pick_targets,
    pick_targets_hashed,
    plan_chunk,
    resolve_chunk_size,
)
from repro.generators import grid_2d, rmat
from repro.graph import block_weights
from repro.metrics import edge_cut, modularity


class TestResolveChunkSize:
    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP_CHUNK", "7")
        assert resolve_chunk_size(0) == 0
        assert resolve_chunk_size(1) == 1
        assert resolve_chunk_size(512) == 512

    def test_explicit_negative_rejected(self):
        with pytest.raises(ValueError, match="chunk_size"):
            resolve_chunk_size(-1)

    def test_env_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP_CHUNK", "64")
        assert resolve_chunk_size() == 64
        monkeypatch.setenv("REPRO_LP_CHUNK", "0")
        assert resolve_chunk_size() == SCAN_ENGINE

    def test_env_garbage_falls_back(self, monkeypatch):
        for raw in ("", "  ", "lots", "-4"):
            monkeypatch.setenv("REPRO_LP_CHUNK", raw)
            assert resolve_chunk_size() == DEFAULT_CHUNK_SIZE
            assert resolve_chunk_size(default=SCAN_ENGINE) == SCAN_ENGINE

    def test_default_parameter(self, monkeypatch):
        monkeypatch.delenv("REPRO_LP_CHUNK", raising=False)
        assert resolve_chunk_size() == DEFAULT_CHUNK_SIZE
        assert resolve_chunk_size(default=SCAN_ENGINE) == SCAN_ENGINE


class TestEffectiveChunk:
    def test_scan_and_unit_pass_through(self):
        assert effective_chunk(0, 10) == 0
        assert effective_chunk(1, 10) == 1

    def test_caps_to_min_refreshes(self):
        n = 10 * MIN_REFRESHES_PER_PHASE
        assert effective_chunk(10**9, n) == 10
        # small requests are honoured as-is
        assert effective_chunk(4, n) == 4

    def test_never_below_one(self):
        assert effective_chunk(1024, 1) == 1


class TestChunkRanges:
    def test_covers_range(self):
        ranges = list(chunk_ranges(10, 4))
        assert ranges == [(0, 4), (4, 8), (8, 10)]
        assert list(chunk_ranges(0, 4)) == []


class TestPlanAndAggregate:
    def triangle(self):
        # 0-1, 0-2, 1-2 with distinct weights
        xadj = np.array([0, 2, 4, 6], dtype=np.int64)
        adjncy = np.array([1, 2, 0, 2, 0, 1], dtype=np.int64)
        adjwgt = np.array([5, 1, 5, 3, 1, 3], dtype=np.int64)
        return xadj, adjncy, adjwgt

    def test_self_arcs_excluded_from_work(self):
        xadj, adjncy, adjwgt = self.triangle()
        plan = plan_chunk(np.array([0, 1]), xadj, adjncy, adjwgt)
        assert plan.arcs_scanned == 4  # degrees only, not the self-arcs
        assert plan.nbr.size == 6  # 4 arcs + 2 appended self-arcs

    def test_own_label_fallback_candidate(self):
        xadj, adjncy, adjwgt = self.triangle()
        labels = np.array([0, 1, 1], dtype=np.int64)
        cands = gather_candidates(np.array([0]), xadj, adjncy, adjwgt, labels)
        # node 0 sees label 1 (strength 6) and its own label 0 (strength 0)
        got = dict(zip(cands.labels.tolist(), cands.strength.tolist()))
        assert got == {1: 6, 0: 0}
        assert cands.is_own.sum() == 1

    @pytest.mark.parametrize("exact", [False, True])
    def test_paths_agree_on_strengths(self, exact):
        graph = rmat(8, seed=0)
        rng = np.random.default_rng(1)
        labels = rng.integers(0, 17, graph.num_nodes)
        nodes = rng.choice(graph.num_nodes, 40, replace=False)
        cands = gather_candidates(
            nodes, graph.xadj, graph.adjncy, graph.adjwgt, labels,
            exact_order=exact,
        )
        # cross-check against a scalar recomputation
        for i, v in enumerate(nodes.tolist()):
            conn: dict[int, int] = {}
            for a in range(int(graph.xadj[v]), int(graph.xadj[v + 1])):
                u = int(graph.adjncy[a])
                conn[int(labels[u])] = conn.get(int(labels[u]), 0) + int(graph.adjwgt[a])
            conn.setdefault(int(labels[v]), 0)
            lo = int(cands.seg_start[i])
            hi = lo + int(cands.seg_count[i])
            got = dict(zip(cands.labels[lo:hi].tolist(),
                           cands.strength[lo:hi].tolist()))
            assert got == conn

    def test_exact_order_is_first_occurrence(self):
        xadj, adjncy, adjwgt = self.triangle()
        labels = np.array([7, 3, 3], dtype=np.int64)
        cands = gather_candidates(
            np.array([0]), xadj, adjncy, adjwgt, labels, exact_order=True
        )
        # adjacency scan of node 0 meets label 3 first; own label 7 has no
        # neighbour occurrence so its fallback sorts last
        assert cands.labels.tolist() == [3, 7]

    def test_constraint_filters_cross_arcs(self):
        xadj, adjncy, adjwgt = self.triangle()
        constraint = np.array([0, 0, 1], dtype=np.int64)
        labels = np.array([0, 1, 2], dtype=np.int64)
        cands = gather_candidates(
            np.array([0]), xadj, adjncy, adjwgt, labels, constraint=constraint
        )
        assert 2 not in cands.labels.tolist()  # node 2 is across the cut


class TestPickTargets:
    def build(self, labels, strengths, seg):
        node_pos = np.repeat(np.arange(len(seg)), seg)
        seg_count = np.asarray(seg, dtype=np.int64)
        seg_start = np.zeros(len(seg), dtype=np.int64)
        np.cumsum(seg_count[:-1], out=seg_start[1:])
        from repro.engine.kernels import ChunkCandidates

        return ChunkCandidates(
            node_pos=node_pos,
            labels=np.asarray(labels, dtype=np.int64),
            strength=np.asarray(strengths, dtype=np.int64),
            is_own=np.zeros(len(labels), dtype=bool),
            seg_start=seg_start,
            seg_count=seg_count,
            arcs_scanned=0,
        )

    def test_masked_argmax(self):
        cands = self.build([10, 11, 12], [5, 9, 2], [3])
        eligible = np.array([True, False, True])
        rng = make_tie_breaker(0, 1)
        choice = pick_targets(cands, eligible, rng)
        assert cands.labels[choice[0]] == 10  # 9 is masked, 5 beats 2

    def test_all_masked_gives_minus_one(self):
        cands = self.build([10, 11], [5, 9], [2])
        choice = pick_targets(cands, np.zeros(2, dtype=bool), make_tie_breaker(0, 1))
        assert choice.tolist() == [-1]

    def test_tie_break_matches_scalar_rng(self):
        # two tied labels: the scan draws randrange(2) once, in visit order
        cands = self.build([4, 9], [7, 7], [2])
        import random

        for seed in range(5):
            choice = pick_targets(
                cands, np.ones(2, dtype=bool), make_tie_breaker(seed, 1)
            )
            expected = random.Random(seed).randrange(2)
            assert cands.labels[choice[0]] == [4, 9][expected]

    def test_single_candidate_draws_nothing(self):
        rng = make_tie_breaker(3, 1)
        cands = self.build([5], [2], [1])
        pick_targets(cands, np.ones(1, dtype=bool), rng)
        # the stream is untouched: next draw equals a fresh generator's first
        import random

        assert rng.randrange(100) == random.Random(3).randrange(100)


class TestCappedInflow:
    def test_prefix_cut_in_visit_order(self):
        targets = np.array([2, 2, 2], dtype=np.int64)
        weights = np.array([3, 3, 3], dtype=np.int64)
        used = np.full(3, 4, dtype=np.int64)
        budget = np.full(3, 10, dtype=np.int64)
        keep = capped_inflow_mask(targets, weights, used, budget)
        assert keep.tolist() == [True, True, False]  # 4+3+3 ok, 4+9 overruns

    def test_independent_targets(self):
        targets = np.array([0, 1, 0], dtype=np.int64)
        weights = np.array([5, 5, 5], dtype=np.int64)
        used = np.zeros(3, dtype=np.int64)
        budget = np.array([8, 8, 8], dtype=np.int64)
        keep = capped_inflow_mask(targets, weights, used, budget)
        assert keep.tolist() == [True, True, False]

    def test_empty(self):
        e = np.empty(0, dtype=np.int64)
        assert capped_inflow_mask(e, e, e, e).size == 0


class TestSequentialEquivalence:
    """chunk_size=1 must match the scan label-for-label — with no pins.

    These tests deliberately pass *no* ``engine=``: at the bit-exact
    ``chunk_size=1`` the resolver ignores ``REPRO_LP_FRONTIER`` and runs
    the full sweep, so the equivalence must hold no matter what the
    environment says (CI runs the suite in both modes;
    ``test_env_cannot_break_equivalence`` pins both values explicitly).
    The frontier sweep has its own equivalence suite against the full
    sweep.
    """

    @pytest.mark.parametrize("gname", ["rmat", "grid"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cluster_mode(self, gname, seed):
        graph = rmat(9, seed=1) if gname == "rmat" else grid_2d(18, 18)
        bound = max(2, int(graph.vwgt.sum()) // 40)
        a = size_constrained_label_propagation(
            graph, bound, 3, np.random.default_rng(seed), chunk_size=SCAN_ENGINE
        )
        b = size_constrained_label_propagation(
            graph, bound, 3, np.random.default_rng(seed), chunk_size=1,
        )
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_refine_mode(self, seed):
        graph = rmat(9, seed=2)
        start = np.random.default_rng(42).integers(0, 4, graph.num_nodes)
        bound = int(graph.vwgt.sum()) // 4 + 8
        a = size_constrained_label_propagation(
            graph, bound, 4, np.random.default_rng(seed), labels=start,
            ordering="random", refine=True, chunk_size=SCAN_ENGINE,
        )
        b = size_constrained_label_propagation(
            graph, bound, 4, np.random.default_rng(seed), labels=start,
            ordering="random", refine=True, chunk_size=1,
        )
        assert np.array_equal(a, b)

    def test_constraint_mode(self):
        graph = grid_2d(16, 16)
        constraint = (np.arange(graph.num_nodes) % 2).astype(np.int64)
        bound = max(2, int(graph.vwgt.sum()) // 30)
        a = size_constrained_label_propagation(
            graph, bound, 3, np.random.default_rng(5),
            constraint=constraint, chunk_size=SCAN_ENGINE,
        )
        b = size_constrained_label_propagation(
            graph, bound, 3, np.random.default_rng(5),
            constraint=constraint, chunk_size=1,
        )
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("frontier_env", ["0", "1"])
    def test_env_cannot_break_equivalence(self, frontier_env, monkeypatch):
        """Regression: REPRO_LP_FRONTIER must not steer chunk_size=1.

        Before the chunk-aware resolver, ``REPRO_LP_FRONTIER=1`` flipped
        unpinned ``chunk_size=1`` calls onto the frontier sweep, whose
        per-iteration scan order differs from the scan engine's — the
        equivalence suite then failed depending on the environment it
        happened to run under.
        """
        monkeypatch.setenv("REPRO_LP_FRONTIER", frontier_env)
        graph = rmat(9, seed=1)
        bound = max(2, int(graph.vwgt.sum()) // 40)
        a = size_constrained_label_propagation(
            graph, bound, 3, np.random.default_rng(0), chunk_size=SCAN_ENGINE
        )
        b = size_constrained_label_propagation(
            graph, bound, 3, np.random.default_rng(0), chunk_size=1,
        )
        assert np.array_equal(a, b)


class TestChunkedQuality:
    """Large chunks trade exactness for speed, not correctness."""

    def test_cluster_quality_parity(self):
        graph = rmat(11, seed=4)
        bound = max(2, int(graph.vwgt.sum()) // 50)
        scan = size_constrained_label_propagation(
            graph, bound, 3, np.random.default_rng(0), chunk_size=SCAN_ENGINE
        )
        chunked = size_constrained_label_propagation(
            graph, bound, 3, np.random.default_rng(0),
            chunk_size=DEFAULT_CHUNK_SIZE,
        )
        m_scan = modularity(graph, scan)
        m_chunk = modularity(graph, chunked)
        assert m_chunk > 0.0
        assert m_chunk >= 0.8 * m_scan

    def test_cluster_bound_respected(self):
        graph = rmat(10, seed=6)
        bound = max(2, int(graph.vwgt.sum()) // 25)
        labels = size_constrained_label_propagation(
            graph, bound, 4, np.random.default_rng(1),
            chunk_size=DEFAULT_CHUNK_SIZE,
        )
        weights = np.bincount(labels, weights=graph.vwgt.astype(np.float64))
        assert weights.max() <= bound

    def test_refine_quality_and_balance(self):
        graph = grid_2d(24, 24)
        k = 4
        start = (np.arange(graph.num_nodes) % k).astype(np.int64)
        bound = int(-(-int(graph.vwgt.sum()) * 1.03 // k))
        chunked = size_constrained_label_propagation(
            graph, bound, 6, np.random.default_rng(2), labels=start,
            ordering="random", refine=True, chunk_size=DEFAULT_CHUNK_SIZE,
        )
        assert block_weights(graph, chunked, k).max() <= bound
        assert edge_cut(graph, chunked) < edge_cut(graph, start)


class TestWorkspaceIdentity:
    """The zero-allocation kernel paths are bit-equal to the plain ones.

    One grow-only :class:`IterationWorkspace` is reused across every
    trial — deliberately mixing chunk sizes, label spans and constraint
    masks — so stale buffer contents from a previous (larger) chunk can
    never leak into a later result.
    """

    TRIALS = 300

    def test_aggregate_and_pick_fuzz(self):
        graph = rmat(8, seed=0)
        rng = np.random.default_rng(99)
        workspace = IterationWorkspace()
        import dataclasses

        for trial in range(self.TRIALS):
            span = int(rng.integers(2, 40))
            labels = rng.integers(0, span, graph.num_nodes).astype(np.int64)
            size = int(rng.integers(1, 81))
            nodes = rng.choice(graph.num_nodes, size, replace=False)
            constraint = None
            if rng.random() < 0.3:
                constraint = rng.integers(0, 2, graph.num_nodes)
            plan = plan_chunk(
                nodes, graph.xadj, graph.adjncy, graph.adjwgt, constraint
            )
            plain = aggregate_candidates(plan, labels, span)
            fast = aggregate_candidates(plan, labels, span,
                                        workspace=workspace)
            for field in dataclasses.fields(plain):
                a = getattr(plain, field.name)
                b = getattr(fast, field.name)
                assert np.array_equal(a, b), (
                    f"trial {trial}: {field.name} differs"
                )
            eligible = rng.random(plain.labels.size) < 0.8
            tie_hash = candidate_tie_hash(
                trial, nodes[plain.node_pos], plain.labels
            )
            choice_p, risky_p = pick_targets_hashed(plain, eligible, tie_hash)
            choice_w, risky_w = pick_targets_hashed(
                fast, eligible, tie_hash, workspace=workspace
            )
            assert np.array_equal(choice_p, choice_w), f"trial {trial}"
            assert np.array_equal(risky_p, risky_w), f"trial {trial}"
