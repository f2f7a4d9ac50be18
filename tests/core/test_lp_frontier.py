"""Sequential frontier-engine tests.

The frontier engine must be label-identical to the full sweep *per
iteration* — not merely at convergence — in both modes, with and
without a constraint.  Plus unit coverage for the engine selector and
the hashed argmax kernel that makes the identity possible.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.label_propagation import size_constrained_label_propagation
from repro.engine.kernels import (
    ADAPTIVE_ENGINE,
    FRONTIER_ENGINE,
    FULL_ENGINE,
    ChunkCandidates,
    candidate_tie_hash,
    gather_neighbors,
    pick_targets_hashed,
    resolve_engine,
)
from repro.generators import rgg, rmat


GRAPHS = [rmat(9, seed=3), rgg(9, seed=5)]


def run(graph, engine, refine, chunk, iterations, seed=7):
    rng = np.random.default_rng(seed)
    n = graph.num_nodes
    total = int(graph.vwgt.sum())
    labels = (np.arange(n) % 4).astype(np.int64) if refine else None
    bound = total // 3 if refine else total // 4
    return size_constrained_label_propagation(
        graph, bound, iterations, rng, labels=labels, refine=refine,
        chunk_size=chunk, engine=engine,
    )


class TestFrontierIdentity:
    """frontier == full, label for label, after every iteration count."""

    @pytest.mark.parametrize("graph", GRAPHS, ids=["rmat", "rgg"])
    @pytest.mark.parametrize("refine", [False, True], ids=["cluster", "refine"])
    @pytest.mark.parametrize("chunk", [2, 64])
    def test_identical_per_iteration(self, graph, refine, chunk):
        for iterations in (1, 2, 3, 5):
            full = run(graph, FULL_ENGINE, refine, chunk, iterations)
            frontier = run(graph, FRONTIER_ENGINE, refine, chunk, iterations)
            assert np.array_equal(full, frontier), (
                f"labels diverge after {iterations} iteration(s)"
            )

    @pytest.mark.parametrize("graph", GRAPHS, ids=["rmat", "rgg"])
    @pytest.mark.parametrize("refine", [False, True], ids=["cluster", "refine"])
    def test_adaptive_identical_per_iteration(self, graph, refine):
        # Adaptive == full at the throughput chunk: the probe steps all
        # clamp to the same effective chunk on these graph sizes, and
        # every sweep the controller picks is label-identical to the
        # full sweep.
        for iterations in (1, 3, 5):
            full = run(graph, FULL_ENGINE, refine, 64, iterations)
            adaptive = run(graph, ADAPTIVE_ENGINE, refine, 64, iterations)
            assert np.array_equal(full, adaptive), (
                f"labels diverge after {iterations} iteration(s)"
            )

    def test_frontier_requires_chunked_kernels(self):
        g = GRAPHS[0]
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="frontier"):
            size_constrained_label_propagation(
                g, int(g.vwgt.sum()), 1, rng, chunk_size=0,
                engine=FRONTIER_ENGINE,
            )


class TestResolveEngine:
    @pytest.fixture(autouse=True)
    def _clear_engine_env(self, monkeypatch):
        # These tests exercise the legacy REPRO_LP_FRONTIER boolean and
        # the default; an ambient REPRO_LP_ENGINE (e.g. the adaptive CI
        # leg) sits above both in the precedence order and must not
        # bleed in.
        monkeypatch.delenv("REPRO_LP_ENGINE", raising=False)

    def test_explicit_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP_FRONTIER", "0")
        assert resolve_engine(FRONTIER_ENGINE) == FRONTIER_ENGINE
        assert resolve_engine(FULL_ENGINE) == FULL_ENGINE

    def test_env_over_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP_FRONTIER", "0")
        assert resolve_engine(None, default=FRONTIER_ENGINE) == FULL_ENGINE
        monkeypatch.setenv("REPRO_LP_FRONTIER", "frontier")
        assert resolve_engine(None, default=FULL_ENGINE) == FRONTIER_ENGINE

    def test_default_when_unset(self, monkeypatch):
        monkeypatch.delenv("REPRO_LP_FRONTIER", raising=False)
        assert resolve_engine(None, default=FULL_ENGINE) == FULL_ENGINE
        assert resolve_engine(None, default=FRONTIER_ENGINE) == FRONTIER_ENGINE

    def test_unknown_engine_raises(self):
        with pytest.raises(ValueError):
            resolve_engine("sideways")

    def test_bit_exact_chunk_ignores_env(self, monkeypatch):
        # chunk <= 1 is bit-exact: the environment must not silently
        # flip those calls onto the frontier sweep.
        monkeypatch.setenv("REPRO_LP_FRONTIER", "1")
        assert resolve_engine(None, default=FULL_ENGINE, chunk=1) == FULL_ENGINE
        assert resolve_engine(None, default=FULL_ENGINE, chunk=0) == FULL_ENGINE

    def test_throughput_chunk_honours_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP_FRONTIER", "1")
        assert resolve_engine(None, default=FULL_ENGINE, chunk=64) == FRONTIER_ENGINE
        monkeypatch.setenv("REPRO_LP_FRONTIER", "0")
        assert resolve_engine(None, default=FRONTIER_ENGINE, chunk=64) == FULL_ENGINE

    def test_explicit_wins_even_at_bit_exact_chunk(self, monkeypatch):
        monkeypatch.delenv("REPRO_LP_FRONTIER", raising=False)
        assert resolve_engine(FRONTIER_ENGINE, chunk=1) == FRONTIER_ENGINE
        monkeypatch.setenv("REPRO_LP_FRONTIER", "0")
        assert resolve_engine(FRONTIER_ENGINE, chunk=1) == FRONTIER_ENGINE


class TestResolveEnginePrecedenceMatrix:
    """Exhaustive regression over every env/config combination.

    ``resolve_engine`` is the one documented precedence order for
    explicit ``engine=`` / ``PartitionConfig.lp_engine`` vs
    ``REPRO_LP_ENGINE`` vs the legacy ``REPRO_LP_FRONTIER`` boolean vs
    the ``adaptive`` default.  The oracle below restates the documented
    order independently; any drift between code and doc fails here.
    """

    EXPLICITS = (None, FULL_ENGINE, FRONTIER_ENGINE, ADAPTIVE_ENGINE)
    ENV_ENGINE = (None, "full", "frontier", "adaptive")
    ENV_FRONTIER = (None, "1", "0", "frontier", "off", "")
    CHUNKS = (None, 0, 1, 64)

    @staticmethod
    def _oracle(explicit, env_engine, env_frontier, chunk):
        # 1. pinned static explicit; explicit 'adaptive' only replaces
        #    the default and stays env-re-resolvable.
        if explicit in (FULL_ENGINE, FRONTIER_ENGINE):
            return explicit
        # 2. bit-exact guard: chunk <= 1 never consults the environment.
        if chunk is not None and chunk <= 1:
            return FULL_ENGINE
        # 3. REPRO_LP_ENGINE names the engine outright.
        if env_engine is not None:
            return env_engine
        # 4. legacy boolean (empty/unknown falls through).
        if env_frontier in ("1", "frontier"):
            return FRONTIER_ENGINE
        if env_frontier in ("0", "off"):
            return FULL_ENGINE
        # 5. the adaptive default.
        return ADAPTIVE_ENGINE

    def test_every_combination_matches_the_documented_order(self, monkeypatch):
        from itertools import product

        for explicit, env_engine, env_frontier, chunk in product(
            self.EXPLICITS, self.ENV_ENGINE, self.ENV_FRONTIER, self.CHUNKS
        ):
            if env_engine is None:
                monkeypatch.delenv("REPRO_LP_ENGINE", raising=False)
            else:
                monkeypatch.setenv("REPRO_LP_ENGINE", env_engine)
            if env_frontier is None:
                monkeypatch.delenv("REPRO_LP_FRONTIER", raising=False)
            else:
                monkeypatch.setenv("REPRO_LP_FRONTIER", env_frontier)
            got = resolve_engine(explicit, chunk=chunk)
            want = self._oracle(explicit, env_engine, env_frontier, chunk)
            assert got == want, (
                f"explicit={explicit!r} REPRO_LP_ENGINE={env_engine!r} "
                f"REPRO_LP_FRONTIER={env_frontier!r} chunk={chunk!r}: "
                f"resolved {got!r}, documented order says {want!r}"
            )

    def test_unknown_env_engine_raises_not_misroutes(self, monkeypatch):
        monkeypatch.setenv("REPRO_LP_ENGINE", "fronteer")
        with pytest.raises(ValueError, match="REPRO_LP_ENGINE"):
            resolve_engine(None, chunk=64)
        # ... but a pinned explicit engine never reads the environment.
        assert resolve_engine(FULL_ENGINE, chunk=64) == FULL_ENGINE
        # ... and the bit-exact guard sits above the env lookup.
        assert resolve_engine(None, chunk=1) == FULL_ENGINE

    def test_config_default_is_adaptive(self):
        from repro.core.config import PartitionConfig, fast_config

        assert PartitionConfig().lp_engine == ADAPTIVE_ENGINE
        assert fast_config().lp_engine == ADAPTIVE_ENGINE
        with pytest.raises(ValueError, match="lp_engine"):
            PartitionConfig(lp_engine="sideways")


class TestHashedKernels:
    def test_tie_hash_is_deterministic_and_spread(self):
        nodes = np.arange(64, dtype=np.int64)
        labels = np.full(64, 3, dtype=np.int64)
        a = candidate_tie_hash(11, nodes, labels)
        b = candidate_tie_hash(11, nodes, labels)
        assert np.array_equal(a, b)
        assert np.unique(a).size == a.size  # no collisions on this range
        assert not np.array_equal(a, candidate_tie_hash(12, nodes, labels))

    def test_pick_targets_hashed_marks_risky(self):
        # One node, three candidates.  An ineligible label strictly
        # stronger than the eligible optimum makes the node risky; a
        # weaker ineligible one never does.
        cands = ChunkCandidates(
            node_pos=np.zeros(3, dtype=np.int64),
            labels=np.array([5, 6, 7], dtype=np.int64),
            strength=np.array([4, 5, 2], dtype=np.int64),
            is_own=np.array([False, False, True]),
            seg_start=np.array([0], dtype=np.int64),
            seg_count=np.array([3], dtype=np.int64),
            arcs_scanned=3,
        )
        eligible = np.array([True, False, True])
        tie_hash = candidate_tie_hash(
            0, np.zeros(3, dtype=np.int64), cands.labels
        )
        choice, risky = pick_targets_hashed(cands, eligible, tie_hash)
        assert choice[0] == 0  # the eligible optimum
        assert bool(risky[0])  # label 6 would win were it eligible

        eligible = np.array([True, True, True])
        choice, risky = pick_targets_hashed(cands, eligible, tie_hash)
        assert not bool(risky[0])
        assert choice[0] == 1  # now the strongest candidate wins

    def test_pick_targets_hashed_equality_tie_risk_follows_hash(self):
        # An ineligible candidate tied with the eligible optimum is
        # risky exactly when its phase-invariant hash would win the tie.
        cands = ChunkCandidates(
            node_pos=np.zeros(2, dtype=np.int64),
            labels=np.array([5, 6], dtype=np.int64),
            strength=np.array([4, 4], dtype=np.int64),
            is_own=np.array([False, False]),
            seg_start=np.array([0], dtype=np.int64),
            seg_count=np.array([2], dtype=np.int64),
            arcs_scanned=2,
        )
        tie_hash = candidate_tie_hash(
            3, np.zeros(2, dtype=np.int64), cands.labels
        )
        for ineligible in (0, 1):
            eligible = np.ones(2, dtype=bool)
            eligible[ineligible] = False
            choice, risky = pick_targets_hashed(cands, eligible, tie_hash)
            assert choice[0] == 1 - ineligible
            assert bool(risky[0]) == bool(
                tie_hash[ineligible] >= tie_hash[1 - ineligible]
            )

    def test_pick_targets_hashed_no_eligible_is_risky(self):
        cands = ChunkCandidates(
            node_pos=np.zeros(1, dtype=np.int64),
            labels=np.array([5], dtype=np.int64),
            strength=np.array([1], dtype=np.int64),
            is_own=np.array([False]),
            seg_start=np.array([0], dtype=np.int64),
            seg_count=np.array([1], dtype=np.int64),
            arcs_scanned=1,
        )
        tie_hash = candidate_tie_hash(0, np.zeros(1, np.int64), cands.labels)
        choice, risky = pick_targets_hashed(
            cands, np.zeros(1, dtype=bool), tie_hash
        )
        assert choice[0] == -1
        assert bool(risky[0])

    def test_gather_neighbors_matches_csr(self):
        g = GRAPHS[0]
        nodes = np.array([0, 5, 17], dtype=np.int64)
        got = gather_neighbors(nodes, g.xadj, g.adjncy)
        want = np.concatenate(
            [g.adjncy[g.xadj[v]: g.xadj[v + 1]] for v in nodes]
        )
        assert np.array_equal(got, want)
