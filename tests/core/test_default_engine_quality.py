"""Quality gate for the default sequential LP engine.

At p = 1 the default engine is the adaptive chunked sweep on graphs of
at least ``CHUNKED_MIN_NODES`` nodes and the node-at-a-time scan below.
The chunked sweep decides each chunk against a chunk-start snapshot, so
its cuts differ from the scan's; this gate bounds by how much, over the
Table I stand-ins of at most 8192 nodes at k = 16.  Per instance, the
ratio is the mean cut of the default config over the mean cut of the
scan (``lp_chunk_size=0``) across the seeds.  The geometric mean of the
ratios must stay within ``GEOMEAN_TOLERANCE`` and no instance may exceed
``INSTANCE_TOLERANCE``.

Six seeds, not three: single cuts spread widely per seed on some
stand-ins (eu-2005's range from 9.1k to 14.6k edges under both
engines), and a three-seed mean is dominated by that noise.  The full
table is in docs/algorithms.md.
"""

from __future__ import annotations

import math

import pytest

from repro.api import partition_graph
from repro.core import fast_config
from repro.generators.suite import INSTANCES, load_instance

K = 16
SEEDS = range(6)
MAX_NODES = 8192
GEOMEAN_TOLERANCE = 1.03
INSTANCE_TOLERANCE = 1.15


@pytest.fixture(scope="module")
def cut_ratios():
    with pytest.MonkeyPatch.context() as mp:
        for var in ("REPRO_LP_CHUNK", "REPRO_LP_ENGINE", "REPRO_LP_FRONTIER"):
            mp.delenv(var, raising=False)
        ratios = {}
        for name in INSTANCES:
            if load_instance(name, seed=SEEDS[0]).num_nodes > MAX_NODES:
                continue
            default = scan = 0
            for seed in SEEDS:
                graph = load_instance(name, seed=seed)
                default += partition_graph(
                    graph, K, config=fast_config(k=K), seed=seed).cut
                scan += partition_graph(
                    graph, K, config=fast_config(k=K, lp_chunk_size=0),
                    seed=seed).cut
            ratios[name] = default / scan
    return ratios


def test_geometric_mean_cut_ratio(cut_ratios):
    geomean = math.exp(
        sum(math.log(r) for r in cut_ratios.values()) / len(cut_ratios)
    )
    assert geomean <= GEOMEAN_TOLERANCE, cut_ratios


def test_no_instance_regresses_past_tolerance(cut_ratios):
    worst = max(cut_ratios, key=cut_ratios.get)
    assert cut_ratios[worst] <= INSTANCE_TOLERANCE, (worst, cut_ratios)
