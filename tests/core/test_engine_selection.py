"""The LP engine the sequential (p = 1) pipeline actually runs.

``PartitionConfig.lp_chunk_size`` / ``lp_engine`` must reach every LP
call of the sequential multilevel cycle, and with neither set (nor
``REPRO_LP_CHUNK``) the engine is picked by graph size: the adaptive
chunked sweep from ``CHUNKED_MIN_NODES`` nodes up, the scan below.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.label_propagation as lp_module
from repro.api import partition_graph
from repro.cli import main
from repro.core import fast_config
from repro.engine.kernels import (
    ADAPTIVE_ENGINE,
    CHUNKED_MIN_NODES,
    DEFAULT_CHUNK_SIZE,
    SCAN_ENGINE,
)
from repro.generators import grid_2d
from repro.graph import write_metis

K = 4


@pytest.fixture(autouse=True)
def default_env(monkeypatch):
    # The engine knobs under test must come from the config or the size
    # gate, never from a CI leg's environment.
    for var in ("REPRO_LP_CHUNK", "REPRO_LP_ENGINE", "REPRO_LP_FRONTIER"):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture(scope="module")
def graph():
    side = int(np.ceil(np.sqrt(CHUNKED_MIN_NODES)))
    g = grid_2d(side, side)
    assert g.num_nodes >= CHUNKED_MIN_NODES
    return g


@pytest.fixture
def sclp_calls(monkeypatch):
    """Record ``(n, chunk, engine)`` of every sequential ``run_sclp`` call."""
    calls: list[tuple[int, int, str]] = []
    real = lp_module.run_sclp

    def spy(backend, *args, **kwargs):
        calls.append((backend.n_local, kwargs["chunk"], kwargs["engine"]))
        return real(backend, *args, **kwargs)

    monkeypatch.setattr(lp_module, "run_sclp", spy)
    return calls


def test_chunk_one_is_bit_identical_to_scan_through_the_pipeline(graph):
    scan = partition_graph(graph, K, config=fast_config(k=K, lp_chunk_size=0),
                           seed=3)
    unit = partition_graph(graph, K, config=fast_config(k=K, lp_chunk_size=1),
                           seed=3)
    assert np.array_equal(scan.partition, unit.partition)


def test_default_engine_is_size_gated(graph, sclp_calls):
    partition_graph(graph, K, config=fast_config(k=K), seed=3)
    big = [c for c in sclp_calls if c[0] >= CHUNKED_MIN_NODES]
    small = [c for c in sclp_calls if c[0] < CHUNKED_MIN_NODES]
    assert big and small
    assert all(c[1:] == (DEFAULT_CHUNK_SIZE, ADAPTIVE_ENGINE) for c in big)
    assert all(c[1] == SCAN_ENGINE for c in small)


def test_config_chunk_reaches_every_call(graph, sclp_calls):
    partition_graph(graph, K, config=fast_config(k=K, lp_chunk_size=64),
                    seed=3)
    assert sclp_calls
    assert {c[1] for c in sclp_calls} == {64}


def test_cli_lp_chunk_switches_the_p1_engine(graph, sclp_calls, tmp_path,
                                              capsys):
    path = tmp_path / "grid.metis"
    write_metis(graph, path)
    assert main(["partition", str(path), "-k", str(K)]) == 0
    assert DEFAULT_CHUNK_SIZE in {c[1] for c in sclp_calls}
    sclp_calls.clear()
    assert main(["partition", str(path), "-k", str(K), "--lp-chunk", "0"]) == 0
    assert sclp_calls
    assert {c[1] for c in sclp_calls} == {SCAN_ENGINE}
    capsys.readouterr()


def test_pinned_frontier_below_the_gate_runs_the_scan(sclp_calls):
    # The sweep selector only applies to the chunked kernels; on a graph
    # the size gate sends to the scan it is ignored, not an error.
    small = grid_2d(16, 16)
    partition_graph(small, K, config=fast_config(k=K, lp_engine="frontier"),
                    seed=3)
    assert sclp_calls
    assert {c[1] for c in sclp_calls} == {SCAN_ENGINE}
    with pytest.raises(ValueError, match="frontier engine requires"):
        partition_graph(
            small, K,
            config=fast_config(k=K, lp_engine="frontier", lp_chunk_size=0),
            seed=3,
        )
