"""Start-up guard: the path from ``import repro`` to a partition is SciPy-free.

SciPy costs more to import than a small partition takes, so it is
imported lazily by the few helpers that need it (``to_scipy`` /
``from_scipy``, ``connected_components``, flow refinement and the
Delaunay generator).  Each check runs in a fresh interpreter, because
this test process has long since imported SciPy.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.generators import rgg
from repro.graph import write_metis

SRC = Path(__file__).resolve().parents[1] / "src"

LOADED_SCIPY = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def run_fresh(script: str) -> dict:
    """Run ``script`` in a new interpreter; it prints one JSON object last."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def metis_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("startup") / "g.metis"
    write_metis(rgg(9, seed=3), path)
    return path


def test_import_cli_loads_no_scipy():
    out = run_fresh(f"""
        import json, sys
        import repro.api, repro.cli
        print(json.dumps({LOADED_SCIPY}))
    """)
    assert out == []


@pytest.mark.parametrize("num_pes,backend", [(1, None), (2, "spmd")])
def test_read_and_partition_load_no_scipy(metis_file, num_pes, backend):
    out = run_fresh(f"""
        import json, sys
        from repro.api import partition_graph
        from repro.graph.io import read_metis
        graph = read_metis({str(metis_file)!r})
        result = partition_graph(graph, 4, preset="fast",
                                 num_pes={num_pes}, backend={backend!r})
        print(json.dumps({{"scipy": {LOADED_SCIPY},
                           "blocks": int(result.partition.max()) + 1}}))
    """)
    assert out == {"scipy": [], "blocks": 4}


def test_lazy_scipy_paths_still_work(metis_file):
    out = run_fresh(f"""
        import json, sys
        from repro.cli import main
        from repro.generators import delaunay
        from repro.graph import connected_components, read_metis
        before = {LOADED_SCIPY}
        count, _ = connected_components(read_metis({str(metis_file)!r}))
        mesh = delaunay(8)
        code = main(["partition", {str(metis_file)!r}, "-k", "2", "--flows"])
        print(json.dumps({{"before": before, "after": "scipy" in sys.modules,
                           "components": count, "mesh": mesh.num_nodes,
                           "code": code}}))
    """)
    assert out["before"] == []
    assert out["after"] is True
    assert out["components"] >= 1
    assert out["mesh"] == 256
    assert out["code"] == 0
