"""End-to-end ``partition_graph`` benchmark with an outside-in per-layer view.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload web-seq --seed 1 --seconds 20 --trace 0

``run.py`` generates the workload's graph from ``--seed`` with the
library's own generators, writes it as a METIS file into a scratch
directory inside the checkout, and starts fresh child interpreters
(``child.py``, the program under test) with nothing but the file path and
the workload parameters.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.  See ``README.md`` next to this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

K = 16
EPSILON = 0.03
PRESET = "fast"
SCALE = 15  # every workload graph has 2**15 nodes
WARMUP_SCALE = 10  # the warm-up call runs on a 2**10-node graph of the same family

#: set-ups measured per end-to-end run; ``setup_s`` is their median
SETUP_REPEATS = 5

#: an end-to-end run makes at least this many timed calls, and ``cut`` is
#: the mean over exactly these first calls, so it is a pure function of
#: the workload seed whatever the machine's speed
CUT_CALLS = 6

#: the traced run replays each untraced call once, so it needs fewer
TRACE_CALLS = 2

#: timings are rescaled to a host on which ``child.reference_s`` takes
#: this many seconds (see README.md, "Host speed")
REFERENCE_S = 0.1

#: children still running this long after a run started are killed; a
#: run must end within 180 s
RUN_DEADLINE_S = 170.0


@dataclass(frozen=True)
class Workload:
    family: str  # "web" or "mesh"
    num_pes: int
    backend: str | None


WORKLOADS = {
    "web-seq": Workload("web", 1, None),
    "mesh-seq": Workload("mesh", 1, None),
    "web-spmd": Workload("web", 2, "spmd"),
}


def make_graph(family: str, scale: int, seed: int):
    from repro.generators import delaunay, web_copy_graph

    if family == "web":
        return web_copy_graph(2**scale, seed=seed)
    return delaunay(scale, seed=seed)


def scrubbed_env() -> dict[str, str]:
    """The child's environment: no ``REPRO_*`` knob may pick the engine measured.

    Bytecode caching is always on, as for an installed package, so
    ``setup_s`` does not depend on whether the caller's shell disabled it.
    """
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONDONTWRITEBYTECODE"}
    env["PYTHONPATH"] = str(SRC)
    return env


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without leaving it; ``unknown`` outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_header() -> dict:
    import scipy
    from repro.obsv.tracer import host_header as library_header

    header = {key: value for key, value in library_header().items()
              if key in ("cpu_cores", "cpu_affinity", "python", "numpy", "platform")}
    return {**header, "scipy": scipy.__version__, "git_commit": git_commit()}


def run_child(mode: str, files: dict[str, Path], workload: Workload, seed: int,
              seconds: float, deadline: float, corrupt: str | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--mode", mode,
        "--graph", str(files["graph"]),
        "--warmup-graph", str(files["warmup"]),
        "--k", str(K), "--epsilon", str(EPSILON), "--preset", PRESET,
        "--num-pes", str(workload.num_pes),
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--min-calls", str(TRACE_CALLS if mode == "trace" else CUT_CALLS),
    ]
    if workload.backend is not None:
        cmd += ["--backend", workload.backend]
    if corrupt is not None:
        cmd += ["--corrupt", corrupt]
    cmd += ["--spawned-at", repr(time.time())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=scrubbed_env(), cwd=ROOT,
                          timeout=max(1.0, deadline - time.monotonic()), text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"child ({mode}) exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(name: str, seed: int, seconds: float, trace: bool,
            corrupt: str | None = None, scale: int = SCALE) -> tuple[dict, dict]:
    """Run one workload; return ``(result, header)`` as printed by :func:`main`."""
    from repro.graph.io import write_metis

    deadline = time.monotonic() + RUN_DEADLINE_S
    workload = WORKLOADS[name]
    scratch = Path(tempfile.mkdtemp(prefix=".e2ebench-", dir=ROOT))
    try:
        files = {"graph": scratch / "graph.metis", "warmup": scratch / "warmup.metis"}
        write_metis(make_graph(workload.family, scale, seed), files["graph"])
        write_metis(make_graph(workload.family, WARMUP_SCALE, seed), files["warmup"])
        if trace:
            report = run_child("trace", files, workload, seed, seconds, deadline, corrupt)
            setups = [report]
        else:
            setups = [run_child("setup", files, workload, seed, 0.0, deadline)
                      for _ in range(SETUP_REPEATS - 1)]
            report = run_child("e2e", files, workload, seed, seconds, deadline, corrupt)
            setups.append(report)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = report["attempted"]
    failed = len(report["failures"])
    if trace:
        metrics = {
            "startup.import_s": report["startup.import_s"],
            "io.read_s": report["io.read_s"],
            "warmup_s": report["warmup_s"],
            **report["layers"],
        }
    else:
        cuts = [cut for cut in report["cuts"][:CUT_CALLS] if cut is not None]
        metrics = {
            "partition_s": REFERENCE_S * statistics.median(report["scaled"]),
            "setup_s": statistics.median(
                REFERENCE_S * setup["setup_s"] / setup["setup_ref_s"] for setup in setups
            ),
            "cut": statistics.fmean(cuts) if cuts else 0.0,
            "peak_rss_mb": report["peak_rss_mb"],
        }
    units = spec_units("per_layer" if trace else "end_to_end")
    if metrics.keys() != units.keys():
        raise RuntimeError(
            f"measured metrics differ from BENCHMARK.json: missing "
            f"{sorted(units.keys() - metrics.keys())}, unlisted {sorted(metrics.keys() - units.keys())}"
        )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    header = {
        "workload": name,
        "seed": seed,
        "host": host_header(),
        "resolved": report["resolved"],
        "partition_s_samples": report["times"],
        "partition_s_rescaled_samples": [REFERENCE_S * x for x in report["scaled"]],
        "setup_s_samples": [setup["setup_s"] for setup in setups],
        "setup_reference_s_samples": [setup["setup_ref_s"] for setup in setups],
        "cuts": report["cuts"],
        "failed_frac": failed / attempted,
        "failures": report["failures"],
    }
    return result, header


def spec_units(section: str) -> dict[str, str]:
    """``{metric: unit}`` of one metric section of ``BENCHMARK.json``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"e2ebench: no library sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result, header = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"header": header}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
