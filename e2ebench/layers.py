"""Outside-in layer timers for the traced run of ``child.py``.

:func:`install` replaces each layer's public entry point *at its call
site* (the name the caller looks up at call time) with a timing wrapper.
Nothing in the library changes; the wrappers exist only in the traced
run, so the end-to-end numbers never pay for them.

Named layers are exclusive: a call made while another named layer is
running on the same thread is left to the outer layer, so the layer
times of one thread never sum to more than its wall time.  Collectives
are counted separately (outermost call per thread only, since
``allreduce_max``, ``gather`` and ``exchange`` nest) and *inside* the
``dist.*`` layers that issue them.

Figures are keyed by SPMD rank through a thread-local that the
``parhip_program`` wrapper sets on each rank thread; the calling thread
(and every sequential run) is rank 0.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from collections import defaultdict

import numpy as np
from repro.dist import dist_partitioner
from repro.dist.comm import CollectiveOps, payload_bytes

#: layers timed on the sequential path (all on the calling thread)
SEQ_LAYERS = ("lp.coarsen", "lp.refine", "contract", "initial", "check")

#: layers timed per rank on the distributed path
DIST_LAYERS = ("dist.lp", "dist.contract", "dist.project", "evolutionary")

#: per-rank columns reported (``web-spmd`` runs two ranks)
REPORTED_RANKS = 2

#: the public collective surface of ``repro.dist.comm.CollectiveOps``
COLLECTIVES = (
    "barrier", "allgather", "allreduce", "allreduce_max", "allreduce_min",
    "bcast", "reduce", "gather", "exscan", "alltoall", "exchange",
)


def _arcs(args, out, _before):
    return {"arcs": args[0].num_arcs}


def _refine(args, out, before):
    return {
        "arcs": args[0].num_arcs,
        "moved": int(np.count_nonzero(np.asarray(out) != before)),
        "nodes": args[0].num_nodes,
    }


def _copy_partition(args):
    return np.array(args[1], copy=True)


def _shrink(args, out, _before):
    return {"shrink": out.coarse.num_nodes / max(1, args[0].num_nodes)}


def _nodes(args, out, _before):
    return {"nodes": args[0].num_nodes}


#: (module, binding looked up by the caller, layer, before-hook, after-hook)
BINDINGS = (
    ("repro.core.coarsening", "label_propagation_clustering", "lp.coarsen", None, _arcs),
    ("repro.core.multilevel", "label_propagation_refinement", "lp.refine",
     _copy_partition, _refine),
    ("repro.core.coarsening", "contract_clustering", "contract", None, _shrink),
    ("repro.core.multilevel", "default_initial_partitioner", "initial", None, _nodes),
    ("repro.api", "check_partition", "check", None, None),
    ("repro.core.partitioner", "check_partition", "check", None, None),
    ("repro.core.partitioner", "evaluate_partition", "check", None, None),
    ("repro.dist.dist_partitioner", "evaluate_partition", "check", None, None),
    ("repro.dist.dist_partitioner", "parallel_label_propagation", "dist.lp", None, None),
    ("repro.dist.dist_partitioner", "parallel_contract", "dist.contract", None, None),
    ("repro.dist.dist_partitioner", "parallel_uncoarsen", "dist.project", None, None),
    ("repro.dist.dist_partitioner", "kaffpae_partition", "evolutionary", None, None),
)


class LayerClock:
    """Per-call accumulators keyed by ``(figure, rank)``."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.local = threading.local()
        self.reset()

    def reset(self) -> None:
        self._totals: dict[tuple[str, int], float] = defaultdict(float)

    @property
    def rank(self) -> int:
        return getattr(self.local, "rank", 0)

    def add(self, rank: int, figures: dict[str, float]) -> None:
        with self._lock:
            for key, value in figures.items():
                self._totals[(key, rank)] += value

    def call_metrics(self, call_s: float) -> dict[str, float]:
        """Per-layer figures of one traced ``partition_graph`` call of ``call_s`` seconds."""
        totals = dict(self._totals)

        def get(key: str, rank: int = 0) -> float:
            return totals.get((key, rank), 0.0)

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        m: dict[str, float] = {"partition_s.traced": call_s}
        for layer in ("lp.coarsen", "lp.refine"):
            m[f"{layer}.s"] = get(f"{layer}.s")
            m[f"{layer}.calls"] = get(f"{layer}.calls")
            m[f"{layer}.arcs_per_s"] = ratio(get(f"{layer}.arcs"), get(f"{layer}.s"))
        m["lp.refine.moved_frac"] = ratio(get("lp.refine.moved"), get("lp.refine.nodes"))
        m["contract.s"] = get("contract.s")
        m["contract.calls"] = get("contract.calls")
        m["contract.shrink"] = ratio(get("contract.shrink"), get("contract.calls"))
        m["initial.s"] = get("initial.s")
        m["initial.nodes"] = ratio(get("initial.nodes"), get("initial.calls"))
        m["check.s"] = get("check.s")

        ranks = sorted(rank for key, rank in totals if key == "program.s")
        for layer in DIST_LAYERS:
            m[f"{layer}.s"] = max((get(f"{layer}.s", r) for r in ranks), default=0.0)
        m["dist.lp.calls"] = max((get("dist.lp.calls", r) for r in ranks), default=0.0)
        for r in range(REPORTED_RANKS):
            m[f"comm.collectives.rank{r}"] = get("comm.collectives", r) if r in ranks else 0.0
            m[f"comm.bytes.rank{r}"] = get("comm.bytes", r) if r in ranks else 0.0
            m[f"comm.wait_s.rank{r}"] = get("comm.wait_s", r) if r in ranks else 0.0
        waits = [get("comm.wait_s", r) for r in ranks]
        m["comm.wait_s.max"] = max(waits, default=0.0)
        m["comm.wait_s.min"] = min(waits, default=0.0)

        spmd_s = get("runtime.run_spmd.s")
        if ranks:
            program = {r: get("program.s", r) for r in ranks}
            slowest = max(ranks, key=program.__getitem__)
            busy = [program[r] - get("comm.wait_s", r) for r in ranks]
            m["runtime.overhead_s"] = spmd_s - program[slowest]
            m["runtime.outside_s"] = call_s - spmd_s
            m["rank.busy_skew"] = ratio(max(busy), min(busy))
            named = sum(get(f"{layer}.s", slowest) for layer in DIST_LAYERS)
            m["driver.s"] = program[slowest] - named
        else:
            m["runtime.overhead_s"] = 0.0
            m["runtime.outside_s"] = 0.0
            m["rank.busy_skew"] = 0.0
            m["driver.s"] = call_s - sum(m[f"{layer}.s"] for layer in SEQ_LAYERS)
        m["driver.frac"] = ratio(m["driver.s"], call_s)
        return m


def _layer(clock: LayerClock, layer: str, fn, before=None, after=None):
    """Time ``fn`` as ``layer`` unless another named layer is already running."""

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        local = clock.local
        if getattr(local, "in_layer", False):
            return fn(*args, **kwargs)
        state = before(args) if before is not None else None
        local.in_layer = True
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            local.in_layer = False
            elapsed = time.perf_counter() - t0
        figures = {f"{layer}.s": elapsed, f"{layer}.calls": 1}
        if after is not None:
            for key, value in after(args, out, state).items():
                figures[f"{layer}.{key}"] = value
        clock.add(clock.rank, figures)
        return out

    return timed


def _program(clock: LayerClock, fn):
    """Time one rank's SPMD program and bind the rank to its thread."""

    @functools.wraps(fn)
    def timed(comm, *args, **kwargs):
        clock.local.rank = comm.rank
        t0 = time.perf_counter()
        try:
            return fn(comm, *args, **kwargs)
        finally:
            clock.add(comm.rank, {"program.s": time.perf_counter() - t0})

    return timed


def _run_spmd(clock: LayerClock, fn):
    """Time the whole SPMD run on the calling thread."""

    @functools.wraps(fn)
    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            clock.add(0, {"runtime.run_spmd.s": time.perf_counter() - t0})

    return timed


def _sent_bytes(comm, op: str, args, kwargs) -> int:
    """Payload bytes this rank hands to one collective (off-rank rows only)."""
    if op == "barrier":
        return 0
    if op == "alltoall":
        rows = args[0] if args else kwargs["per_destination"]
        return sum(payload_bytes(row) for dest, row in enumerate(rows) if dest != comm.rank)
    if op == "exchange":
        return sum(payload_bytes(row) for dest, row in comm._outbox.items()
                   if dest != comm.rank)
    if op == "bcast":
        root = args[1] if len(args) > 1 else kwargs.get("root", 0)
        if comm.rank != root:
            return 0
    return payload_bytes(args[0] if args else kwargs.get("value"))


def _collective(clock: LayerClock, op: str, fn):
    """Count and time the outermost collective per thread."""

    @functools.wraps(fn)
    def timed(self, *args, **kwargs):
        local = clock.local
        if getattr(local, "in_comm", False):
            return fn(self, *args, **kwargs)
        nbytes = _sent_bytes(self, op, args, kwargs)
        local.in_comm = True
        t0 = time.perf_counter()
        try:
            return fn(self, *args, **kwargs)
        finally:
            local.in_comm = False
            clock.add(self.rank, {
                "comm.wait_s": time.perf_counter() - t0,
                "comm.collectives": 1,
                "comm.bytes": nbytes,
            })

    return timed


def install() -> LayerClock:
    """Wrap every layer binding; return the clock they report to."""
    clock = LayerClock()
    for module_name, attr, layer, before, after in BINDINGS:
        module = importlib.import_module(module_name)
        setattr(module, attr, _layer(clock, layer, getattr(module, attr), before, after))
    dist_partitioner.parhip_program = _program(clock, dist_partitioner.parhip_program)
    dist_partitioner.run_spmd = _run_spmd(clock, dist_partitioner.run_spmd)
    for op in COLLECTIVES:
        setattr(CollectiveOps, op, _collective(clock, op, getattr(CollectiveOps, op)))
    return clock
