"""The program under test: one fresh interpreter that times ``partition_graph``.

Started by ``run.py`` with only METIS file paths and the workload
parameters.  It imports the library, reads the graph, makes one warm-up
call on a small graph of the same family, and then makes sequential
timed ``partition_graph`` calls (a closed loop with one caller), each
with its own partition seed.  Every call is checked with plain NumPy
over the CSR arrays; the report is one JSON line on stdout.

Modes:

``setup``
    Set up and exit (``run.py`` repeats this to take a median ``setup_s``).
``e2e``
    Set up, then time untraced calls for ``--seconds``.
``trace``
    Set up, time untraced calls for half of ``--seconds``, install the
    layer wrappers of ``layers.py`` and replay the same seeds traced.
"""

import argparse
import json
import resource
import statistics
import sys
import time

import numpy as np


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "e2e", "trace"), required=True)
    parser.add_argument("--graph", required=True)
    parser.add_argument("--warmup-graph", required=True)
    parser.add_argument("--k", type=int, required=True)
    parser.add_argument("--epsilon", type=float, required=True)
    parser.add_argument("--preset", required=True)
    parser.add_argument("--num-pes", type=int, required=True)
    parser.add_argument("--backend", default=None)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-calls", type=int, default=1)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="parent's time.time() just before it started us")
    parser.add_argument("--corrupt", choices=("label", "overweight", "cut"),
                        default=None,
                        help="self-test only: damage every result before the check")
    return parser.parse_args(argv)


def reference_s() -> float:
    """Wall time of a fixed interpreter-plus-NumPy workload that no library change can touch.

    Run next to the timed calls so that their wall times can be rescaled
    to a fixed host speed: on a shared host the speed drifts by tens of
    percent within minutes.
    """
    t0 = time.perf_counter()
    keys = np.random.default_rng(0).integers(0, 1 << 20, 1 << 18)
    counts: dict[int, int] = {}
    for i in range(150_000):
        counts[i & 1023] = counts.get(i & 1023, 0) + i
    for _ in range(3):
        np.argsort(keys, kind="stable")
        np.bincount(keys & 4095)
    return time.perf_counter() - t0


def call_seed(seed: int, index: int) -> int:
    """Partition seed of timed call ``index``: distinct per call and per workload seed."""
    return seed * 1000 + index


class Checker:
    """Independent partition checks over the CSR arrays (plain NumPy)."""

    def __init__(self, graph, k: int, epsilon: float):
        self.k = k
        self.n = graph.num_nodes
        self.vwgt = np.asarray(graph.vwgt, dtype=np.int64)
        self.adjncy = np.asarray(graph.adjncy, dtype=np.int64)
        self.adjwgt = np.asarray(graph.adjwgt, dtype=np.int64)
        xadj = np.asarray(graph.xadj, dtype=np.int64)
        self.src = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(xadj))
        total = int(self.vwgt.sum())
        # Lmax = (1 + eps) * ceil(c(V) / k), the paper's balance bound.
        self.lmax = (1.0 + epsilon) * (-(-total // k))

    def cut(self, labels) -> int:
        crossing = labels[self.src] != labels[self.adjncy]
        return int(self.adjwgt[crossing].sum()) // 2

    def failure(self, labels, reported_cut: int) -> str | None:
        """Why this result is wrong, or ``None`` when it passes every check."""
        labels = np.asarray(labels)
        if labels.shape != (self.n,):
            return f"labels have shape {labels.shape}, expected ({self.n},)"
        if self.n and (int(labels.min()) < 0 or int(labels.max()) >= self.k):
            return f"labels outside [0, {self.k})"
        heaviest = float(np.bincount(labels, weights=self.vwgt, minlength=self.k).max())
        if heaviest > self.lmax:
            return f"heaviest block {heaviest:.0f} exceeds Lmax {self.lmax:.2f}"
        cut = self.cut(labels)
        if cut != int(reported_cut):
            return f"reported cut {reported_cut} != recomputed {cut}"
        return None


def corrupt(labels, reported_cut: int, how: str, checker: Checker):
    """Self-test hook: a result broken in exactly one way (``how``).

    The reported cut is kept consistent with the damaged labels unless
    ``how == "cut"``, so each damage can only be caught by its own check.
    """
    labels = labels.copy()
    if how == "cut":
        return labels, reported_cut + 1
    if how == "label":
        labels[0] = checker.k
    else:  # overweight: three quarters of the nodes in block 0
        labels[: (len(labels) * 3) // 4] = 0
    return labels, checker.cut(labels)


def resolved_engine(args) -> dict:
    """The LP engine, chunk and backend this call path resolves to."""
    from repro.core import config as presets
    from repro.engine.backend import resolve_backend
    from repro.engine.kernels import SCAN_ENGINE, resolve_chunk_size, resolve_engine

    config = getattr(presets, f"{args.preset}_config")(k=args.k, epsilon=args.epsilon)
    if args.num_pes <= 1:
        # The sequential LP wrappers default to the node-at-a-time scan.
        chunk = resolve_chunk_size(config.lp_chunk_size, default=SCAN_ENGINE)
        backend = "local"
    else:
        chunk = resolve_chunk_size(config.lp_chunk_size)
        backend = resolve_backend(args.backend)
    engine = "scan" if chunk == 0 else resolve_engine(config.lp_engine, chunk=chunk)
    return {"lp_engine": engine, "lp_chunk": chunk, "backend": backend}


def main(argv) -> int:
    args = parse_args(argv)
    from repro.api import partition_graph
    from repro.graph.io import read_metis

    t_imported = time.time()
    graph = read_metis(args.graph)
    t_read = time.time()
    warm = read_metis(args.warmup_graph)

    def call(g, seed):
        return partition_graph(g, args.k, epsilon=args.epsilon, preset=args.preset,
                               num_pes=args.num_pes, seed=seed, backend=args.backend)

    call(warm, call_seed(args.seed, 999))
    t_ready = time.time()
    report = {
        "setup_s": t_ready - args.spawned_at,
        "startup.import_s": t_imported - args.spawned_at,
        "io.read_s": t_read - t_imported,
        "warmup_s": t_ready - t_read,
    }
    # After the timed set-up: the reference must not count in setup_s.
    report["setup_ref_s"] = statistics.median(reference_s() for _ in range(3))
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    checker = Checker(graph, args.k, args.epsilon)
    failures: list[str] = []

    def timed_call(index, expected=None):
        t0 = time.perf_counter()
        try:
            result = call(graph, call_seed(args.seed, index))
        except Exception as exc:  # noqa: BLE001 - a raising call is a counted failure
            elapsed = time.perf_counter() - t0
            failures.append(f"call {index}: {type(exc).__name__}: {exc}")
            return elapsed, None
        elapsed = time.perf_counter() - t0
        labels, reported = result.partition, result.cut
        if args.corrupt:
            labels, reported = corrupt(labels, reported, args.corrupt, checker)
        why = checker.failure(labels, reported)
        if why is None and expected is not None and not np.array_equal(labels, expected):
            why = "labels differ from the untraced call with the same seed"
        if why is not None:
            failures.append(f"call {index}: {why}")
            return elapsed, None
        return elapsed, labels

    def timed_loop(more, expected=None, observe=None):
        """Timed calls while ``more(index)``, each bracketed by two reference runs.

        Returns wall times, wall times divided by the mean of the
        bracketing references, and the labels of calls that passed.
        ``observe(elapsed)`` runs after each call, outside the timing.
        """
        times, scaled, outputs = [], [], []
        before = reference_s()
        while more(len(times)):
            index = len(times)
            elapsed, labels = timed_call(index, None if expected is None else expected[index])
            if observe is not None:
                observe(elapsed)
            after = reference_s()
            times.append(elapsed)
            scaled.append(elapsed / ((before + after) / 2))
            outputs.append(labels)
            before = after
        return times, scaled, outputs

    budget = args.seconds / 2 if args.mode == "trace" else args.seconds
    start = time.perf_counter()
    times, scaled, outputs = timed_loop(
        lambda index: index < args.min_calls or time.perf_counter() - start < budget
    )
    report.update({
        "times": times,
        "scaled": scaled,
        "cuts": [None if labels is None else checker.cut(labels) for labels in outputs],
        "attempted": len(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "resolved": resolved_engine(args),
    })

    if args.mode == "trace":
        import layers

        clock = layers.install()
        per_call = []

        def observe(elapsed):
            per_call.append(clock.call_metrics(elapsed))
            clock.reset()

        traced_times, traced_scaled, _ = timed_loop(
            lambda index: index < len(outputs), expected=outputs, observe=observe
        )
        report["attempted"] += len(traced_times)
        layer_metrics = {
            name: statistics.median(metrics[name] for metrics in per_call)
            for name in per_call[0]
        }
        # Same seeds, each side rescaled by its own bracketing references,
        # so a host-speed drift between the two phases cancels.
        layer_metrics["trace.overhead_frac"] = (
            statistics.median(traced_scaled) / statistics.median(scaled) - 1.0
        )
        report["layers"] = layer_metrics

    report["failures"] = failures
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
