"""Self-test of the benchmark on tiny (2**10-node) inputs.

Run from the repository root::

    python3 e2ebench/selftest.py

Checks that every workload emits every metric of ``BENCHMARK.json`` with
its unit in both modes, that deliberately corrupted partitions are
counted as failed calls, that a repeated seed reproduces its cut, and
that ``run.py`` fails without printing a result when the library
sources are missing.  Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

TINY = 10
SECONDS = 0.2


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    problems: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            problems.append(what)

    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        units = run.spec_units(section)
        for name in run.WORKLOADS:
            result, _ = run.measure(name, 1, SECONDS, trace, scale=TINY)
            emitted = {key: value["unit"] for key, value in result["metrics"].items()}
            expect(emitted == units, f"{name} --trace {int(trace)} emits every {section} metric with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{name} --trace {int(trace)} has no failed calls")

    reasons = {"label": "outside [0,", "overweight": "exceeds Lmax", "cut": "!= recomputed"}
    for corrupt, reason in reasons.items():
        result, header = run.measure("web-seq", 1, SECONDS, False, corrupt=corrupt, scale=TINY)
        expect(not result["correct"] and result["failed"] == result["attempted"]
               and header["failed_frac"] == 1.0
               and all(reason in failure for failure in header["failures"]),
               f"corrupted partitions ({corrupt}) are counted in failed_frac, as {reason!r}")

    first, _ = run.measure("mesh-seq", 7, SECONDS, False, scale=TINY)
    again, _ = run.measure("mesh-seq", 7, SECONDS, False, scale=TINY)
    expect(first["metrics"]["cut"] == again["metrics"]["cut"], "a repeated seed reproduces its cut")

    bare = Path(tempfile.mkdtemp(prefix=".e2ebench-", dir=run.ROOT))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        spec = json.loads((bare / "BENCHMARK.json").read_text())
        proc = subprocess.run(
            spec["command"] + ["--workload", "web-seq", "--seed", "1", "--seconds", "1",
                               "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           "without the library sources run.py exits nonzero and prints no result")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
