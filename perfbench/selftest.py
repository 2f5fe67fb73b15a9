"""Self-test of the benchmark harness at tiny sizes; finishes in seconds.

    python3 perfbench/selftest.py

Runs every workload at the ``tiny`` size, traced, and requires a clean
result. Then it corrupts one pinned value per workload and requires the run
to fail: exit status 1 and ``"correct": false`` on the last line. Exits 0
when all of that holds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402
import workloads  # noqa: E402


def _run(workload: str) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                       "--trace", "1", "--size", "tiny"])
    return rc, json.loads(buf.getvalue().strip().splitlines()[-1])


def _corrupt(workload: str):
    """Return (pins dict, key, wrong value) for one pinned value of the workload."""
    pins = workloads.PINS["tiny"][workload]
    if workload == "spex":
        return pins, "examined", pins["examined"] + 1
    if workload == "census":
        return pins, "stream_sha256", "0" * 64
    passes = pins["audit_passes"]
    label = next(iter(passes))
    flipped = "F" + passes[label][1:] if passes[label][0] == "P" else "P" + passes[label][1:]
    return passes, label, flipped


def main() -> int:
    problems = []
    for workload in sorted(workloads.WORKLOADS):
        rc, result = _run(workload)
        if rc != 0 or not result["correct"] or result["failed"]:
            problems.append(f"{workload}: clean run failed (exit {rc}, {result['failed']} failed checks)")
        holder, key, wrong = _corrupt(workload)
        right = holder[key]
        holder[key] = wrong
        try:
            rc, result = _run(workload)
        finally:
            holder[key] = right
        if rc != 1 or result["correct"] or not result["failed"]:
            problems.append(f"{workload}: a wrong pinned {key!r} did not fail the run (exit {rc})")
        else:
            print(f"{workload}: clean run passes; wrong pinned {key!r} fails {result['failed']} checks")
    for p in problems:
        print(f"SELFTEST FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
