"""spexlab benchmark: one workload per invocation, timed, checked, optionally traced.

    python3 perfbench/run.py --workload spex --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the program from
``src/`` there, never from an installed copy. It times set-up (imports and
input construction, in this process and in fresh ones), then runs whole
passes of the workload until ``--seconds`` have elapsed, each with a cold
tree-family cache, and checks every pass's output against pinned values.
With ``--trace 1`` it then runs one more pass with every layer boundary
wrapped (see layers.py) and, on ``spex``, a two-worker parity pass.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics`` (end-to-end
metrics untraced, per-layer metrics traced). A full record, including the
environment, pass times and output hashes, is written under perfbench/out/.
Exit status: 0 when every check passed, 1 when any failed, 2 when the
program cannot be found.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# set-ups measured per run: this process plus fresh interpreters
SETUP_PROBES = 4

sys.path.insert(0, str(HERE))
from workloads import SIZES, WORKLOADS, run_cli  # noqa: E402


class Tally:
    """Checks attempted and failed over a run, with failures counted by label."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: dict[str, int] = {}

    def add(self, checks) -> None:
        for label, ok in checks:
            self.attempted += 1
            if not ok:
                self.failed += 1
                self.failures[label] = self.failures.get(label, 0) + 1


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=sorted(SIZES), default="bench",
                   help="input sizes: 'bench' for measurement, 'tiny' for the self-test")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _timed_setup(workload, seed: int) -> float:
    start = time.perf_counter()
    workload.setup(seed)
    return time.perf_counter() - start


def _probe_setup(args) -> list[float]:
    """Set-up time in fresh interpreters, where imports are not yet cached."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--size", args.size]
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _openblas_threads():
    import ctypes
    import numpy

    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(handle, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _environment() -> dict:
    import numpy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": _openblas_threads(),
    }


def _timed_passes(workload, seconds: float, tally: Tally, clear_cache):
    """Whole passes until ``seconds`` have elapsed; returns (walls, rates, hashes, last output)."""
    walls, rates, hashes = [], [], []
    out = None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        # every pass starts from the same heap and a cold family cache
        out = None
        gc.collect()
        clear_cache()
        t0 = time.perf_counter()
        out = workload.run_pass()
        wall = time.perf_counter() - t0
        walls.append(wall)
        rates.append(workload.items(out) / wall)
        hashes.append(workload.hashes(out))
        tally.add(workload.check(out))
    tally.add([("output hashes identical across passes", all(h == hashes[0] for h in hashes))])
    return walls, rates, hashes[0], out


def _traced_run(args, workload, tally: Tally, clear_cache, untraced_wall: float, last_text) -> dict:
    """One traced pass (plus the two-worker parity pass on spex); returns per-layer metrics."""
    from layers import SELF_TIME_METRICS, instrument, per_layer
    from spans import Tracer

    tracer = Tracer()
    counters = instrument(tracer, workload.api)
    gc.collect()
    try:
        clear_cache()
        tracer.pass_id = 0
        t0 = time.perf_counter()
        out = workload.run_pass()
        wall = time.perf_counter() - t0
    finally:
        tracer.restore()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"spans-{args.workload}-{args.size}-seed{args.seed}.json.gz")
    layer = per_layer(tracer, counters, 0, wall, untraced_wall)
    checks = workload.check(out)
    attributed = sum(layer[name] for name in SELF_TIME_METRICS.values()) + layer["trace.unattributed_s"]
    checks.append(("traced self times add up to the traced wall time",
                   abs(attributed - wall) <= 1e-6 * max(1.0, wall)))

    layer["search.wall_2w_s"] = layer["search.speedup_2w"] = 0.0
    if args.workload == "spex":
        clear_cache()
        t0 = time.perf_counter()
        rc, text = run_cli(workload.api.cli_main, workload.argv_for(workers=2))
        layer["search.wall_2w_s"] = time.perf_counter() - t0
        layer["search.speedup_2w"] = untraced_wall / layer["search.wall_2w_s"]
        checks.append(("spex report identical for 1 and 2 workers", rc == 0 and text == last_text))
    tally.add(checks)
    return layer


def _layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio") or name.endswith("speedup_2w"):
        return "ratio"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("max_residual"):
        return "inf-norm"
    return "count"


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "spexlab" / "__init__.py").is_file():
        print(f"error: no program source at {SRC / 'spexlab'}; run from a spexlab checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload](args.size)

    first_setup = _timed_setup(workload, args.seed)
    import spexlab
    from spexlab import trees

    if Path(spexlab.__file__).resolve().parent != (SRC / "spexlab").resolve():
        print(f"error: imported spexlab from {spexlab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(repr(first_setup))
        return 0

    tally = Tally()
    clear_cache = trees.generate_trees.cache_clear
    walls, rates, hashes, out = _timed_passes(workload, args.seconds, tally, clear_cache)
    last_text, out = out.get("text"), None
    # after the passes, so that a processor still slow from idling does not skew them
    setups = [first_setup] + _probe_setup(args)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    e2e = {
        "wall_s": (statistics.median(walls), "s"),
        "items_per_s": (statistics.median(rates), "1/s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    metrics = {name: {"value": v, "unit": u} for name, (v, u) in e2e.items()}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "size": args.size,
        "trace": args.trace, "why": workload.why, "params": workload.params,
        "environment": _environment(), "pass_wall_s": walls, "setup_samples_s": setups,
        "output_hashes": hashes, "end_to_end": {k: v for k, (v, _) in e2e.items()},
    }
    if args.trace:
        from layers import PREDICTIONS

        layer = _traced_run(args, workload, tally, clear_cache, e2e["wall_s"][0], last_text)
        record.update(per_layer=layer, predictions=PREDICTIONS)
        metrics = {name: {"value": v, "unit": _layer_unit(name)} for name, v in sorted(layer.items())}

    error_rate = tally.failed / tally.attempted
    record.update(attempted=tally.attempted, failed=tally.failed, error_rate=error_rate,
                  failures=tally.failures)
    OUT.mkdir(exist_ok=True)
    name = f"result-{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    with open(OUT / name, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload} ({workload.why})")
    print(f"environment {json.dumps(record['environment'], sort_keys=True)}")
    print(f"wall_s       {e2e['wall_s'][0]:.4f} s    median of {len(walls)} passes "
          f"(min {min(walls):.4f}, max {max(walls):.4f})")
    print(f"items_per_s  {e2e['items_per_s'][0]:.1f} 1/s  median of {len(rates)} passes")
    print(f"setup_s      {e2e['setup_s'][0]:.4f} s    median of {len(setups)} set-ups")
    print(f"peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"error_rate   {error_rate:.6g}      {tally.failed} failed of {tally.attempted} checks")
    for label, count in tally.failures.items():
        print(f"FAILED {count}x: {label}", file=sys.stderr)
    if args.trace:
        for name, v in sorted(layer.items()):
            print(f"  {name:<28} {v:.6g} {_layer_unit(name)}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
