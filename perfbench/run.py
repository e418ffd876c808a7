"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload mc_corners --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json with no
span wrappers installed; ``--trace 1`` makes the traced run and reports
the per-layer metrics (writing its spans to ``perfbench/out/``).  A
human-readable table goes first; the last line of standard output is
the JSON result.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} "
              f"is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    from harness import install_sigterm_handler, stop_resource_tracker
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected "
              f"one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    started = time.perf_counter()
    install_sigterm_handler()
    try:
        outcome = WORKLOADS[args.workload](args.seed, args.seconds, tracer)
    finally:
        stop_resource_tracker()
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(outcome.metrics) != set(units):
        print(f"perfbench: metrics {sorted(outcome.metrics)} do not match "
              f"BENCHMARK.json {sorted(units)}", file=sys.stderr)
        return 2

    print(f"workload {args.workload}, seed {args.seed}, "
          f"{'traced' if args.trace else 'untraced'}, "
          f"{time.perf_counter() - started:.1f} s in all")
    for name in units:
        count = outcome.samples.get(name)
        note = f"  (n={count})" if count is not None else ""
        print(f"  {name:40s} {outcome.metrics[name]:>14.6g} "
              f"{units[name]}{note}")
    if args.trace:
        print("  note: on wafer_cascade and fleet_service the spice.* "
              "counts come from the telemetry the worker processes merge "
              "back; spice.* times cover this process only")
        out = HERE / "out" / f"{args.workload}-seed{args.seed}-spans.json"
        tracer.write(out)
        print(f"  spans written to {out.relative_to(ROOT)}")
    for problem in outcome.problems:
        print(f"  CHECK FAILED: {problem}")

    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": outcome.metrics[name], "unit": units[name]}
            for name in units
        },
    }))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
