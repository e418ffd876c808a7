"""Run-to-run spread of the end-to-end metrics over several seeds.

Run from the repository root::

    python3 perfbench/spread.py --workloads mc_corners wafer_cascade --runs 10

For every workload it runs the benchmark once per seed (seeds
``first .. first + runs - 1``), then prints each end-to-end metric's
median and quartile spread (Q3 - Q1 over the median, quartiles as
``statistics.quantiles(values, n=4)`` gives them) next to the metric's
bound.  A spread under a third of the bound is marked ``steady``.
The raw results go to ``perfbench/out/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed "
                         f"({proc.returncode}):\n{proc.stdout}{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            results.append(run_once(workload, seed, args.seconds))
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}"
                for k, v in results[-1]["metrics"].items()), flush=True)
        out = HERE / "out" / f"spread-{workload}.json"
        out.parent.mkdir(exist_ok=True)
        out.write_text(json.dumps(results, indent=1))
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            mark = "steady" if spread < bound / 3 else "NOT steady"
            print(f"  {workload:14s} {name:18s} median {median:11.5g} "
                  f"spread {spread:7.2%} bound {bound:.0%}  {mark}",
                  flush=True)


if __name__ == "__main__":
    main()
