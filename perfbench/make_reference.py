"""Regenerate the correctness references under perfbench/reference/.

Run from the repository root, only on a commit whose outputs are known
good (a changed reference is a changed definition of "correct")::

    python3 perfbench/make_reference.py [--source-commit HASH]

* ``mc_corners.json`` -- DeltaT mean and std (ps) of the 256-corner
  Monte Carlo for every seed variant the workload can pick;
* ``wafer_cascade.json`` -- detected / escapes / overkill / escalated
  per die of the compiled wafer, in the wafer's own die order.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from harness import fresh_scope  # noqa: E402
import workloads as w  # noqa: E402


def mc_reference() -> dict:
    engine = w.mc_build()
    variants = {}
    for variant in range(1, w.MC_VARIANTS + 1):
        with fresh_scope():
            samples = engine.delta_t_mc(
                w.MC_FAULT, w.ProcessVariation(), w.MC_CORNERS, seed=variant)
        variants[str(variant)] = {
            "mean_ps": float(samples.mean()) * 1e12,
            "std_ps": float(samples.std()) * 1e12,
        }
        print(f"mc_corners variant {variant}: {variants[str(variant)]}")
    return {"corners": w.MC_CORNERS, "tolerance_ps": w.GOLDEN_TOL_PS,
            "variants": variants}


def wafer_reference() -> dict:
    with fresh_scope():
        compiled, engine = w.wafer_build()
    wafer = compiled.wafer(w.WAFER_DIES, seed=w.WAFER_SEED)
    with fresh_scope():
        result = engine.screen(wafer, workers=1)
    rows = [w.wafer_row(m) for m in result.per_die]
    totals = result.totals
    print(f"wafer_cascade: {totals.num_tsvs} TSVs, {totals.escalated} "
          f"escalated, {totals.true_faulty} faulty, "
          f"{result.dies_rejected} dies rejected")
    return {"fields": ["detected", "escapes", "overkill", "escalated"],
            "per_die": rows}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--source-commit", default="")
    args = parser.parse_args()
    out = HERE / "reference"
    out.mkdir(exist_ok=True)
    for name, make in (("wafer_cascade", wafer_reference),
                       ("mc_corners", mc_reference)):
        payload = {"source_commit": args.source_commit, **make()}
        (out / f"{name}.json").write_text(json.dumps(payload) + "\n")


if __name__ == "__main__":
    main()
