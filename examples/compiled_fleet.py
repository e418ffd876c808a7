"""A compiled fleet: specs in, priced architectures and serving load out.

Compiles a small design-space grid for a 512-TSV die, prints every
priced variant and the Pareto frontier over (area, DeltaT resolution),
then takes three heterogeneous compiled dies and serves their
interleaved request stream through the async screening service with
family coalescing -- mixed products on one tester queue.

Run:  python examples/compiled_fleet.py
"""

import asyncio
import math

from repro.analysis.reporting import Table, format_seconds
from repro.compiler import DieSpec, ScenarioStream, compile_die, sweep
from repro.core.engines import registry as engine_registry
from repro.service import ScreeningService
from repro.workloads.generator import DefectStatistics

#: Three products sharing one tester: different TSV counts and defect
#: profiles, same supply pair so their requests land in one engine
#: family per voltage.
FLEET_SPECS = (
    DieSpec(num_tsvs=12, group_size=4, voltages=(1.1, 0.8),
            defects=DefectStatistics(void_rate=0.2, pinhole_rate=0.2),
            population_seed=1, label="sensor-die"),
    DieSpec(num_tsvs=10, group_size=5, voltages=(1.1, 0.8),
            defects=DefectStatistics(void_rate=0.1, pinhole_rate=0.3),
            population_seed=2, label="logic-die"),
    DieSpec(num_tsvs=8, group_size=2, voltages=(1.1, 0.8),
            defects=DefectStatistics(void_rate=0.3, pinhole_rate=0.1),
            population_seed=3, label="memory-die"),
)

NUM_REQUESTS = 24


def explore_design_space() -> None:
    """Sweep a 512-TSV die across N and measurement block, print prices."""
    base = DieSpec(num_tsvs=512, voltages=(1.1, 0.8, 0.7), window=5e-6)
    result = sweep(base, {
        "group_size": (2, 4, 6, 8),
        "measurement": ("counter", "lfsr"),
    })
    table = Table(
        ["N", "block", "area um^2", "% die", "test time", "dT res"],
        title=f"512-TSV design space ({len(result)} points)",
    )
    frontier = {id(v) for v in result.pareto_frontier()}
    for variant in result.variants:
        price = variant.compiled.price
        mark = " *" if id(variant) in frontier else ""
        table.add_row([
            str(variant.overrides["group_size"]) + mark,
            variant.overrides["measurement"],
            f"{price.total_area_um2:.0f}",
            f"{100 * price.area_fraction:.4f}",
            format_seconds(price.test_time_s),
            f"{price.delta_t_resolution_s * 1e12:.1f} ps",
        ])
    table.print()
    print("(* = on the Pareto frontier over area vs resolution)\n")


def serve_fleet() -> None:
    """Interleave three compiled dies through one screening service."""
    fleet = [compile_die(spec) for spec in FLEET_SPECS]
    for compiled in fleet:
        print(f"  {compiled.label}: {compiled.spec.num_tsvs} TSVs, "
              f"N={compiled.architecture.group_size}, "
              f"{compiled.verified_circuits} netlists verified, "
              f"area {compiled.price.total_area_um2:.0f} um^2")

    stream = ScenarioStream(fleet, seed=42)
    requests = stream.requests(NUM_REQUESTS)
    engine = engine_registry.spec("stagedelay", timestep=20e-12).build()

    async def run() -> list:
        async with ScreeningService(
            engine=engine, coalesce="family",
            max_queue_depth=NUM_REQUESTS,
            max_batch_size=NUM_REQUESTS,
        ) as service:
            futures = [await service.enqueue(r) for r in requests]
            return list(await asyncio.gather(*futures))

    responses = asyncio.run(run())
    by_scenario: dict = {}
    for request, response in zip(requests, responses):
        by_scenario.setdefault(request.tags["scenario"], []).append(
            response
        )
    table = Table(["scenario", "answers", "stuck", "mean dT (ps)"],
                  title=f"{NUM_REQUESTS} interleaved requests, "
                        f"coalesce='family'")
    for label, answers in by_scenario.items():
        finite = [a.delta_t for a in answers
                  if math.isfinite(a.delta_t)]
        mean_dt = sum(finite) / len(finite) if finite else 0.0
        table.add_row([label, str(len(answers)),
                       str(len(answers) - len(finite)),
                       f"{mean_dt * 1e12:.1f}"])
    table.print()
    assert all(r.ok for r in responses)


def main() -> None:
    explore_design_space()
    print("compiling the fleet...")
    serve_fleet()


def preflight_circuits():
    """Netlists underlying this example, for ``python -m repro.spice.staticcheck``.

    One representative ring-oscillator netlist per fleet scenario at its
    highest planned supply -- the same circuits the compiler's
    verification pass already gated on.
    """
    circuits = {}
    for spec in FLEET_SPECS:
        compiled = compile_die(spec)
        netlist = compiled.group_netlists(
            voltages=(max(compiled.voltages),), unique=True
        )[0]
        circuits[f"{compiled.label}@{netlist.vdd:.2f}V"] = (
            netlist.oscillator.circuit
        )
    return circuits


if __name__ == "__main__":
    main()
