"""E17 -- the architecture compiler: design-space sweep + compiled serving.

Two claims, one bench.  First, the **Fig. 10 trade-off at scale**: a
24-point design-space grid (group size N x counter/LFSR x two supply
sets) for a 4096-TSV die, every point compiled through the verifying
compiler with a pinned 5 us window (the paper's worked example), priced,
and reduced to the Pareto frontier over (area fraction, DeltaT
resolution).  The asserted shape is the paper's: along the frontier,
walking toward cheaper area strictly degrades resolution -- larger
groups amortize the shared inverter but lengthen the measured period,
and the quantization error grows as T^2.

Second, **compiled heterogeneous serving**: three distinct compiled die
designs (different TSV counts, group sizes, and defect profiles) feed
one interleaved :class:`~repro.compiler.stream.ScenarioStream` through
the async screening service under ``coalesce="family"`` vs
``coalesce="exact"``.  Family coalescing must pack across the mixed
topologies (``service.family_span`` > 1) while every answer stays
bit-identical to exact-key batching.

Grid prices, the frontier, and the serving stats land in
``BENCH_compiler.json`` for the ``compiler-smoke`` CI job to publish.
"""

import asyncio
import json
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import Table, format_seconds
from repro.compiler import DieSpec, ScenarioStream, compile_die, sweep
from repro.core.engines.registry import spec as engine_spec
from repro.service import ScreeningService
from repro.spice.cache import cache_disabled
from repro.telemetry import use_telemetry
from repro.workloads.generator import DefectStatistics

NUM_TSVS = 4096

#: 6 x 2 x 2 = 24 grid points.
SWEEP_AXES = {
    "group_size": (2, 3, 4, 5, 6, 8),
    "measurement": ("counter", "lfsr"),
    "voltages": ((1.1, 0.95, 0.8, 0.75, 0.70), (1.1, 0.8, 0.70)),
}

#: Three distinct products on one tester queue; defect-heavy so exact
#: fingerprint batching fragments while family coalescing packs.
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


def run_policy(engine, requests, coalesce):
    """One timed pass of the full stream under a coalesce policy."""
    with use_telemetry() as telemetry:
        async def full():
            async with ScreeningService(
                engine=engine, coalesce=coalesce,
                max_queue_depth=NUM_REQUESTS,
                max_batch_size=NUM_REQUESTS,
            ) as service:
                futures = [await service.enqueue(r) for r in requests]
                return list(await asyncio.gather(*futures))

        t0 = time.perf_counter()
        responses = asyncio.run(full())
        wall_s = time.perf_counter() - t0
        snapshot = telemetry.snapshot()
    return responses, wall_s, snapshot


def policy_stats(snapshot):
    occupancy = snapshot["histograms"]["service.batch_occupancy"]
    span = snapshot["histograms"].get("service.family_span", {})
    return {
        "num_batches": occupancy["count"],
        "coalesce_width_mean": occupancy["total"] / occupancy["count"],
        "family_span_max": span.get("max", 1.0),
    }


def test_bench_compiler_sweep(benchmark):
    base = DieSpec(num_tsvs=NUM_TSVS, window=5e-6)

    # -- Fig. 10 at 4096 TSVs -----------------------------------------
    t0 = time.perf_counter()
    result = sweep(base, SWEEP_AXES)
    sweep_s = time.perf_counter() - t0

    assert len(result) == 24
    assert not result.failed, [v.error for v in result.failed]
    for variant in result.compiled:
        assert not variant.compiled.preflight.has_errors

    frontier = result.pareto_frontier()
    areas = [v.compiled.price.area_fraction for v in frontier]
    resolutions = [
        v.compiled.price.delta_t_resolution_s for v in frontier
    ]
    table = Table(
        ["N", "block", "supplies", "% die", "dT res (ps)", "frontier"],
        title=f"E17: {NUM_TSVS}-TSV design space, 24 points "
              f"in {format_seconds(sweep_s)}",
    )
    on_frontier = {id(v) for v in frontier}
    for variant in result.variants:
        price = variant.compiled.price
        table.add_row([
            str(variant.overrides["group_size"]),
            variant.overrides["measurement"],
            str(len(variant.overrides["voltages"])),
            f"{100 * price.area_fraction:.4f}",
            f"{price.delta_t_resolution_s * 1e12:.1f}",
            "*" if id(variant) in on_frontier else "",
        ])
    table.print()

    # The Fig. 10 shape: a genuine trade-off curve, not a single point
    # -- area strictly rises along the frontier while resolution
    # strictly improves, and the cheapest-area point is a larger group
    # than the best-resolution point.
    assert len(frontier) >= 3
    assert areas == sorted(areas)
    assert len(set(areas)) == len(areas)
    assert resolutions == sorted(resolutions, reverse=True)
    assert (frontier[0].compiled.price.group_size
            > frontier[-1].compiled.price.group_size)

    # -- compiled heterogeneous serving -------------------------------
    fleet = [compile_die(spec) for spec in FLEET_SPECS]
    assert len({c.architecture.group_size for c in fleet}) == 3
    stream = ScenarioStream(fleet, seed=42)
    requests = stream.requests(NUM_REQUESTS)
    engine = engine_spec("stagedelay", timestep=20e-12).build()

    with cache_disabled():
        engine.measure(requests[0].to_measurement())  # warm the code paths
        exact_resp, t_exact, exact_snap = run_policy(
            engine, requests, "exact"
        )
        family_resp, t_family, family_snap = run_policy(
            engine, requests, "family"
        )

    exact = policy_stats(exact_snap)
    family = policy_stats(family_snap)
    # A stuck TSV answers delta_t = nan under both policies;
    # equal_nan keeps that from reading as a divergence.
    identical = all(
        np.array_equal([a.delta_t], [b.delta_t], equal_nan=True)
        and a.vdd == b.vdd
        and np.array_equal(a.samples, b.samples, equal_nan=True)
        for a, b in zip(exact_resp, family_resp)
    )
    print(f"\nfleet serving: exact {exact['num_batches']} batches in "
          f"{format_seconds(t_exact)}, family {family['num_batches']} "
          f"batches in {format_seconds(t_family)}, family span max "
          f"{family['family_span_max']:.0f}, bit-identical: {identical}")

    assert identical, "family answers diverged from exact-key batching"
    assert family["family_span_max"] > 1, (
        "family batches never spanned the compiled topologies"
    )
    assert all(r.ok for r in family_resp)

    payload = {
        "num_tsvs": NUM_TSVS,
        "sweep_s": sweep_s,
        "sweep": result.as_json_dict(),
        "fleet": {
            "scenarios": [c.label for c in fleet],
            "num_requests": NUM_REQUESTS,
            "exact": {"wall_s": t_exact, **exact},
            "family": {"wall_s": t_family, **family},
            "bit_identical": identical,
        },
    }
    Path("BENCH_compiler.json").write_text(json.dumps(payload, indent=2))
    print(f"wrote BENCH_compiler.json ({len(frontier)} frontier points)")

    # Registered timing: one compile of the paper-scale production die.
    benchmark.pedantic(
        lambda: compile_die(DieSpec(num_tsvs=1000, group_size=5,
                                    window=5e-6, counter_bits=10)),
        rounds=1, iterations=1,
    )
