"""E14 -- async screening service throughput (extension: online serving).

The offline flow solves one request at a time; the service coalesces
concurrent compatible requests (same engine knobs + supply + netlist
fingerprint) into shared stacked-corner solves.  This bench offers 64
concurrent requests -- 4 TSV fingerprints x 16 measurement seeds, the
shape of a tester re-probing a few suspect sites -- and compares:

* **serial baseline** -- one ``engine.measure`` call per request, the
  one-request-per-solve deployment;
* **screening service** -- the same 64 requests through the async
  pipeline with pickup batching (closed loop, 64 clients).

Asserted claims: the service is >= 3x faster at 64-way concurrency,
every answer is *bit-identical* to the serial baseline, and batching
actually happened (occupancy above 1).  The run's throughput, latency
quantiles, and batch-occupancy histogram land in ``BENCH_service.json``
for the ``service-smoke`` CI job to publish.

Environment knobs:

* ``REPRO_BENCH_SERVICE_TIMESTEP_PS`` -- stage-delay engine timestep in
  ps (default 20; coarse on purpose -- parity is exact at any timestep,
  and CI should spend its seconds on concurrency, not on resolution).
"""

import asyncio
import json
import os
import time
from pathlib import Path

import numpy as np

from repro.analysis.reporting import Table, format_seconds, service_table
from repro.core.engines.registry import spec as engine_spec
from repro.service import ScreeningService
from repro.telemetry import use_telemetry
from repro.workloads import DiePopulation, ServiceLoadGenerator

NUM_FINGERPRINTS = 4
SEEDS_PER_TSV = 16
NUM_REQUESTS = NUM_FINGERPRINTS * SEEDS_PER_TSV  # 64 concurrent requests
MAX_BATCH = SEEDS_PER_TSV


def service_timestep() -> float:
    return float(
        os.environ.get("REPRO_BENCH_SERVICE_TIMESTEP_PS", "20")
    ) * 1e-12


def test_bench_service_throughput(benchmark):
    spec = engine_spec("stagedelay", timestep=service_timestep())
    engine = spec.build()
    population = DiePopulation(num_tsvs=NUM_FINGERPRINTS, seed=7)
    gen = ServiceLoadGenerator(population, seed=42)
    requests = gen.requests(NUM_REQUESTS)

    # Baseline: one solve per request, in submission order.
    t0 = time.perf_counter()
    serial = [engine.measure(r.to_measurement()) for r in requests]
    t_serial = time.perf_counter() - t0

    with use_telemetry() as telemetry:
        async def full():
            async with ScreeningService(
                engine=engine, max_queue_depth=NUM_REQUESTS,
                max_batch_size=MAX_BATCH,
            ) as service:
                futures = [
                    await service.enqueue(r) for r in requests
                ]
                return list(await asyncio.gather(*futures))

        t0 = time.perf_counter()
        responses = asyncio.run(full())
        t_service = time.perf_counter() - t0
        snapshot = telemetry.snapshot()

    speedup = t_serial / t_service
    identical = all(
        resp.delta_t == ref.delta_t
        and resp.vdd == ref.vdd
        and np.array_equal(resp.samples, ref.samples)
        for resp, ref in zip(responses, serial)
    )
    occupancy = snapshot["histograms"]["service.batch_occupancy"]

    table = Table(
        ["configuration", "wall time", "req/s", "speedup"],
        title=(f"E14: {NUM_REQUESTS} concurrent screening requests "
               f"({NUM_FINGERPRINTS} fingerprints x {SEEDS_PER_TSV} seeds)"),
    )
    table.add_row(["serial (one solve per request)",
                   format_seconds(t_serial),
                   f"{NUM_REQUESTS / t_serial:.1f}", "1.0x"])
    table.add_row(["service (pickup-batched)",
                   format_seconds(t_service),
                   f"{NUM_REQUESTS / t_service:.1f}", f"{speedup:.1f}x"])
    table.print()
    service_table(snapshot, title="E14: service telemetry").print()
    print(f"\nbit-identical to serial baseline: {identical}")

    payload = {
        "num_requests": NUM_REQUESTS,
        "num_fingerprints": NUM_FINGERPRINTS,
        "timestep_ps": service_timestep() * 1e12,
        "serial_wall_s": t_serial,
        "service_wall_s": t_service,
        "speedup": speedup,
        "throughput_rps": NUM_REQUESTS / t_service,
        "bit_identical": identical,
        "latency_s": {
            "p50": sorted(r.latency.total_s for r in responses)[
                NUM_REQUESTS // 2
            ],
            "p99": sorted(r.latency.total_s for r in responses)[
                min(NUM_REQUESTS - 1, int(NUM_REQUESTS * 0.99))
            ],
            "max": max(r.latency.total_s for r in responses),
        },
        "batch_occupancy": {
            "count": occupancy["count"],
            "max": occupancy["max"],
            "buckets": {
                str(k): v for k, v in sorted(occupancy["buckets"].items())
            },
        },
    }
    Path("BENCH_service.json").write_text(json.dumps(payload, indent=2))
    print(f"wrote BENCH_service.json (speedup {speedup:.2f}x, "
          f"p99 {format_seconds(payload['latency_s']['p99'])})")

    # The serving claim: pickup batching amortizes >= 3x at 64-way
    # concurrency, without changing a single bit of the answers.
    assert identical, "service answers diverged from serial baseline"
    assert speedup >= 3.0, f"speedup {speedup:.2f}x < 3x"
    assert occupancy["max"] >= 2, "no coalescing happened"
    assert all(r.ok for r in responses)

    # Registered timing: a small pass through the service.
    small = gen.requests(8)

    async def small_pass():
        async with ScreeningService(
            engine=engine, max_batch_size=8,
        ) as service:
            return await service.submit_many(small)

    benchmark.pedantic(lambda: asyncio.run(small_pass()),
                       rounds=1, iterations=1)
