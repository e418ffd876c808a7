"""Serving screening requests: the async service with pickup batching.

A tester that probes many TSVs concurrently should not pay for one
transient solve per request: requests that share an engine setup,
supply, and netlist fingerprint can ride the same stacked Monte-Carlo
solve.  This example stands up the in-process
:class:`~repro.service.ScreeningService`, submits a burst of concurrent
requests for a handful of suspect TSVs at two supplies, and shows:

* every request gets a typed response with a per-stage latency split
  (queue wait / pending until a worker picks it up / solve /
  post-processing);
* compatible requests coalesced (batch sizes above 1) -- while the
  answers stay bit-identical to one-at-a-time ``engine.measure`` calls;
* a deadline turns a too-slow answer into a structured ``EXPIRED``
  response instead of a hang.

Run:  python examples/screening_service.py
"""

import asyncio

from repro.analysis.reporting import Table, format_si, service_table
from repro.core.engines import registry as engine_registry
from repro.core.tsv import Leakage, ResistiveOpen, Tsv
from repro.service import ScreenRequest, ScreeningService
from repro.spice.montecarlo import ProcessVariation
from repro.telemetry import use_telemetry

#: Coarse timestep keeps the demo snappy; batching parity is exact at
#: any resolution (production screening would run 2 ps).
TIMESTEP = 20e-12

SUSPECTS = {
    "healthy": Tsv(),
    "micro-void (1 kOhm)": Tsv(fault=ResistiveOpen(r_open=1000.0, x=0.5)),
    "weak pinhole (50 kOhm)": Tsv(fault=Leakage(r_leak=5e4)),
}


def make_requests(voltages=(1.1, 0.8), seeds=range(4)):
    """A concurrent burst: every suspect x supply x measurement seed."""
    variation = ProcessVariation()
    return [
        (label, ScreenRequest(tsv=tsv, vdd=vdd, seed=seed,
                              variation=variation, num_samples=1))
        for label, tsv in SUSPECTS.items()
        for vdd in voltages
        for seed in seeds
    ]


async def serve() -> None:
    engine = engine_registry.spec("stagedelay", timestep=TIMESTEP)
    labelled = make_requests()

    with use_telemetry() as telemetry:
        async with ScreeningService(
            engine=engine, max_batch_size=16,
        ) as service:
            responses = await service.submit_many(
                [request for _, request in labelled]
            )

            # A deadline no solve can meet: answered EXPIRED, not hung.
            rushed = await service.submit(ScreenRequest(
                tsv=Tsv(), variation=ProcessVariation(),
                deadline_s=0.001,
            ))

        table = Table(
            ["request", "V_DD", "DeltaT", "batch", "total latency"],
            title="screening service: one burst, coalesced solves",
        )
        for (label, request), response in zip(labelled, responses):
            if request.seed != 0:
                continue  # one row per (suspect, supply) keeps it short
            table.add_row([
                label, f"{response.vdd:.2f} V",
                format_si(response.delta_t, "s"),
                f"x{response.batch_size}",
                format_si(response.latency.total_s, "s"),
            ])
        table.print()

        print(f"\n1 ms deadline on a fresh request -> "
              f"{rushed.status.value} ({rushed.reason})")
        service_table(telemetry.snapshot()).print()


def main() -> None:
    asyncio.run(serve())


def preflight_circuits():
    """Netlists this example simulates, for the pre-flight static check.

    The service solves the stage engine's segment circuits; one circuit
    per supply in the demo's plan covers every netlist shape submitted.
    """
    circuits = {}
    for vdd in (1.1, 0.8):
        engine = engine_registry.spec(
            "stagedelay", timestep=TIMESTEP
        ).build(vdd=vdd)
        circuit, _ = engine._segment_circuit(Tsv(), bypassed=False)
        circuits[f"service-segment-{vdd}v"] = circuit
    return circuits


if __name__ == "__main__":
    main()
