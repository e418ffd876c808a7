"""The benchmark workloads, one per way the stack is used.

Each workload is a function ``(seed, seconds, tracer) -> Outcome``.
With ``tracer=None`` it measures the end-to-end metrics with no span
wrappers installed.  With a tracer it makes the traced run instead:
untraced passes (the tracing-overhead baseline) and traced passes of
the same work, reported as per-layer metrics by :mod:`layers`.

NOTES.md says why each workload exists, its load model and which of
its counters repeat exactly.
"""

from __future__ import annotations

import asyncio
import json
import math
import statistics
import time
from contextlib import nullcontext
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import repro.compiler as compiler
from repro.cascade import CascadeConfig
from repro.compiler import DieSpec, ScenarioStream
from repro.core.engines.registry import spec as engine_spec
from repro.core.tsv import ResistiveOpen, Tsv
from repro.service import ScreeningService, ServiceConfig
from repro.spice.montecarlo import ProcessVariation
from repro.workloads.generator import DefectStatistics
from repro.workloads.wafer import WaferScreeningEngine

from harness import (
    SETUP_REPS,
    Outcome,
    fresh_scope,
    peak_rss_mb,
    percentile,
    run_rounds,
    setup_seconds,
    timed_setups,
    warm_up,
)
from layers import per_layer
from spans import Tracer

REFERENCE = Path(__file__).resolve().parent / "reference"

#: Both pools (wafer shards, service workers) get this many processes:
#: the reference machine has 2 cores.
WORKERS = 2

#: The repo's golden tolerance on Monte Carlo DeltaT statistics.
GOLDEN_TOL_PS = 0.05


def load_reference(name: str) -> Dict:
    return json.loads((REFERENCE / f"{name}.json").read_text())


def _e2e(throughput: float, latencies: Sequence[float], setup_s: float,
         rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics, latency percentiles from raw samples."""
    return {
        "setup_s": setup_s,
        "throughput_per_s": throughput,
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "peak_rss_mb": rss_mb,
    }


def _round_metrics(rounds: Sequence[Dict], work: float, setup_s: float,
                   rss_mb: float) -> Dict[str, float]:
    """End-to-end metrics of equal rounds of ``work`` units each.

    Throughput is the median over rounds, so one round slowed by the
    machine does not move it; latency is per round.
    """
    walls = [r["wall_s"] for r in rounds]
    return _e2e(statistics.median(work / t for t in walls), walls, setup_s,
                rss_mb)


def _traced_rounds(tracer: Tracer, one_round, pairs: int = 2):
    """Alternate untraced and traced rounds.

    Returns the traced rounds (spans of the last one only) and the
    tracing overhead: median traced over median untraced wall time,
    minus one.
    """
    plain: List[Dict] = []
    traced: List[Dict] = []
    for _ in range(pairs):
        plain += run_rounds(one_round, 0)
        tracer.reset()
        with tracer.installed():
            traced += run_rounds(one_round, 0)
    overhead = (statistics.median(r["wall_s"] for r in traced)
                / statistics.median(r["wall_s"] for r in plain)) - 1.0
    return traced, overhead


def _latency_samples(n: int) -> Dict[str, int]:
    return {"latency_p50_s": n, "latency_p90_s": n}


def _traced_setups(tracer: Tracer, build):
    """Set-up repetitions under the tracer; per-rep span summaries."""
    summaries: List[Dict] = []
    state = None
    for _ in range(SETUP_REPS):
        tracer.reset()
        with fresh_scope():
            state = build()
        summaries.append(tracer.summary())
    tracer.reset()
    return state, summaries


# ----------------------------------------------------------------------
# mc_corners: large-S batched Monte Carlo (Fig. 7 configuration)
# ----------------------------------------------------------------------
MC_CORNERS = 256
MC_TIMESTEP = 2e-12
MC_VDD = 1.1
MC_FAULT = Tsv(fault=ResistiveOpen(1000.0, 0.5))
#: The seed picks one of this many Monte Carlo seeds, each with a
#: reference in reference/mc_corners.json.
MC_VARIANTS = 16


def mc_seed(seed: int) -> int:
    return 1 + seed % MC_VARIANTS


def mc_build():
    return engine_spec("stagedelay", timestep=MC_TIMESTEP)(MC_VDD)


def mc_round(engine, seed: int) -> Dict:
    samples = engine.delta_t_mc(
        MC_FAULT, ProcessVariation(), MC_CORNERS, seed=mc_seed(seed)
    )
    return {"samples": samples}


def mc_corner_steps(engine) -> int:
    """Corner-steps of one round: two batched transients (TSV in the
    loop, TSV bypassed) over the same window, for every corner."""
    return MC_CORNERS * 2 * int(round(engine.stop_time() / engine.timestep))


def mc_check(samples: np.ndarray, seed: int, problems: List[str]) -> int:
    """Compare one round with its reference; returns failed corners."""
    ref = load_reference("mc_corners")["variants"][str(mc_seed(seed))]
    finite = np.isfinite(samples)
    if not finite.all():
        problems.append(f"mc_corners: {int((~finite).sum())} non-finite")
    mean_ps = float(np.mean(samples)) * 1e12
    std_ps = float(np.std(samples)) * 1e12
    for label, got, want in (("mean", mean_ps, ref["mean_ps"]),
                             ("std", std_ps, ref["std_ps"])):
        if not abs(got - want) <= GOLDEN_TOL_PS:
            problems.append(f"mc_corners: DeltaT {label} {got:.4f} ps vs "
                            f"reference {want:.4f} ps")
    return int((~finite).sum())


def mc_corners(seed: int, seconds: float,
               tracer: Optional[Tracer]) -> Outcome:
    problems: List[str] = []

    def one_round() -> Dict:
        return mc_round(engine, seed)

    if tracer is None:
        engine, build_times = timed_setups(mc_build)
        rounds = run_rounds(one_round, seconds)
    else:
        with tracer.installed():
            engine, summaries = _traced_setups(tracer, mc_build)
        rounds, overhead = _traced_rounds(tracer, one_round)
    failed = sum(mc_check(r["samples"], seed, problems) for r in rounds)
    attempted = MC_CORNERS * len(rounds)
    if tracer is not None:
        metrics, samples = per_layer(
            tracer, rounds[-1]["telemetry"], setups=summaries,
            overhead=overhead)
        return Outcome(not problems, attempted, failed, metrics, samples,
                       problems)
    rss = peak_rss_mb()
    metrics = _round_metrics(rounds, mc_corner_steps(engine),
                             setup_seconds(build_times), rss)
    return Outcome(not problems, attempted, failed, metrics,
                   _latency_samples(len(rounds)), problems)


# ----------------------------------------------------------------------
# wafer_cascade: compiled die -> cascade wafer screen on a process pool
# ----------------------------------------------------------------------
WAFER_SPEC = DieSpec(num_tsvs=16, voltages=(1.1, 0.8), fidelity="cascade",
                     label="wafer-die")
WAFER_DIES = 8
WAFER_SEED = 2013
#: Stage 0 is the compiled analytic engine; escalations go to the
#: stage-delay transient at fleet_service's 20 ps step.
WAFER_CASCADE = CascadeConfig(
    escalation=(engine_spec("stagedelay", timestep=20e-12),),
    stage_characterization_samples=48,
)


def wafer_build():
    compiled = compiler.compile_die(WAFER_SPEC)
    engine = WaferScreeningEngine(
        compiled.engine_spec,
        voltages=compiled.voltages,
        variation=compiled.spec.variation,
        group_size=compiled.architecture.group_size,
        plan=compiled.plan,
        characterization_samples=compiled.spec.characterization_samples,
        tsv_cap_variation_rel=compiled.spec.tsv_cap_variation_rel,
        seed=compiled.spec.flow_seed,
        cascade=WAFER_CASCADE,
        measurement_variation=None,
    )
    engine.flow.cascade.prepare()
    return compiled, engine


def wafer_row(metrics) -> List[int]:
    return [metrics.detected, metrics.escapes, metrics.overkill,
            metrics.escalated]


def wafer_check(result, problems: List[str]) -> int:
    """Per-die counts must equal the reference; returns rejected dies."""
    ref = load_reference("wafer_cascade")["per_die"]
    for index, metrics in enumerate(result.per_die):
        if wafer_row(metrics) != ref[index]:
            problems.append(
                f"wafer_cascade: die {index} detected/escapes/overkill/"
                f"escalated {wafer_row(metrics)} vs reference {ref[index]}")
    return result.dies_rejected


def wafer_cascade(seed: int, seconds: float,
                  tracer: Optional[Tracer]) -> Outcome:
    """``seed`` does not change this workload's input: see NOTES.md."""
    problems: List[str] = []

    def one_round() -> Dict:
        return {"result": engine.screen(wafer, workers=WORKERS)}

    if tracer is None:
        (compiled, engine), build_times = timed_setups(wafer_build)
    else:
        with tracer.installed():
            (compiled, engine), summaries = _traced_setups(
                tracer, wafer_build)
    wafer = compiled.wafer(WAFER_DIES, seed=WAFER_SEED)
    warm_up(one_round)
    if tracer is None:
        rounds = run_rounds(one_round, seconds)
    else:
        rounds, overhead = _traced_rounds(tracer, one_round)
    failed = sum(wafer_check(r["result"], problems) for r in rounds)
    attempted = WAFER_DIES * len(rounds)
    if tracer is not None:
        metrics, samples = per_layer(
            tracer, rounds[-1]["telemetry"], setups=summaries,
            overhead=overhead, wafer=rounds[-1]["result"],
            ladder=engine.flow.cascade.stage_names,
        )
        return Outcome(not problems, attempted, failed, metrics, samples,
                       problems)
    rss = peak_rss_mb()
    metrics = _round_metrics(rounds, WAFER_DIES, setup_seconds(build_times),
                             rss)
    return Outcome(not problems, attempted, failed, metrics,
                   _latency_samples(len(rounds)), problems)


# ----------------------------------------------------------------------
# fleet_service: closed-loop load on a process-transport ScreeningService
# ----------------------------------------------------------------------
#: Three products on one tester queue (the compiled-fleet example's
#: specs): different TSV counts and defect mixes, one supply pair.
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
FLEET_ENGINE = engine_spec("stagedelay", timestep=20e-12)
CLIENTS = 16
#: Requests generated per measured second; a closed loop that uses them
#: all up ends early.
REQUESTS_PER_SECOND = 100
#: Stream seed of the one warm-up request that makes set-up include
#: worker start; never a measured seed's stream.
WARMUP_SEED = 10**9
#: Stream positions checked bit for bit against a direct measurement:
#: every (product, supply) pair, plus two later requests.
CHECK_INDICES = (0, 1, 2, 3, 4, 5, 50, 99)


#: Every service this run started, so each is closed on every path out.
_SERVICES: List[ScreeningService] = []


async def _start_service(tracer: Optional[Tracer] = None):
    """Compile the fleet, start the service and let it spawn workers.

    The transport is pinned: ``"auto"`` would resolve by core count.
    """
    fleet = [compiler.compile_die(spec) for spec in FLEET_SPECS]
    warm = ScenarioStream(fleet, seed=WARMUP_SEED).requests(1)[0]
    service = ScreeningService(ServiceConfig(
        engine=FLEET_ENGINE, coalesce="family", transport="process",
        num_workers=WORKERS,
    ))
    _SERVICES.append(service)
    with tracer.span("service.start") if tracer else nullcontext():
        await service.start()
        await service.submit(warm)  # the first solve spawns the workers
    return fleet, service


async def _setups(tracer: Optional[Tracer]):
    """SETUP_REPS service builds; earlier ones are closed again."""
    times: List[float] = []
    summaries: List[Dict] = []
    state = None
    for _ in range(SETUP_REPS):
        if state is not None:
            await state[1].close()
        if tracer is not None:
            tracer.reset()
        with fresh_scope():
            start = time.perf_counter()
            state = await _start_service(tracer)
            times.append(time.perf_counter() - start)
        if tracer is not None:
            summaries.append(tracer.summary())
    if tracer is not None:
        tracer.reset()
    return state, times, summaries


async def _closed_loop(service, requests, seconds: float):
    """CLIENTS clients, each sending its next request after its answer.

    Clients stop sending once ``seconds`` have passed.  Returns
    ``[(stream index, client-side latency, response)]`` and the wall
    time until the last answer.
    """
    done: List[Tuple[int, float, object]] = []
    next_index = 0
    start = time.perf_counter()
    stop = start + seconds

    async def client() -> None:
        nonlocal next_index
        while next_index < len(requests) and time.perf_counter() < stop:
            i = next_index
            next_index += 1
            sent = time.perf_counter()
            response = await service.submit(requests[i])
            done.append((i, time.perf_counter() - sent, response))

    await asyncio.gather(*(client() for _ in range(CLIENTS)))
    return done, time.perf_counter() - start


async def _measure(service, fleet, seed: int, seconds: float):
    """One closed-loop pass in a fresh scope; closes the service."""
    requests = ScenarioStream(fleet, seed=seed).requests(
        int(REQUESTS_PER_SECOND * seconds) + max(CHECK_INDICES) + 1)
    with fresh_scope() as tele:
        done, wall = await _closed_loop(service, requests, seconds)
        await service.close()
        snapshot = tele.snapshot()
    return done, wall, snapshot, requests


def _same(a, b) -> bool:
    """Bit equality of two measurements, NaN equal to NaN."""
    scalar = (a.delta_t == b.delta_t
              or (math.isnan(a.delta_t) and math.isnan(b.delta_t)))
    if a.samples is None or b.samples is None:
        return scalar and a.samples is None and b.samples is None
    return scalar and a.vdd == b.vdd and np.array_equal(
        a.samples, b.samples, equal_nan=True)


def service_check(done, requests, problems: List[str]) -> int:
    """Non-OK answers, plus the fixed sample against direct measures."""
    failed = sum(1 for _, _, r in done if not r.ok)
    if failed:
        problems.append(f"fleet_service: {failed} non-OK responses")
    by_index = {i: r for i, _, r in done}
    missing = [i for i in CHECK_INDICES if i not in by_index]
    if missing:
        problems.append(f"fleet_service: checked requests {missing} never "
                        f"answered ({len(done)} answered)")
    engine = FLEET_ENGINE.build()
    with fresh_scope():
        for i in CHECK_INDICES:
            if i in by_index:
                direct = engine.measure(requests[i].to_measurement())
                if not _same(by_index[i], direct):
                    problems.append(
                        f"fleet_service: request {i} answered "
                        f"{by_index[i].delta_t!r}, direct measure "
                        f"{direct.delta_t!r}")
    return failed


def fleet_service(seed: int, seconds: float,
                  tracer: Optional[Tracer]) -> Outcome:
    return asyncio.run(_fleet_service(seed, seconds, tracer))


async def _fleet_service(seed: int, seconds: float,
                         tracer: Optional[Tracer]) -> Outcome:
    try:
        return await _fleet_service_run(seed, seconds, tracer)
    finally:
        # Closing a closed service is a no-op; an open one (left by an
        # exception) has its worker processes joined here.
        for service in _SERVICES:
            await service.close(drain=False)
        _SERVICES.clear()


async def _fleet_service_run(seed: int, seconds: float,
                             tracer: Optional[Tracer]) -> Outcome:
    problems: List[str] = []
    if tracer is None:
        (fleet, service), build_times, _ = await _setups(None)
        done, wall, _, requests = await _measure(
            service, fleet, seed, seconds)
        rss = peak_rss_mb()
        failed = service_check(done, requests, problems)
        latencies = [lat for _, lat, _ in done]
        metrics = _e2e(len(done) / wall, latencies,
                       setup_seconds(build_times), rss)
        return Outcome(not problems, len(done), failed, metrics,
                       _latency_samples(len(latencies)), problems)
    # Traced run: an untraced service pass for the overhead baseline,
    # then traced set-ups and a traced pass on the last one.
    fleet, service = await _start_service()
    base, base_wall, _, _ = await _measure(service, fleet, seed, seconds)
    with tracer.installed():
        (fleet, service), _, summaries = await _setups(tracer)
        done, wall, snapshot, requests = await _measure(
            service, fleet, seed, seconds)
    failed = service_check(done, requests, problems)
    metrics, samples = per_layer(
        tracer, snapshot, setups=summaries,
        overhead=(len(base) / base_wall) / (len(done) / wall) - 1.0,
        responses=[r for _, _, r in done],
    )
    return Outcome(not problems, len(done), failed, metrics, samples,
                   problems)


WORKLOADS = {
    "mc_corners": mc_corners,
    "wafer_cascade": wafer_cascade,
    "fleet_service": fleet_service,
}
