"""Per-layer metrics of one traced pass.

Every workload reports every metric; a layer the workload never enters
reads 0.  Times come from spans recorded in this process.  Layers that
run inside worker processes (the wafer pool's dies, the process
transport's solves) are reported as counts from the telemetry snapshot
the workers merge back, never as times.
"""

from __future__ import annotations

import statistics
from typing import Dict, Optional, Sequence, Tuple

from spans import Tracer

#: metric -> span name whose self time it sums, over the traced pass.
SELF_TIMES = {
    "spice.device_eval_s": "spice.device_eval",
    "spice.stamp_s": "spice.stamp",
    "spice.solve_s": "spice.solve",
    "spice.newton_update_s": "spice.newton_update",
    "spice.newton_self_s": "spice.newton",
    "spice.step_self_s": "spice.step",
    "spice.batch_self_s": "spice.batch",
    "engine.measure_self_s": "engine.measure",
}

#: metric -> span name whose total time it takes, median over set-ups.
SETUP_TIMES = {
    "compiler.compile_s": "compiler.compile",
    "flow.characterize_s": "flow.characterize",
    "cascade.prepare_s": "cascade.prepare",
    "service.start_s": "service.start",
}

#: metric -> telemetry counter (exact on mc_corners and wafer_cascade).
COUNTERS = {
    "spice.newton_solves": "newton_solves",
    "spice.newton_iterations": "newton_iterations",
    "spice.batched_solves": "batched_solves",
    "spice.step_halvings": "step_halvings",
    "spice.dense_solves": "dense_solves",
    "spice.lu_refactorizations": "lu_refactorizations",
    "cascade.escalations.near_band": "cascade.escalations.near_band",
    "cascade.escalations.novel": "cascade.escalations.novel",
    "ragged.packs": "ragged.packs",
}

#: metric -> StageLatency field; the metric is its per-request median.
STAGE_LATENCY = {
    "service.queue_wait_s": "queue_wait_s",
    "service.batch_form_s": "batch_form_s",
    "service.solve_s": "solve_s",
    "service.transport_s": "transport_s",
    "service.post_s": "post_s",
}

#: metric -> telemetry histogram whose exact mean it reports.
HISTOGRAM_MEANS = {
    "service.batch_occupancy_mean": "service.batch_occupancy",
    "service.family_span_mean": "service.family_span",
    "ragged.pad_waste_mean": "ragged.pad_waste",
}


def _hist(snapshot: Dict, name: str) -> Dict:
    return snapshot.get("histograms", {}).get(name, {})


def per_layer(
    tracer: Tracer,
    snapshot: Dict,
    *,
    setups: Sequence[Dict],
    overhead: float,
    wafer=None,
    ladder: Sequence[str] = (),
    responses: Optional[Sequence] = None,
) -> Tuple[Dict[str, float], Dict[str, int]]:
    """All per-layer metrics, plus the sample count behind each median."""
    out: Dict[str, float] = {}
    samples: Dict[str, int] = {}
    counters = snapshot.get("counters", {})

    for metric, name in SELF_TIMES.items():
        out[metric] = tracer.self_seconds(name)
    for metric, name in SETUP_TIMES.items():
        out[metric] = statistics.median(
            s.get(name, {}).get("total_s", 0.0) for s in setups)
    for metric, name in COUNTERS.items():
        out[metric] = float(counters.get(name, 0))
    solves = counters.get("newton_solves", 0)
    out["spice.iters_per_solve"] = (
        counters.get("newton_iterations", 0) / solves if solves else 0.0)
    hits = counters.get("cache_hits", 0)
    lookups = hits + counters.get("cache_misses", 0)
    out["cache.hit_rate"] = hits / lookups if lookups else 0.0

    # wafer: parent preflight vs the rest of screen (pool start, shipping,
    # worker screening, merge); cascade counts keyed by ladder position.
    preflight = tracer.total_seconds("wafer.preflight")
    screen = tracer.total_seconds("wafer.screen")
    out["wafer.preflight_s"] = preflight
    out["wafer.pool_s"] = screen - preflight if screen else 0.0
    stage0 = top = 0
    escalated_frac = 0.0
    if wafer is not None:
        totals = wafer.totals
        for name, count in totals.stage_measurements.items():
            position = ladder.index(name) if name in ladder[1:] else 0
            if position == 0:
                stage0 += count
            if position == len(ladder) - 1:
                top += count
        escalated_frac = totals.escalated / totals.num_tsvs
    out["cascade.stage0_measurements"] = float(stage0)
    out["cascade.top_measurements"] = float(top)
    out["cascade.escalated_frac"] = escalated_frac

    # service: per-request medians of the service's own stage timings
    answered = [r for r in responses or () if r.ok]
    for metric, field in STAGE_LATENCY.items():
        values = [getattr(r.latency, field) for r in answered]
        out[metric] = statistics.median(values) if values else 0.0
        samples[metric] = len(values)
    non_solve = [r.latency.total_s - r.latency.solve_s - r.latency.transport_s
                 for r in answered]
    out["service.non_solve_s"] = (
        statistics.median(non_solve) if non_solve else 0.0)
    samples["service.non_solve_s"] = len(non_solve)
    for metric, name in HISTOGRAM_MEANS.items():
        hist = _hist(snapshot, name)
        out[metric] = (hist["total"] / hist["count"]
                       if hist.get("count") else 0.0)
    n = len(responses or ())
    segment_bytes = _hist(snapshot, "arena.segment_bytes").get("total", 0.0)
    out["arena.bytes_per_request"] = segment_bytes / n if n else 0.0
    out["spice.newton_iterations_per_request"] = (
        counters.get("newton_iterations", 0) / n if n else 0.0)

    out["trace.overhead_frac"] = overhead
    return out, samples
