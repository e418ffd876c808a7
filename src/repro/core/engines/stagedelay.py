"""Per-stage transient engine -- the batched Monte Carlo workhorse."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cells import CellKit
from repro.core.engines.base import (
    DEFAULT_STOP_POLICY,
    Engine,
    EngineCapabilities,
    MeasurementRequest,
    MeasurementResult,
    StopTimePolicy,
)
from repro.core.engines.montecarlo import same_seed_samples
from repro.core.engines.registry import register
from repro.core.segments import RingOscillatorConfig
from repro.core.tsv import Leakage, ResistiveOpen, Tsv
from repro.spice import Pulse, transient
from repro.spice.batch import BatchedResult, BatchParameters, BatchedSimulation
from repro.spice.ragged import TopologyFamily, ragged_transient
from repro.spice.cache import circuit_fingerprint, fingerprint, memoize
from repro.spice.mna import ConvergenceError
from repro.spice.montecarlo import ProcessSample, ProcessVariation
from repro.spice.netlist import Circuit, GROUND
from repro.spice.waveform import NoOscillationError
from repro.telemetry import get_telemetry


def _first_crossings_after(
    time: np.ndarray,
    traces: np.ndarray,
    level: float,
    direction: str,
    t_min: float,
) -> np.ndarray:
    """Per-corner first interpolated crossing at/after ``t_min``.

    Vectorized equivalent of ``Waveform.crossings(level, direction)``
    followed by taking the first crossing ``>= t_min``; ``traces`` is the
    stacked ``(S, T)`` voltage array and the return value is ``(S,)``
    with NaN where a corner never crosses (stuck path).
    """
    below = traces < level
    if direction == "rise":
        mask = below[:, :-1] & ~below[:, 1:]
    else:
        mask = ~below[:, :-1] & below[:, 1:]
    v1 = traces[:, :-1]
    v2 = traces[:, 1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        frac = (level - v1) / (v2 - v1)
    t_cross = time[:-1] + frac * (time[1:] - time[:-1])
    cand = np.where(mask & (t_cross >= t_min), t_cross, np.inf)
    first = cand.min(axis=1)
    return np.where(np.isfinite(first), first, np.nan)


@dataclass
class _StackEntry:
    """One deterministic request prepared for a stacked solve.

    ``resistors``/``capacitors`` hold the values of the request's TSV
    subnet elements (``ctop``, ``cbot``, ``ro``, ``rl``) by element name,
    which become the per-corner overrides of the stacked run.
    """

    index: int
    request: MeasurementRequest
    resistors: Dict[str, float]
    capacitors: Dict[str, float]


@register("stagedelay", "stage", "stage-delay")
@dataclass
class StageDelayEngine(Engine):
    """Per-stage transient simulation; the workhorse engine.

    The segment test circuit is one I/O segment exactly as it appears in
    the ring (I/O cell, TSV network, bypass mux) with a pulse input and a
    receiver-sized load.  Stage delays are measured 50%-to-50%; the loop
    period is the sum of stage delays plus the loop-closer (inverter +
    TE mux) delays.

    Monte Carlo runs are batched: all corners are simulated in one stacked
    MNA run (:mod:`repro.spice.batch`).
    """

    config: RingOscillatorConfig = RingOscillatorConfig()
    timestep: float = 1e-12
    input_slew: float = 20e-12
    pulse_width: float = 1.0e-9
    stop_policy: StopTimePolicy = field(default=DEFAULT_STOP_POLICY)

    capabilities: ClassVar[EngineCapabilities] = EngineCapabilities(
        batched_mc=True,
        batched_requests=True,
        family_requests=True,
        parameter_sweeps=True,
        preflight_circuits=True,
        oscillation_stop=False,
        picklable=True,
    )

    def _pulse_width(self) -> float:
        return self.pulse_width

    # -- circuit builders ------------------------------------------------
    def _input_pulse(self) -> Pulse:
        return Pulse(
            0.0, self.config.vdd, delay=self.stop_policy.input_delay,
            rise=self.input_slew, fall=self.input_slew,
            width=self.pulse_width,
        )

    def _segment_circuit(
        self,
        tsv: Tsv,
        bypassed: bool,
        sample: Optional[ProcessSample] = None,
        sweepable: bool = False,
    ) -> Tuple[Circuit, Dict[str, str]]:
        cfg = self.config
        vdd = cfg.vdd
        circuit = Circuit("segment")
        circuit.add_vsource("vdd", "vdd", GROUND, vdd)
        circuit.add_vsource("v_oe", "OE", GROUND, vdd)
        circuit.add_vsource(
            "v_by", "BY", GROUND, vdd if bypassed else 0.0
        )
        circuit.add_vsource("vin", "din", GROUND, self._input_pulse())
        kit = CellKit(circuit, vdd="vdd", tech=cfg.tech, sample=sample)
        kit.io_cell("io", "din", "OE", "pad", "rx",
                    driver_strength=cfg.driver_strength)
        if sweepable:
            elements = tsv.build_sweepable(circuit, "tsv", "pad")
        else:
            elements = tsv.build(circuit, "tsv", "pad")
        kit.mux2("bymux", "rx", "din", "BY", "dout")
        # Load: the next segment's driver input inverter (X2-equivalent).
        kit.inverter("load", "dout", "load_out", strength=2.0)
        return circuit, elements

    def _closer_circuit(
        self, sample: Optional[ProcessSample] = None
    ) -> Circuit:
        """Loop inverter + TE mux, as seen between segment N and segment 1."""
        cfg = self.config
        vdd = cfg.vdd
        circuit = Circuit("closer")
        circuit.add_vsource("vdd", "vdd", GROUND, vdd)
        circuit.add_vsource("v_te", "TE", GROUND, vdd)
        circuit.add_vsource("v_func", "func_in", GROUND, 0.0)
        circuit.add_vsource("vin", "din", GROUND, self._input_pulse())
        kit = CellKit(circuit, vdd="vdd", tech=cfg.tech, sample=sample)
        kit.inverter("loop_inv", "din", "osc", strength=1.0)
        kit.mux2("te_mux", "func_in", "osc", "TE", "loop_in")
        kit.inverter("load", "loop_in", "load_out", strength=2.0)
        return circuit

    def preflight_circuits(
        self, tsv: Optional[Tsv] = None
    ) -> Dict[str, Circuit]:
        """The circuit shapes this engine simulates, built but not run.

        For the static analyzer (:mod:`repro.spice.staticcheck`) and the
        ``python -m repro.spice.staticcheck`` CLI: one entry per distinct
        topology a measurement touches, keyed by a stable label.
        """
        probe = tsv if tsv is not None else Tsv()
        return {
            "segment": self._segment_circuit(probe, bypassed=False)[0],
            "segment-bypassed": self._segment_circuit(probe, bypassed=True)[0],
            "segment-sweepable": self._segment_circuit(
                probe, bypassed=False, sweepable=True
            )[0],
            "closer": self._closer_circuit(),
        }

    # -- scalar measurements ----------------------------------------------
    def _edge_delays(
        self, circuit: Circuit, out_node: str, inverting: bool
    ) -> Tuple[float, float]:
        """(delay after input rise, delay after input fall) at 50%/50%."""
        vdd = self.config.vdd
        result = transient(
            circuit, self.stop_time(), self.timestep,
            record=["din", out_node],
        )
        win = result.waveform("din")
        wout = result.waveform(out_node)
        half = vdd / 2.0
        rise_out = "fall" if inverting else "rise"
        fall_out = "rise" if inverting else "fall"
        d_rise = win.propagation_delay_to(wout, half, edge_in="rise",
                                          edge_out=rise_out)
        d_fall = win.propagation_delay_to(wout, half, edge_in="fall",
                                          edge_out=fall_out)
        return d_rise, d_fall

    def segment_delays(
        self,
        tsv: Tsv,
        bypassed: bool = False,
        sample: Optional[ProcessSample] = None,
    ) -> Tuple[float, float]:
        """(tpLH, tpHL) of one I/O segment (non-inverting path).

        Raises:
            NoOscillationError: If the segment output never switches
                within the observation window (stuck path).
        """
        circuit, _ = self._segment_circuit(tsv, bypassed, sample)
        return self._edge_delays(circuit, "dout", inverting=False)

    def closer_delays(
        self, sample: Optional[ProcessSample] = None
    ) -> Tuple[float, float]:
        """(input-rise, input-fall) delays of the inverter + TE mux path."""
        circuit = self._closer_circuit(sample)
        return self._edge_delays(circuit, "loop_in", inverting=True)

    def period(
        self,
        tsvs: Sequence[Tsv],
        enabled: Sequence[bool],
        sample: Optional[ProcessSample] = None,
    ) -> float:
        """Loop period as the sum of per-stage delays."""
        n = self.config.num_segments
        if len(tsvs) != n or len(enabled) != n:
            raise ValueError("tsvs and enabled must match num_segments")
        total = 0.0
        for tsv, on in zip(tsvs, enabled):
            d_rise, d_fall = self.segment_delays(tsv, bypassed=not on,
                                                 sample=sample)
            total += d_rise + d_fall
        c_rise, c_fall = self.closer_delays(sample)
        return total + c_rise + c_fall

    def delta_t(
        self,
        tsv: Tsv,
        m: int = 1,
        variation: Optional[ProcessVariation] = None,
        seed: int = 0,
    ) -> float:
        """DeltaT = T1 - T2; shared stages cancel exactly by construction."""
        if not 1 <= m <= self.config.num_segments:
            raise ValueError("invalid m")
        total = 0.0
        for i in range(m):
            s_on, s_off = same_seed_samples(variation, seed * 1000003 + i)
            on_r, on_f = self.segment_delays(tsv, bypassed=False, sample=s_on)
            off_r, off_f = self.segment_delays(tsv, bypassed=True, sample=s_off)
            total += (on_r + on_f) - (off_r + off_f)
        return total

    # -- batched Monte Carlo ----------------------------------------------
    def _segment_sim(
        self,
        tsv: Tsv,
        bypassed: bool,
        params: BatchParameters,
        sweepable: bool = False,
        resistor_overrides: Optional[Dict[str, np.ndarray]] = None,
    ) -> BatchedSimulation:
        """Compile one segment circuit + corner overrides, ready to run."""
        circuit, elements = self._segment_circuit(
            tsv, bypassed, sample=None, sweepable=sweepable
        )
        if resistor_overrides:
            for short_name, values in resistor_overrides.items():
                params = params.with_resistor(elements[short_name], values)
        return BatchedSimulation(circuit, params)

    def _delays_from_result(
        self, result: BatchedResult
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-corner (tpLH, tpHL) from a recorded din/dout transient."""
        half = self.config.vdd / 2.0
        win = result.waveform("din", 0)
        t_rise_in = win.crossings(half, "rise")
        t_fall_in = win.crossings(half, "fall")
        if len(t_rise_in) == 0 or len(t_fall_in) == 0:
            raise NoOscillationError("input pulse malformed")
        tr, tf = t_rise_in[0], t_fall_in[0]
        vout = result.voltages["dout"]
        d_rise = _first_crossings_after(result.time, vout, half, "rise", tr) - tr
        d_fall = _first_crossings_after(result.time, vout, half, "fall", tf) - tf
        return d_rise, d_fall

    def _batched_segment_delays(
        self,
        tsv: Tsv,
        bypassed: bool,
        params: BatchParameters,
        sweepable: bool = False,
        resistor_overrides: Optional[Dict[str, np.ndarray]] = None,
        strict: bool = False,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-corner (tpLH, tpHL) arrays; NaN where the path is stuck."""
        sim = self._segment_sim(
            tsv, bypassed, params, sweepable, resistor_overrides
        )
        result = sim.transient(
            self.stop_time(), self.timestep, record=["din", "dout"],
            strict=strict,
        )
        return self._delays_from_result(result)

    def delta_t_mc(
        self,
        tsv: Tsv,
        variation: ProcessVariation,
        num_samples: int,
        m: int = 1,
        seed: int = 0,
    ) -> np.ndarray:
        """Monte Carlo DeltaT samples (batched).

        Each sample models one die: ``m`` segments under test with
        independent mismatch, measured once with TSVs in the loop (T1)
        and once bypassed (T2).  The same mismatch is applied to both
        measurements (same die), so only the segment-internal variation
        that the paper says cannot cancel remains.

        Returns:
            Array of length ``num_samples``; NaN marks dies where the
            TSV path did not switch (oscillation stop / stuck-at-0).
        """
        corners = num_samples * m
        circuit_probe, _ = self._segment_circuit(tsv, bypassed=False)
        params = BatchParameters.monte_carlo(
            circuit_probe, variation, corners, seed=seed
        )
        # Identical topology and build order for both runs -> the same
        # BatchParameters apply corner-for-corner.
        on_r, on_f = self._batched_segment_delays(tsv, False, params)
        off_r, off_f = self._batched_segment_delays(tsv, True, params)
        per_corner = (on_r + on_f) - (off_r + off_f)
        return per_corner.reshape(num_samples, m).sum(axis=1)

    # -- request coalescing (screening service) ---------------------------
    def _rebound(self, request: MeasurementRequest) -> "StageDelayEngine":
        """This engine with the request's supply/stop-policy overrides."""
        engine = self
        if request.vdd is not None:
            engine = engine.at_vdd(request.vdd)
        if request.stop_policy is not None:
            engine = replace(engine, stop_policy=request.stop_policy)
        return engine

    def batch_key(self, request: MeasurementRequest) -> Optional[str]:
        """Compatibility key: engine knobs + effective supply + netlist.

        Only Monte Carlo requests coalesce: the scalar path bakes a
        :class:`ProcessSample` into the netlist at build time, so two
        scalar requests never share a circuit.  The key is memoized
        through the solve cache -- repeated request shapes skip the
        netlist build and fingerprint walk.
        """
        if request.num_samples is None:
            return None
        engine = self._rebound(request)

        def compute() -> str:
            circuit, _ = engine._segment_circuit(request.tsv, bypassed=False)
            return fingerprint(
                "stagedelay.batch_key",
                type(engine).__name__,
                circuit_fingerprint(circuit),
                engine.timestep,
                engine.input_slew,
                engine.pulse_width,
                engine.stop_policy,
            )

        return memoize(
            fingerprint(
                "stagedelay.batch_key.inputs", type(engine).__name__,
                engine.config, engine.timestep, engine.input_slew,
                engine.pulse_width, engine.stop_policy, request.tsv,
            ),
            compute,
        )

    def family_key(self, request: MeasurementRequest) -> Optional[str]:
        """Coarse key: engine knobs + effective supply, *no* netlist.

        Where :meth:`batch_key` fingerprints the circuit content (so
        every distinct fault resistance is its own group), the family
        key only fingerprints what every member of a ragged pack must
        share: the engine parameters, the effective
        :class:`~repro.core.segments.RingOscillatorConfig` (which
        carries the supply) and the stop policy.  All same-supply Monte
        Carlo requests therefore coalesce into one family regardless of
        their TSV fault values -- the realistic mixed-wafer load the
        exact key fragments into singletons.
        """
        if request.num_samples is None:
            return None
        return self._rebound(request)._settings_key()

    def _settings_key(self) -> str:
        """Fingerprint of everything but the TSV that shapes a solve."""
        return fingerprint(
            "stagedelay.family_key",
            type(self).__name__,
            self.config,
            self.timestep,
            self.input_slew,
            self.pulse_width,
            self.stop_policy,
        )

    def measure_batch(
        self, requests: Sequence[MeasurementRequest]
    ) -> List[MeasurementResult]:
        """Execute requests, stacking and packing compatible ones.

        Three coalescing tiers:

        * Deterministic requests (``num_samples=None``, no variation)
          whose engine settings and supply match and whose segment
          circuits share a :class:`~repro.spice.ragged.TopologyFamily`
          run as one stacked in-loop/bypassed simulation pair, each
          TSV's subnet values becoming per-corner overrides
          (:meth:`_measure_stack`).
        * Monte Carlo requests with equal :meth:`batch_key` draw their
          mismatch corners independently (exactly as :meth:`measure`
          would) and run as one concatenated :class:`BatchParameters`
          through a single on/bypassed simulation pair.
        * Exact groups that differ in circuit content but share a
          :meth:`family_key` -- different fault values, same engine
          configuration -- are packed into one ragged cross-topology
          solve (:func:`repro.spice.ragged.ragged_transient`).

        In every tier per-request results are bit-identical to serial
        measurement: each shared run is strict (no gmin ladder, no step
        bisection, both of which act on the whole batch), and a run that
        fails to converge is re-solved in smaller pieces, each failure
        counted in ``stagedelay.stack_fallbacks``.  A failed family pack
        re-runs each exact group as its own strict stacked pair; a
        failed stack or group re-solves its requests one by one through
        :meth:`measure`.  So one request that needs step bisection costs
        its batch the failed shared run plus a serial solve of each
        request in its own exact group, while the pack's other groups
        keep a stacked solve.
        Requests no tier applies to (scalar requests with process
        variation, invalid ``m``, non-finite TSV values) and tiers
        holding a single request fall back to :meth:`measure`.
        """
        results: List[Optional[MeasurementResult]] = [None] * len(requests)
        families: Dict[str, Dict[str, List[int]]] = {}
        stacks: Dict[Tuple[str, TopologyFamily], List[_StackEntry]] = {}
        for i, request in enumerate(requests):
            key = self.batch_key(request)
            if key is None:
                stacked = self._stack_entry(i, request)
                if stacked is None:
                    results[i] = self.measure(request)
                else:
                    stacks.setdefault(stacked[0], []).append(stacked[1])
                continue
            family = self.family_key(request) or key
            families.setdefault(family, {}).setdefault(key, []).append(i)
        for entries in stacks.values():
            for entry, result in zip(entries, self._measure_stack(entries)):
                results[entry.index] = result
        for subgroups in families.values():
            get_telemetry().observe("stagedelay.family_span", len(subgroups))
            groups = [[requests[i] for i in idx] for idx in subgroups.values()]
            packed = (
                self._measure_family(groups) if len(groups) > 1
                else [self._measure_exact(groups[0])]
            )
            for indices, grouped in zip(subgroups.values(), packed):
                for i, result in zip(indices, grouped):
                    results[i] = result
        return [r for r in results if r is not None]

    def _stack_entry(
        self, index: int, request: MeasurementRequest
    ) -> Optional[Tuple[Tuple[str, TopologyFamily], _StackEntry]]:
        """(stack key, entry) for a deterministic request, else None."""
        if request.num_samples is not None or request.variation is not None:
            return None
        engine = self._rebound(request)
        if not 1 <= request.m <= engine.config.num_segments:
            return None  # measure() raises the usual ValueError
        circuit, elements = engine._segment_circuit(
            request.tsv, bypassed=False
        )
        names = set(elements.values())
        resistors = {
            r.name: r.resistance for r in circuit.resistors if r.name in names
        }
        capacitors = {
            c.name: c.capacitance for c in circuit.capacitors
            if c.name in names
        }
        values = [*resistors.values(), *capacitors.values()]
        if not all(math.isfinite(v) for v in values):
            return None  # measure() reports the preflight error
        key = (engine._settings_key(), TopologyFamily.of(circuit))
        return key, _StackEntry(index, request, resistors, capacitors)

    def _measure_stack(
        self, entries: Sequence[_StackEntry]
    ) -> List[MeasurementResult]:
        """One stacked in-loop/bypassed pair for same-topology requests.

        The first request's circuits carry every other request's TSV
        subnet values as per-corner overrides.  The run is strict: a
        Newton failure anywhere (which in a serial run would trigger
        batch-global gmin stepping or step bisection) abandons the
        stack and re-solves each request alone through :meth:`measure`,
        so results always equal serial measurement.
        """
        if len(entries) == 1:
            return [self.measure(entries[0].request)]
        first = entries[0]
        engine = self._rebound(first.request)
        params = BatchParameters(
            num_corners=len(entries),
            resistor_values={
                name: np.array([e.resistors[name] for e in entries])
                for name in first.resistors
            },
            capacitor_values={
                name: np.array([e.capacitors[name] for e in entries])
                for name in first.capacitors
            },
        )
        tele = get_telemetry()
        tele.incr("stagedelay.stacked_groups")
        per_corner = engine._strict_delta(first.request.tsv, params)
        if per_corner is None:
            return [self.measure(e.request) for e in entries]
        results: List[MeasurementResult] = []
        for entry, delta in zip(entries, per_corner.tolist()):
            request = entry.request
            # delta_t() sums its m identical nominal segments one by one.
            total = 0.0
            for _ in range(request.m):
                total += delta
            tele.incr(f"measure.{self.engine_name}")
            results.append(MeasurementResult(
                delta_t=total,
                engine=self.engine_name,
                vdd=engine.config.vdd,
                m=request.m,
                seed=request.seed,
                tags=dict(request.tags),
            ))
        return results

    def _strict_delta(
        self, tsv: Tsv, params: BatchParameters
    ) -> Optional[np.ndarray]:
        """Per-corner in-loop minus bypassed delay of one strict pair.

        None, counted in ``stagedelay.stack_fallbacks``, when either run
        fails to converge; the caller then re-solves request by request.
        """
        try:
            on_r, on_f = self._batched_segment_delays(
                tsv, False, params, strict=True
            )
            off_r, off_f = self._batched_segment_delays(
                tsv, True, params, strict=True
            )
        except ConvergenceError:
            get_telemetry().incr("stagedelay.stack_fallbacks")
            return None
        return (on_r + on_f) - (off_r + off_f)

    def _mc_parts(
        self, circuit_probe: Circuit, requests: Sequence[MeasurementRequest]
    ) -> List[BatchParameters]:
        """Per-request independent mismatch draws, in request order."""
        parts = []
        for request in requests:
            assert request.num_samples is not None
            corners = request.num_samples * request.m
            parts.append(BatchParameters.monte_carlo(
                circuit_probe,
                request.variation or ProcessVariation(),
                corners,
                seed=request.seed,
            ))
        return parts

    def _slice_results(
        self,
        requests: Sequence[MeasurementRequest],
        parts: Sequence[BatchParameters],
        per_corner: np.ndarray,
    ) -> List[MeasurementResult]:
        """Split a stacked per-corner DeltaT array back into results."""
        results: List[MeasurementResult] = []
        offset = 0
        for request, part in zip(requests, parts):
            assert request.num_samples is not None
            samples = (
                per_corner[offset:offset + part.num_corners]
                .reshape(request.num_samples, request.m)
                .sum(axis=1)
            )
            offset += part.num_corners
            get_telemetry().incr(f"measure.{self.engine_name}")
            results.append(MeasurementResult(
                delta_t=float(samples[0]) if len(samples) else math.nan,
                engine=self.engine_name,
                vdd=self.config.vdd,
                m=request.m,
                seed=request.seed,
                samples=samples,
                tags=dict(request.tags),
            ))
        return results

    def _measure_exact(
        self, requests: Sequence[MeasurementRequest]
    ) -> List[MeasurementResult]:
        """One exact group: a lone request through :meth:`measure`."""
        if len(requests) == 1:
            return [self.measure(requests[0])]
        return self._measure_group(requests)

    def _measure_group(
        self, requests: Sequence[MeasurementRequest]
    ) -> List[MeasurementResult]:
        """One strict stacked solve pair for requests sharing a batch key.

        Falls back to :meth:`measure` per request when the stacked run
        fails to converge (see :meth:`_measure_stack`).
        """
        first = requests[0]
        engine = self._rebound(first)
        circuit_probe, _ = engine._segment_circuit(first.tsv, bypassed=False)
        parts = engine._mc_parts(circuit_probe, requests)
        per_corner = engine._strict_delta(
            first.tsv, BatchParameters.concat(parts)
        )
        if per_corner is None:
            return [self.measure(r) for r in requests]
        return engine._slice_results(requests, parts, per_corner)

    def _measure_family(
        self, groups: Sequence[Sequence[MeasurementRequest]]
    ) -> List[List[MeasurementResult]]:
        """One ragged pack for several exact groups sharing a family.

        Each group's on/bypassed simulation pair becomes two pack
        members; the whole family then advances through one shared time
        loop, with one bucketed LAPACK call per distinct matrix
        dimension per Newton iteration instead of one solve per group.
        The pack runs strict, so every member is bit-identical to
        running its group alone through :meth:`_measure_group`; a pack
        that fails to converge re-runs each group that way (a lone
        request through :meth:`measure`), so only the group holding the
        failing request loses its stacked solve.
        """
        engine = self._rebound(groups[0][0])
        sims: List[BatchedSimulation] = []
        all_parts: List[List[BatchParameters]] = []
        for group in groups:
            first = group[0]
            circuit_probe, _ = engine._segment_circuit(
                first.tsv, bypassed=False
            )
            parts = engine._mc_parts(circuit_probe, group)
            all_parts.append(parts)
            params = BatchParameters.concat(parts)
            sims.append(engine._segment_sim(first.tsv, False, params))
            sims.append(engine._segment_sim(first.tsv, True, params))
        try:
            results = ragged_transient(
                sims, engine.stop_time(), engine.timestep,
                record=["din", "dout"],
            )
        except ConvergenceError:
            get_telemetry().incr("stagedelay.stack_fallbacks")
            return [self._measure_exact(group) for group in groups]
        out: List[List[MeasurementResult]] = []
        for g, (group, parts) in enumerate(zip(groups, all_parts)):
            on_r, on_f = engine._delays_from_result(results[2 * g])
            off_r, off_f = engine._delays_from_result(results[2 * g + 1])
            per_corner = (on_r + on_f) - (off_r + off_f)
            out.append(engine._slice_results(group, parts, per_corner))
        return out

    def delta_t_sweep_ro(
        self,
        r_open_values: Sequence[float],
        x: float = 0.5,
        tsv: Optional[Tsv] = None,
    ) -> np.ndarray:
        """Batched DeltaT sweep over open-resistance values (Fig. 6).

        ``r_open`` of ~0 reproduces the fault-free point the paper plots
        at R_O = 0.
        """
        base = tsv or Tsv()
        probe = base.with_fault(ResistiveOpen(r_open=1.0, x=x))
        values = np.maximum(np.asarray(r_open_values, dtype=float), 1e-2)
        n = len(values)
        params = self._sweep_params(probe, n)
        on_r, on_f = self._batched_segment_delays(
            probe, False, params, sweepable=True,
            resistor_overrides={"ro": values},
        )
        params2 = self._sweep_params(probe, n)
        off_r, off_f = self._batched_segment_delays(
            probe, True, params2, sweepable=True,
            resistor_overrides={"ro": values},
        )
        return (on_r + on_f) - (off_r + off_f)

    def delta_t_sweep_rl(
        self,
        r_leak_values: Sequence[float],
        tsv: Optional[Tsv] = None,
    ) -> np.ndarray:
        """Batched DeltaT sweep over leakage resistance (Fig. 8).

        NaN entries mark leakage strong enough to stop the oscillation.
        """
        base = tsv or Tsv()
        probe = base.with_fault(Leakage(r_leak=1e6))
        values = np.asarray(r_leak_values, dtype=float)
        n = len(values)
        params = self._sweep_params(probe, n)
        on_r, on_f = self._batched_segment_delays(
            probe, False, params, sweepable=True,
            resistor_overrides={"rl": values},
        )
        params2 = self._sweep_params(probe, n)
        off_r, off_f = self._batched_segment_delays(
            probe, True, params2, sweepable=True,
            resistor_overrides={"rl": values},
        )
        return (on_r + on_f) - (off_r + off_f)

    def _sweep_params(self, probe: Tsv, n: int) -> BatchParameters:
        return BatchParameters.nominal(n)
