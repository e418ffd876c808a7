"""The multi-fidelity screening cascade router.

Every TSV is screened at stage 0 (the flow's own engine, normally
``analytic``); only *ambiguous* TSVs pay for higher fidelities.  The
verdict that matters is the **top stage's** -- the escape budget
``epsilon`` is defined against a full run of the ladder's most faithful
engine -- so each cheap stage decides by *prediction*: the measured
multi-voltage DeltaT vector is matched against the calibrated
per-fault-signature response curves
(:class:`~repro.cascade.predictor.CalibrationTable`), and every
consistent hypothesis contributes the envelope of top-stage band
positions it implies.  All hypotheses confidently inside the top band
is a pass; all confidently outside (or a stuck oscillator) is a flag;
hypotheses near an edge escalate as ``near_band``; hypotheses
disagreeing escalate as ``low_agreement``; a vector no calibrated
signature explains escalates as ``novel``; dies with warning-severity
preflight diagnostics start at stage 1 (``preflight``).  The top stage
itself decides by plain band membership, bit-identical to a
full-fidelity flow run with that engine.

``epsilon`` enters through the confident-verdict margin: the budget is
split across the plan's voltages (Bonferroni) and the margin is
``z_{1-eps'} * margin_scale * sigma_pred`` in band-sigma units, where
``sigma_pred`` combines the calibration residual with the measurement
noise term (dropped for deterministic measurements).

Stage bands and the calibration table are built lazily, memoized
through the content-addressed solve cache (a
:class:`PersistentSolveCache` makes them fleet-wide), and exportable as
picklable :class:`CascadeState` for wafer worker processes.  Escalated
scalar measurements are memoized too -- the cascade-vs-oracle test
harness and warm wafer reruns hit instead of re-solving.

A die is routed stage-synchronously: stage 0 decides every TSV first,
then each escalation stage measures all of the die's TSVs still
undecided there with one ``measure_batch`` call per supply, which lets
the engine stack them into one corner-batched solve.  Per TSV the
measurements, counters and decisions are those of routing it alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.engines.base import MeasurementRequest, is_engine, supports
from repro.core.engines.registry import as_engine_factory
from repro.core.tsv import Tsv
from repro.spice import cache as solve_cache
from repro.spice.montecarlo import ProcessVariation
from repro.telemetry import get_telemetry

from repro.cascade.characterize import (
    StageBand,
    characterization_cap_factors,
    characterize_stage,
    default_calibration_signatures,
    nominal_delta_t,
    transfer_stage,
)
from repro.cascade.policy import (
    CascadeConfig,
    DieDecision,
    EscalationReason,
    TsvDecision,
)
from repro.cascade.predictor import (
    CalibrationTable,
    PredictedVerdict,
    SignatureCurve,
    normal_quantile,
)

__all__ = ["CascadeScreen", "CascadeState"]


@dataclass
class _Route:
    """One TSV's progress through :meth:`CascadeScreen._route`.

    ``measured`` holds the (vdd, DeltaT) pairs taken at the current
    ``stage``; ``decision`` is set once the TSV is decided.
    """

    index: int
    tsv: Any
    seed: int
    stage: int
    reasons: List[str]
    measurements: int = 0
    stage_measurements: Dict[str, int] = field(default_factory=dict)
    measured: List[Tuple[float, float]] = field(default_factory=list)
    stuck: bool = False
    decision: Optional[TsvDecision] = None


@dataclass
class CascadeState:
    """Picklable cascade characterization shipped to wafer workers.

    ``bands`` maps (stage, vdd) to the stage's acceptance band and
    predictive fit; ``calibration`` is the signature-curve table;
    ``stage_names`` names the ladder.  The wafer parent builds all three
    once (:meth:`CascadeScreen.prepare`) and every worker inherits them
    instead of re-solving -- and instead of re-deriving stage names from
    its rebound engine factories, which would count stage 0 under the
    wrapper's name.
    """

    bands: Dict[Tuple[int, float], StageBand] = field(default_factory=dict)
    calibration: Optional[CalibrationTable] = None
    stage_names: Tuple[str, ...] = ()


class CascadeScreen:
    """Routes TSVs through the fidelity ladder; one instance per flow.

    Args:
        stage0: The flow's engine (anything
            :func:`~repro.core.engines.registry.as_engine_factory`
            accepts); becomes stage 0 of the ladder.
        config: The cascade policy knobs.
        voltages: Supply voltages of the screening plan.
        variation: Process-variation model shared by characterization
            and measurements.
        group_size: N, TSVs per ring oscillator (guard-band input).
        window: Counter measurement window (seconds) for the
            quantization guard.
        characterization_samples: Stage-0 MC population per voltage
            (escalation stages use the config's smaller population).
        tsv_cap_variation_rel: Healthy TSV capacitance spread.
        seed: Characterization seed (the flow's).
        state: Precomputed :class:`CascadeState` (stage bands plus the
            calibration table) -- how wafer workers inherit the
            parent's characterization.
        signatures: Fault-signature probe grids for calibration,
            severity-ordered per signature name (default:
            :func:`~repro.cascade.characterize.default_calibration_signatures`).
        measurement_variation: Process variation applied to simulated
            *measurements* (characterization always uses ``variation``).
            The default ``"inherit"`` reuses ``variation``; ``None``
            makes measurements deterministic (nominal solves, memoized
            under seed-free keys) -- the mode the statistical escape
            harness runs in, where the oracle's solves collapse to one
            per distinct TSV.
    """

    def __init__(
        self,
        stage0: object,
        config: CascadeConfig,
        voltages: Sequence[float],
        variation: ProcessVariation,
        group_size: int = 5,
        window: float = 1e-4,
        characterization_samples: int = 200,
        tsv_cap_variation_rel: float = 0.02,
        seed: int = 2024,
        state: Optional[CascadeState] = None,
        measurement_variation: object = "inherit",
        signatures: Optional[Mapping[str, Sequence[Tsv]]] = None,
    ):
        self.config = config
        self.voltages = [float(v) for v in voltages]
        if not self.voltages:
            raise ValueError("cascade needs at least one supply voltage")
        self.variation = variation
        self.measurement_variation: Optional[ProcessVariation] = (
            variation if isinstance(measurement_variation, str)
            and measurement_variation == "inherit"
            else measurement_variation  # type: ignore[assignment]
        )
        self.group_size = group_size
        self.window = window
        self.characterization_samples = characterization_samples
        self.tsv_cap_variation_rel = tsv_cap_variation_rel
        self.seed = seed
        ladder: List[object] = [stage0, *config.escalation]
        self._factories: List[Callable[[float], Any]] = [
            as_engine_factory(entry) for entry in ladder
        ]
        self.stage_names = (
            list(state.stage_names) if state and state.stage_names
            else self._name_stages(ladder)
        )
        self._engines: Dict[Tuple[int, float], Any] = {}
        self._bands: Dict[Tuple[int, float], StageBand] = (
            dict(state.bands) if state else {}
        )
        self._table: Optional[CalibrationTable] = (
            state.calibration if state else None
        )
        self._signatures: Dict[str, List[Tsv]] = (
            {name: list(probes) for name, probes in signatures.items()}
            if signatures is not None
            else default_calibration_signatures()
        )
        # Per-measurement escape budget: Bonferroni across the plan.
        per_measurement = config.epsilon / len(self.voltages)
        self._z = normal_quantile(1.0 - per_measurement)

    # ------------------------------------------------------------------
    @staticmethod
    def _name_stages(ladder: Sequence[object]) -> List[str]:
        names: List[str] = []
        for idx, entry in enumerate(ladder):
            if isinstance(entry, str):
                base = entry
            else:
                base = getattr(entry, "name", None) or getattr(
                    entry, "engine_name", None
                ) or type(entry).__name__.lower()
            name = str(base)
            if name in names:
                name = f"{name}#{idx}"
            names.append(name)
        return names

    @property
    def num_stages(self) -> int:
        return len(self._factories)

    @property
    def top_stage(self) -> int:
        return self.num_stages - 1

    # ------------------------------------------------------------------
    def engine(self, stage: int, vdd: float) -> Any:
        key = (stage, vdd)
        if key not in self._engines:
            self._engines[key] = self._factories[stage](vdd)
        return self._engines[key]

    def stage_band(self, stage: int, vdd: float) -> StageBand:
        """The (lazily built, solve-cache-memoized) band for one stage."""
        key = (stage, vdd)
        if key in self._bands:
            return self._bands[key]
        engine = self.engine(stage, vdd)
        samples = (
            self.characterization_samples if stage == 0
            else self.config.stage_characterization_samples
        )
        if supports(engine, "batched_mc"):
            cap_factors = characterization_cap_factors(
                self.seed, self.tsv_cap_variation_rel, samples
            )
            band = characterize_stage(
                engine, self.variation, samples, self.seed,
                cap_factors, self.group_size, self.window,
            )
        else:
            if stage == 0:
                raise ValueError(
                    "stage 0 of a cascade must support batched Monte Carlo"
                    " characterization; put slow engines in the escalation"
                    " ladder instead"
                )
            reference = self.stage_band(stage - 1, vdd)
            band = transfer_stage(
                engine, reference, self.engine(stage - 1, vdd),
                self.seed, self.group_size, self.window,
            )
        self._bands[key] = band
        return band

    def calibration(self) -> CalibrationTable:
        """The signature-curve table, built (and cached) on first use.

        Every probe is one memoized nominal solve per (stage, voltage)
        under the shared ``measure.deterministic`` keys; with a
        persistent solve cache, recalibration across runs is free.
        """
        if self._table is not None:
            return self._table
        curves: List[SignatureCurve] = []
        for name, probes in self._signatures.items():
            points: List[Tuple[Tuple[float, ...], ...]] = []
            for tsv in probes:
                stages_u: List[Tuple[float, ...]] = []
                for stage in range(self.num_stages):
                    row: List[float] = []
                    for vdd in self.voltages:
                        fit = self.stage_band(stage, vdd).fit
                        dt = nominal_delta_t(self.engine(stage, vdd), tsv)
                        sigma = fit.sigma if fit.sigma > 0.0 else 1.0
                        row.append(
                            (dt - fit.center) / sigma
                            if math.isfinite(dt) else math.nan
                        )
                    stages_u.append(tuple(row))
                points.append(tuple(stages_u))
            curves.append(SignatureCurve(name=name, points=tuple(points)))
        self._table = CalibrationTable(
            voltages=tuple(self.voltages),
            num_stages=self.num_stages,
            curves=tuple(curves),
        )
        return self._table

    def prepare(self) -> CascadeState:
        """Eagerly build every band plus the calibration table.

        The wafer engine calls this in the parent so worker processes
        inherit one characterization instead of each racing to build
        their own.
        """
        for stage in range(self.num_stages):
            for vdd in self.voltages:
                self.stage_band(stage, vdd)
        self.calibration()
        return self.export_state()

    def export_state(self) -> CascadeState:
        """Picklable snapshot of the characterization built so far."""
        return CascadeState(
            bands=dict(self._bands), calibration=self._table,
            stage_names=tuple(self.stage_names),
        )

    def stage0_bands(self) -> Dict[float, Any]:
        """Stage-0 acceptance bands keyed by voltage (the flow's bands)."""
        return {
            vdd: self.stage_band(0, vdd).band for vdd in self.voltages
        }

    # ------------------------------------------------------------------
    def _measure_stage(
        self, stage: int, vdd: float, routes: Sequence["_Route"]
    ) -> List[float]:
        """One DeltaT per TSV at a stage; one ``measure_batch`` call.

        Deterministic measurements (``measurement_variation=None``) are
        memoized under seed-free keys shared with
        :meth:`ScreeningFlow._measure`, so a full-fidelity oracle run
        and the cascade's escalations pay each distinct (engine, TSV)
        solve exactly once.  Noisy escalated measurements are memoized
        under seeded keys.  Only the cache misses reach the engine, as
        one :meth:`~repro.core.engines.base.Engine.measure_batch` call
        (which stacks same-topology deterministic requests into one
        corner-batched transient).
        """
        engine = self.engine(stage, vdd)
        variation = self.measurement_variation

        def compute(positions: Sequence[int]) -> List[float]:
            chosen = [routes[i] for i in positions]
            if is_engine(engine):
                results = engine.measure_batch([
                    MeasurementRequest(
                        tsv=route.tsv, m=1, seed=route.seed,
                        variation=variation,
                        num_samples=1 if variation is not None else None,
                    )
                    for route in chosen
                ])
                return [float(result.delta_t) for result in results]
            return [
                float(engine.delta_t_mc(
                    route.tsv, variation, 1, m=1, seed=route.seed
                )[0])
                for route in chosen
            ]

        if variation is None:
            keys = [
                solve_cache.fingerprint(
                    "measure.deterministic", engine, route.tsv, 1
                )
                for route in routes
            ]
        elif stage == 0:
            return compute(range(len(routes)))
        else:
            keys = [
                solve_cache.fingerprint(
                    "cascade.measure", engine, route.tsv, 1, variation,
                    route.seed,
                )
                for route in routes
            ]
        return [float(v) for v in solve_cache.memoize_many(keys, compute)]

    @property
    def _noisy(self) -> bool:
        return self.measurement_variation is not None

    def _tolerance(self) -> float:
        """Curve-matching tolerance in band-sigma units."""
        extra = (
            0.5 * self._z * self.config.noise_sigma if self._noisy else 0.0
        )
        return self.config.match_tolerance + extra

    def _verdict_margin(self) -> float:
        """Confident-verdict margin (``u`` units) from the escape budget."""
        sigma_pred = (
            math.hypot(self.config.predict_sigma, self.config.noise_sigma)
            if self._noisy else self.config.predict_sigma
        )
        return self._z * self.config.margin_scale * sigma_pred

    def _top_edges(self) -> List[Tuple[float, float]]:
        """Top-stage band edges per voltage, in the top band's u units."""
        edges: List[Tuple[float, float]] = []
        for vdd in self.voltages:
            stage_band = self.stage_band(self.top_stage, vdd)
            fit = stage_band.fit
            sigma = fit.sigma if fit.sigma > 0.0 else 1.0
            edges.append((
                (stage_band.band.low - fit.center) / sigma,
                (stage_band.band.high - fit.center) / sigma,
            ))
        return edges

    def _hypothesis_status(
        self,
        hypothesis: PredictedVerdict,
        edges: Sequence[Tuple[float, float]],
        margin: float,
    ) -> str:
        """'in' / 'out' / 'near' verdict one hypothesis predicts.

        'out' when some voltage's envelope sits entirely beyond a top
        band edge by more than ``margin`` (or the ring may stick);
        'in' when every voltage's envelope sits entirely inside with
        ``margin`` to spare; 'near' otherwise.
        """
        fully_in = True
        for v, (edge_low, edge_high) in enumerate(edges):
            if hypothesis.may_stick[v]:
                return "out"
            low, high = hypothesis.low[v], hypothesis.high[v]
            if high < edge_low - margin or low > edge_high + margin:
                return "out"
            if not (low > edge_low + margin and high < edge_high - margin):
                fully_in = False
        return "in" if fully_in else "near"

    # ------------------------------------------------------------------
    def classify(
        self,
        tsv: Any,
        index: int,
        seed: int,
        min_stage: int = 0,
        preflight_warned: bool = False,
    ) -> TsvDecision:
        """Route one TSV through the ladder; returns the decision record.

        ``seed`` is the TSV's measurement seed (the flow's
        ``base_seed + 31 * index`` convention), reused at every stage so
        serial and sharded screens stay bit-identical.  This is the
        one-TSV case of :meth:`_route`.
        """
        (decision,) = self._route(
            [(index, tsv, seed)], min_stage, preflight_warned
        )
        return decision

    def _route(
        self,
        tsvs: Sequence[Tuple[int, Any, int]],
        min_stage: int = 0,
        preflight_warned: bool = False,
    ) -> List[TsvDecision]:
        """Route ``(index, tsv, seed)`` triples stage-synchronously.

        Every TSV still undecided at a stage is measured there at each
        supply in turn -- one :meth:`_measure_stage` call per supply,
        skipping TSVs already stuck at an earlier supply -- and then
        decided or escalated to the next stage.  Per TSV this measures,
        counts and decides exactly as routing it alone would.
        """
        start = min_stage
        reasons: List[str] = []
        if (
            preflight_warned
            and self.config.escalate_on_preflight
            and start == 0
            and self.num_stages > 1
        ):
            start = 1
            reasons.append(EscalationReason.PREFLIGHT.value)
        routes = [
            _Route(index, tsv, seed, start, list(reasons))
            for index, tsv, seed in tsvs
        ]
        tele = get_telemetry()
        for stage in range(start, self.num_stages):
            pending = [r for r in routes if r.decision is None]
            if not pending:
                break
            name = self.stage_names[stage]
            for route in pending:
                tele.incr(f"cascade.stage.{name}")
                route.stage = stage
                route.measured = []
            alive = pending
            for vdd in self.voltages:
                if not alive:
                    break
                values = self._measure_stage(stage, vdd, alive)
                for route, delta_t in zip(alive, values):
                    # This TSV's T1 plus the group's T2 reference.
                    route.measurements += 2
                    route.stage_measurements[name] = (
                        route.stage_measurements.get(name, 0) + 2
                    )
                    if math.isfinite(delta_t):
                        route.measured.append((vdd, delta_t))
                    else:
                        route.stuck = True
                alive = [route for route in alive if not route.stuck]
            for route in pending:
                self._judge(route)
        decisions = [r.decision for r in routes if r.decision is not None]
        assert len(decisions) == len(routes)  # the top stage decides all
        return decisions

    def _judge(self, route: "_Route") -> None:
        """Decide ``route`` from its measurements at ``route.stage``,
        or escalate it (recording the reason) to the next stage."""
        stage = route.stage
        if route.stuck:
            self._decide(route, True)
            return
        if stage == self.top_stage:
            self._decide(route, any(
                not self.stage_band(stage, vdd).band.contains(dt)
                for vdd, dt in route.measured
            ))
            return
        tele = get_telemetry()
        u_measured = []
        for vdd, delta_t in route.measured:
            fit = self.stage_band(stage, vdd).fit
            sigma = fit.sigma if fit.sigma > 0.0 else 1.0
            u_measured.append((delta_t - fit.center) / sigma)
        hypotheses = self.calibration().match(
            stage, u_measured, self._tolerance()
        )
        if not hypotheses:
            route.reasons.append(EscalationReason.NOVEL.value)
            tele.incr("cascade.escalations.novel")
            return
        margin = self._verdict_margin()
        edges = self._top_edges()
        statuses = {
            self._hypothesis_status(h, edges, margin) for h in hypotheses
        }
        if statuses == {"in"}:
            self._decide(route, False)
        elif statuses == {"out"}:
            self._decide(route, True)
        elif "near" in statuses:
            route.reasons.append(EscalationReason.NEAR_BAND.value)
            tele.incr("cascade.escalations.near_band")
        else:
            route.reasons.append(EscalationReason.LOW_AGREEMENT.value)
            tele.incr("cascade.escalations.low_agreement")

    def _decide(self, route: "_Route", flagged: bool) -> None:
        route.decision = TsvDecision(
            index=route.index,
            flagged=flagged,
            stage=route.stage,
            stage_name=self.stage_names[route.stage],
            reasons=route.reasons,
            measurements=route.measurements,
            stage_measurements=route.stage_measurements,
        )

    # ------------------------------------------------------------------
    def classify_die(
        self,
        population: Any,
        base_seed: int,
        preflight_warned: bool = False,
    ) -> DieDecision:
        """Route every TSV of a die; returns the die's decision record.

        ``population`` is anything iterable over records with ``index``
        and ``tsv`` (a :class:`~repro.workloads.generator.DiePopulation`).
        """
        records = list(population)
        fingerprint = solve_cache.fingerprint(
            "cascade.die", [(rec.index, rec.tsv) for rec in records]
        )
        preflight = preflight_warned and self.config.escalate_on_preflight
        decisions = self._route(
            [(rec.index, rec.tsv, base_seed + 31 * rec.index)
             for rec in records],
            preflight_warned=preflight_warned,
        )
        max_stage = max((d.stage for d in decisions), default=0)
        if preflight:
            get_telemetry().incr("cascade.escalations.preflight")
        return DieDecision(
            die_fingerprint=fingerprint,
            rejected=any(d.flagged for d in decisions),
            max_stage=max_stage,
            max_stage_name=self.stage_names[max_stage],
            tsv_decisions=decisions,
            preflight_escalated=preflight,
        )
