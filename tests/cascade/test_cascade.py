"""Integration tests for the cascade router itself.

Everything here reuses the session-scoped ``cascade_flow`` ladder
(analytic stage 0, stagedelay top) so the characterization cost is paid
once for the whole test package.  Router variants that need different
policy knobs are built from the fixture cascade's exported state, which
makes them construction-cheap.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cascade import CascadeConfig, CascadeScreen, CascadeState
from repro.core.engines.registry import spec
from repro.core.tsv import Leakage, ResistiveOpen, Tsv
from repro.spice.cache import SolveCache, use_cache
from repro.spice.montecarlo import ProcessVariation
from repro.telemetry import use_telemetry
from repro.workloads.generator import DiePopulation, TsvRecord

from tests.cascade.conftest import FLOW_KWARGS, TOP_SPEC, VOLTAGES

#: A leakage severe enough that the stage-0 analytic ring does not
#: oscillate at the lower supply -- the classic stuck signature.
STUCK_LEAK = Tsv(fault=Leakage(r_leak=500.0))

#: TSVs the ladder escalates to its top stage (every one measurable).
ESCALATING = (
    Tsv(fault=ResistiveOpen(r_open=300.0, x=0.5)),    # near_band
    Tsv(params=Tsv().params.scaled(1.2)),              # novel
    Tsv(fault=Leakage(r_leak=2000.0)),                 # near_band
    Tsv(params=Tsv().params.scaled(1.3)),              # novel
    Tsv(fault=ResistiveOpen(r_open=900.0, x=0.2)),     # novel
    Tsv(params=Tsv().params.scaled(1.2)),              # novel, repeated
)

#: One die spanning every routing outcome: a stage-0 pass, a stuck
#: ring, a confident stage-0 flag, then near-band and novel escalations.
MIXED_DIE = (
    Tsv(),
    STUCK_LEAK,
    Tsv(fault=ResistiveOpen(r_open=24300.0, x=0.5)),
    *ESCALATING,
)


def _variant(cascade, **config_kwargs) -> CascadeScreen:
    """A router with different policy knobs but the fixture's bands."""
    base = dict(
        escalation=(TOP_SPEC,), stage_characterization_samples=48
    )
    base.update(config_kwargs)
    return CascadeScreen(
        stage0="analytic",
        config=CascadeConfig(**base),
        voltages=VOLTAGES,
        variation=ProcessVariation(),
        characterization_samples=FLOW_KWARGS["characterization_samples"],
        tsv_cap_variation_rel=FLOW_KWARGS["tsv_cap_variation_rel"],
        seed=FLOW_KWARGS["seed"],
        state=cascade.export_state(),
        measurement_variation=None,
    )


class TestConstruction:
    def test_stage_names_deduplicate(self):
        cascade = CascadeScreen(
            stage0="analytic",
            config=CascadeConfig(escalation=("analytic", "stagedelay")),
            voltages=(1.1,),
            variation=ProcessVariation(),
        )
        assert cascade.stage_names == ["analytic", "analytic#1",
                                       "stagedelay"]
        assert cascade.num_stages == 3
        assert cascade.top_stage == 2

    def test_engine_spec_ladder_names(self):
        cascade = CascadeScreen(
            stage0="analytic",
            config=CascadeConfig(
                escalation=(spec("stagedelay", timestep=8e-12),)
            ),
            voltages=(1.1,),
            variation=ProcessVariation(),
        )
        assert cascade.stage_names == ["analytic", "stagedelay"]

    def test_requires_a_supply_voltage(self):
        with pytest.raises(ValueError):
            CascadeScreen(
                stage0="analytic",
                config=CascadeConfig(),
                voltages=(),
                variation=ProcessVariation(),
            )

    def test_stage_zero_must_support_batched_mc(self):
        cascade = CascadeScreen(
            stage0=spec("transistor", timestep=8e-12),
            config=CascadeConfig(escalation=("analytic",)),
            voltages=(1.1,),
            variation=ProcessVariation(),
        )
        with pytest.raises(ValueError, match="batched Monte Carlo"):
            cascade.stage_band(0, 1.1)


class TestRouting:
    def test_healthy_tsv_resolves_at_stage_zero(self, cascade_flow):
        decision = cascade_flow.cascade.classify(Tsv(), index=0, seed=0)
        assert not decision.flagged
        assert decision.stage == 0
        assert decision.stage_name == "analytic"
        assert decision.reasons == []
        # T1 per supply plus the group's T2 reference.
        assert decision.measurements == 2 * len(VOLTAGES)
        assert decision.stage_measurements == {
            "analytic": 2 * len(VOLTAGES)
        }

    def test_stuck_oscillator_flags_without_escalating(self, cascade_flow):
        decision = cascade_flow.cascade.classify(STUCK_LEAK, index=0, seed=0)
        assert decision.flagged
        assert decision.stage == 0
        assert decision.reasons == []

    def test_classification_is_deterministic(self, cascade_flow):
        first = cascade_flow.cascade.classify(Tsv(), index=5, seed=160)
        again = cascade_flow.cascade.classify(Tsv(), index=5, seed=160)
        assert first == again

    def test_preflight_warning_starts_at_stage_one(self, cascade_flow):
        decision = cascade_flow.cascade.classify(
            Tsv(), index=0, seed=0, preflight_warned=True
        )
        assert decision.stage == 1
        assert decision.stage_name == "stagedelay"
        assert decision.reasons[0] == "preflight"
        assert not decision.flagged  # healthy at the top band too

    def test_preflight_escalation_can_be_disabled(self, cascade_flow):
        relaxed = _variant(
            cascade_flow.cascade, escalate_on_preflight=False
        )
        decision = relaxed.classify(
            Tsv(), index=0, seed=0, preflight_warned=True
        )
        assert decision.stage == 0
        assert decision.reasons == []


class TestClassifyDie:
    def test_die_decision_records_everything(self, cascade_flow):
        records = [
            TsvRecord(index=0, tsv=Tsv()),
            TsvRecord(index=1, tsv=STUCK_LEAK),
        ]
        decision = cascade_flow.cascade.classify_die(records, base_seed=7)
        assert decision.rejected
        assert len(decision.tsv_decisions) == 2
        assert [d.index for d in decision.tsv_decisions] == [0, 1]
        assert decision.tsv_decisions[1].flagged
        assert decision.max_stage == max(
            d.stage for d in decision.tsv_decisions
        )
        assert decision.max_stage_name in cascade_flow.cascade.stage_names
        assert len(decision.die_fingerprint) == 64  # sha-256 hex

    def test_fingerprint_tracks_population_content(self, cascade_flow):
        cascade = cascade_flow.cascade
        one = cascade.classify_die([TsvRecord(0, Tsv())], base_seed=7)
        same = cascade.classify_die([TsvRecord(0, Tsv())], base_seed=7)
        other = cascade.classify_die([TsvRecord(0, STUCK_LEAK)], base_seed=7)
        assert one.die_fingerprint == same.die_fingerprint
        assert one.die_fingerprint != other.die_fingerprint

    def test_preflight_marks_the_die_record(self, cascade_flow):
        decision = cascade_flow.cascade.classify_die(
            [TsvRecord(0, Tsv())], base_seed=7, preflight_warned=True
        )
        assert decision.preflight_escalated
        assert decision.max_stage >= 1


class TestStageSynchronousRouting:
    """``classify_die`` routes stage by stage, as the per-TSV loop would."""

    COUNTERS = ("measure.stagedelay", "cache_hits", "cache_misses")

    @classmethod
    def _counters(cls, tele):
        return {
            name: count for name, count in tele.counters.items()
            if name.startswith("cascade.") or name in cls.COUNTERS
        }

    @pytest.mark.parametrize("tsvs,preflight", [
        (MIXED_DIE, False),
        ((Tsv(), STUCK_LEAK, *ESCALATING[:2]), True),
    ])
    def test_die_routing_equals_per_tsv_loop(
        self, cascade_flow, tsvs, preflight
    ):
        cascade = cascade_flow.cascade
        records = [TsvRecord(i, tsv) for i, tsv in enumerate(tsvs)]
        with use_cache(SolveCache()), use_telemetry() as die_tele:
            die = cascade.classify_die(
                records, base_seed=7, preflight_warned=preflight
            )
        with use_cache(SolveCache()), use_telemetry() as loop_tele:
            loop = [
                cascade.classify(
                    rec.tsv, rec.index, seed=7 + 31 * rec.index,
                    preflight_warned=preflight,
                )
                for rec in records
            ]
            if preflight:  # classify_die counts the die once
                loop_tele.incr("cascade.escalations.preflight")
        assert [d.as_dict() for d in die.tsv_decisions] == [
            d.as_dict() for d in loop
        ]
        assert die.rejected == any(d.flagged for d in loop)
        assert die.max_stage == max(d.stage for d in loop)
        assert self._counters(die_tele) == self._counters(loop_tele)
        # The die exercised the whole routing surface ...
        reasons = {r for d in loop for r in d.reasons}
        if preflight:
            assert reasons == {"preflight"}
        else:
            assert {"near_band", "novel"} <= reasons
            assert {d.stage for d in loop} == {0, 1}
        # STUCK_LEAK (index 1) sticks at the first supply: no second.
        assert loop[1].flagged and loop[1].measurements == 2
        # ... and its escalations were stacked, not solved one by one.
        assert die_tele.count("stagedelay.stacked_groups") > 0
        assert die_tele.count("stagedelay.stack_fallbacks") == 0
        assert die_tele.count("newton_solves") < loop_tele.count(
            "newton_solves"
        )

    def test_oracle_after_cascade_hits_every_escalated_tsv(
        self, cascade_flow, oracle_flow
    ):
        oracle_flow.bands  # characterize outside the fresh cache
        population = DiePopulation(num_tsvs=len(ESCALATING))
        population.records = [
            TsvRecord(i, tsv) for i, tsv in enumerate(ESCALATING)
        ]
        cascade = cascade_flow.cascade
        with use_cache(SolveCache()):
            decision = cascade.classify_die(population, base_seed=7)
            assert all(
                d.stage == cascade.top_stage for d in decision.tsv_decisions
            )
            with use_telemetry() as tele:
                oracle_flow.screen_die(population)
        assert tele.count("cache_misses") == 0
        assert tele.count("cache_hits") >= len(ESCALATING)
        assert tele.count("measure.stagedelay") == 0


class TestState:
    def test_prepare_builds_all_bands_and_calibration(self, cascade_flow):
        state = cascade_flow.cascade.export_state()
        expected_keys = {
            (stage, vdd)
            for stage in range(cascade_flow.cascade.num_stages)
            for vdd in VOLTAGES
        }
        assert set(state.bands) == expected_keys
        assert state.calibration is not None
        assert state.calibration.voltages == VOLTAGES
        assert state.calibration.num_stages == 2

    def test_state_pickles(self, cascade_flow):
        state = cascade_flow.cascade.export_state()
        clone = pickle.loads(pickle.dumps(state))
        assert set(clone.bands) == set(state.bands)
        # NaN curve points (stuck severities) defeat ``==``; the repr
        # captures every field bit-for-bit including them.
        assert repr(clone.calibration) == repr(state.calibration)

    def test_worker_inherits_parent_characterization(self, cascade_flow):
        cascade = cascade_flow.cascade
        state = pickle.loads(pickle.dumps(cascade.export_state()))
        worker = CascadeScreen(
            stage0="analytic",
            config=cascade.config,
            voltages=VOLTAGES,
            variation=ProcessVariation(),
            characterization_samples=FLOW_KWARGS["characterization_samples"],
            tsv_cap_variation_rel=FLOW_KWARGS["tsv_cap_variation_rel"],
            seed=FLOW_KWARGS["seed"],
            state=state,
            measurement_variation=None,
        )
        # Bands come from the state, not a fresh characterization ...
        for key, band in state.bands.items():
            assert worker.stage_band(*key) == band
        # ... and routing is bit-identical to the parent's.
        records = [TsvRecord(0, Tsv()), TsvRecord(1, STUCK_LEAK)]
        assert (
            worker.classify_die(records, base_seed=7).as_dict()
            == cascade.classify_die(records, base_seed=7).as_dict()
        )

    def test_default_state_is_empty(self):
        state = CascadeState()
        assert state.bands == {}
        assert state.calibration is None
