"""Integration tests for the stage-delay engine (real transistor sims).

Each test costs a fraction of a second to a few seconds; they cover the
paper's orderings on the circuit-accurate engine.  Module-scoped caches
keep the total runtime modest.
"""

import math

import numpy as np
import pytest

from repro.core.engines import StageDelayEngine
from repro.core.segments import RingOscillatorConfig
from repro.core.tsv import Leakage, ResistiveOpen, Tsv
from repro.spice.montecarlo import ProcessVariation
from repro.spice.waveform import NoOscillationError


@pytest.fixture(scope="module")
def engine():
    return StageDelayEngine(config=RingOscillatorConfig(vdd=1.1),
                            timestep=2e-12)


@pytest.fixture(scope="module")
def engine_low():
    return StageDelayEngine(config=RingOscillatorConfig(vdd=0.75),
                            timestep=2e-12)


@pytest.fixture(scope="module")
def ff_delta(engine):
    return engine.delta_t(Tsv())


@pytest.fixture(scope="module")
def ff_delta_low(engine_low):
    return engine_low.delta_t(Tsv())


class TestSegmentDelays:
    def test_tsv_path_slower_than_bypass(self, engine):
        on = engine.segment_delays(Tsv(), bypassed=False)
        off = engine.segment_delays(Tsv(), bypassed=True)
        assert sum(on) > sum(off)

    def test_delays_are_positive_picoseconds(self, engine):
        rise, fall = engine.segment_delays(Tsv())
        assert 10e-12 < rise < 2e-9
        assert 10e-12 < fall < 2e-9

    def test_heavier_tsv_slower(self, engine):
        light = engine.segment_delays(Tsv())
        heavy = engine.segment_delays(
            Tsv(params=Tsv().params.scaled(1.5))
        )
        assert sum(heavy) > sum(light)


class TestResistiveOpenOrdering:
    def test_open_reduces_delta_t(self, engine, ff_delta):
        faulty = engine.delta_t(Tsv(fault=ResistiveOpen(1000.0, 0.5)))
        assert faulty < ff_delta

    def test_one_kohm_open_is_roughly_ten_percent(self, engine, ff_delta):
        """Fig. 6's headline number: ~10% DeltaT reduction at 1 kOhm."""
        faulty = engine.delta_t(Tsv(fault=ResistiveOpen(1000.0, 0.5)))
        reduction = (ff_delta - faulty) / ff_delta
        assert 0.03 < reduction < 0.2

    def test_larger_open_larger_shift(self, engine, ff_delta):
        small = engine.delta_t(Tsv(fault=ResistiveOpen(500.0, 0.5)))
        large = engine.delta_t(Tsv(fault=ResistiveOpen(3000.0, 0.5)))
        assert large < small < ff_delta


class TestLeakageOrdering:
    def test_near_threshold_leak_increases_delta_t(self, engine, ff_delta):
        """At 1.1 V the stop threshold is below 1 kOhm; a 700 Ohm leak
        sits in the sensitive window and slows the loop."""
        faulty = engine.delta_t(Tsv(fault=Leakage(700.0)))
        assert faulty > ff_delta

    def test_strong_leak_sticks(self, engine):
        with pytest.raises(NoOscillationError):
            engine.delta_t(Tsv(fault=Leakage(200.0)))

    def test_low_voltage_sensitive_to_moderate_leak(self, engine_low,
                                                    ff_delta_low):
        """Fig. 9: a 3 kOhm leak separates clearly at 0.75 V."""
        faulty = engine_low.delta_t(Tsv(fault=Leakage(3000.0)))
        assert faulty - ff_delta_low > 20e-12

    def test_moderate_leak_invisible_at_nominal_voltage(self, engine,
                                                        ff_delta):
        """Fig. 9's counterpart: at 1.1 V the 3 kOhm signature is tiny
        (and slightly negative in our circuit -- see EXPERIMENTS.md)."""
        faulty = engine.delta_t(Tsv(fault=Leakage(3000.0)))
        assert abs(faulty - ff_delta) < 0.10 * ff_delta


class TestBatchedSweeps:
    def test_ro_sweep_monotonic(self, engine):
        values = [1.0, 500.0, 1500.0, 3000.0]
        dts = engine.delta_t_sweep_ro(values, x=0.5)
        assert np.all(np.isfinite(dts))
        assert all(b < a for a, b in zip(dts, dts[1:]))

    def test_ro_sweep_matches_scalar_at_point(self, engine, ff_delta):
        dts = engine.delta_t_sweep_ro([1.0])
        assert dts[0] == pytest.approx(ff_delta, rel=0.05)

    def test_rl_sweep_shows_stuck_region(self, engine):
        dts = engine.delta_t_sweep_rl([100.0, 50000.0])
        assert math.isnan(dts[0])       # strong leak: stuck
        assert math.isfinite(dts[1])    # weak leak: oscillates


class TestBatchedMonteCarlo:
    def test_mc_spread_and_reproducibility(self, engine, variation):
        a = engine.delta_t_mc(Tsv(), variation, 6, seed=11)
        b = engine.delta_t_mc(Tsv(), variation, 6, seed=11)
        assert np.array_equal(a, b)
        assert np.std(a) > 0

    def test_mc_mean_tracks_nominal(self, engine, ff_delta, variation):
        samples = engine.delta_t_mc(Tsv(), variation, 8, seed=3)
        assert np.mean(samples) == pytest.approx(ff_delta, rel=0.15)

    def test_mc_m_greater_one_scales_mean(self, engine, variation):
        m1 = engine.delta_t_mc(Tsv(), variation, 6, m=1, seed=9)
        m2 = engine.delta_t_mc(Tsv(), variation, 6, m=2, seed=9)
        assert np.mean(m2) == pytest.approx(2 * np.mean(m1), rel=0.2)


class TestFamilyKeyPartition:
    """The family/batch key matrix: what coalesces at which tier.

    ``batch_key`` partitions by everything including circuit content;
    ``family_key`` only by engine configuration + effective supply.  The
    matrix below pins which request pairs share which key -- the
    contract the service's ``coalesce="family"`` policy relies on.
    """

    def engine(self):
        return StageDelayEngine(timestep=40e-12)

    def req(self, **kw):
        from repro.core.engines.base import MeasurementRequest

        kw.setdefault("tsv", Tsv())
        kw.setdefault("num_samples", 1)
        return MeasurementRequest(**kw)

    def test_scalar_requests_have_no_keys(self):
        engine = self.engine()
        scalar = self.req(num_samples=None)
        assert engine.batch_key(scalar) is None
        assert engine.family_key(scalar) is None

    def test_different_faults_same_family_different_exact(self):
        engine = self.engine()
        a = self.req(tsv=Tsv())
        b = self.req(tsv=Tsv(fault=Leakage(5e4)))
        c = self.req(tsv=Tsv(fault=ResistiveOpen(2e3)))
        exact = {engine.batch_key(r) for r in (a, b, c)}
        family = {engine.family_key(r) for r in (a, b, c)}
        assert len(exact) == 3
        assert len(family) == 1

    def test_supply_splits_both_keys(self):
        engine = self.engine()
        a, b = self.req(vdd=1.1), self.req(vdd=0.8)
        assert engine.batch_key(a) != engine.batch_key(b)
        assert engine.family_key(a) != engine.family_key(b)

    def test_stop_policy_splits_both_keys(self):
        from repro.core.engines.base import StopTimePolicy

        engine = self.engine()
        a = self.req()
        b = self.req(stop_policy=StopTimePolicy(settle=2.0e-9))
        assert engine.batch_key(a) != engine.batch_key(b)
        assert engine.family_key(a) != engine.family_key(b)

    def test_engine_knobs_split_both_keys(self):
        a = StageDelayEngine(timestep=40e-12)
        b = StageDelayEngine(timestep=20e-12)
        request = self.req()
        assert a.batch_key(request) != b.batch_key(request)
        assert a.family_key(request) != b.family_key(request)

    def test_identical_requests_share_exact_key(self):
        engine = self.engine()
        assert engine.batch_key(self.req(seed=1)) == \
            engine.batch_key(self.req(seed=2))

    def test_base_class_family_degenerates_to_batch_key(self):
        from repro.core.engines import AnalyticEngine

        engine = AnalyticEngine()
        request = self.req()
        assert engine.family_key(request) == engine.batch_key(request)


class TestFamilyPackedMeasureBatch:
    """Cross-topology family packing == serial measurement, bit for bit."""

    def test_mixed_faults_pack_and_match_serial(self):
        from repro.core.engines.base import MeasurementRequest
        from repro.spice.cache import cache_disabled
        from repro.telemetry import use_telemetry

        engine = StageDelayEngine(timestep=40e-12)
        variation = ProcessVariation()
        requests = [
            MeasurementRequest(
                tsv=tsv, seed=seed, variation=variation, num_samples=1
            )
            for tsv in (
                Tsv(),
                Tsv(fault=Leakage(5e4)),
                Tsv(fault=ResistiveOpen(2e3)),
            )
            for seed in (1, 2)
        ]
        with cache_disabled():
            serial = [engine.measure(r) for r in requests]
            with use_telemetry() as tele:
                batched = engine.measure_batch(requests)
        assert len(batched) == len(serial)
        for got, want in zip(batched, serial):
            assert got.delta_t == want.delta_t
            assert got.vdd == want.vdd
            np.testing.assert_array_equal(got.samples, want.samples)
        # The equality must have been earned through one ragged pack
        # spanning all three exact groups (2 sims per group: on/bypassed).
        assert tele.count("ragged.packs") == 1
        assert tele.histogram("ragged.pack_members").max == 6
        assert tele.histogram("stagedelay.family_span").max == 3

    def test_single_group_families_keep_the_concat_path(self):
        from repro.core.engines.base import MeasurementRequest
        from repro.spice.cache import cache_disabled
        from repro.telemetry import use_telemetry

        engine = StageDelayEngine(timestep=40e-12)
        requests = [
            MeasurementRequest(
                tsv=Tsv(), seed=seed, variation=ProcessVariation(),
                num_samples=1,
            )
            for seed in (1, 2)
        ]
        with cache_disabled(), use_telemetry() as tele:
            engine.measure_batch(requests)
        assert tele.count("ragged.packs") == 0
        assert tele.histogram("stagedelay.family_span").max == 1


class TestStrictMonteCarloCoalescing:
    """A Newton failure in a shared MC run never moves a batch-mate.

    A low iteration budget at a 100 ps step makes some corners need step
    bisection.  Batch-global bisection would move every member of the
    shared run; the strict run instead falls back to serial ``measure``.
    """

    @pytest.fixture
    def limited(self, monkeypatch, request):
        import functools

        import repro.spice.batch
        import repro.spice.mna
        from repro.spice.mna import NewtonOptions

        options = functools.partial(
            NewtonOptions, max_iterations=request.param
        )
        monkeypatch.setattr(repro.spice.batch, "NewtonOptions", options)
        monkeypatch.setattr(repro.spice.mna, "NewtonOptions", options)

    @staticmethod
    def _check(tsvs):
        from repro.core.engines.base import MeasurementRequest
        from repro.spice.cache import cache_disabled
        from repro.telemetry import use_telemetry

        engine = StageDelayEngine(timestep=100e-12)
        requests = [
            MeasurementRequest(
                tsv=tsv, seed=i + 1, variation=ProcessVariation(),
                num_samples=4,
            )
            for i, tsv in enumerate(tsvs)
        ]
        with cache_disabled():
            serial = [engine.measure(r) for r in requests]
            with use_telemetry() as tele:
                batched = engine.measure_batch(requests)
        for got, want in zip(batched, serial):
            np.testing.assert_array_equal(got.samples, want.samples)
            assert got.delta_t == want.delta_t or (
                math.isnan(got.delta_t) and math.isnan(want.delta_t)
            )
        assert tele.count("stagedelay.stack_fallbacks") == 1
        return tele

    @pytest.mark.parametrize("limited", [8, 12], indirect=True)
    def test_family_pack_matches_serial(self, limited):
        nominal = Tsv().params
        tsvs = [Tsv(params=nominal.scaled(k)) for k in (0.9, 1.0, 1.1)]
        tsvs += [Tsv(fault=ResistiveOpen(3e3)), Tsv(fault=Leakage(3e4))]
        tele = self._check(tsvs)
        assert tele.count("ragged.packs") == 1

    @pytest.mark.parametrize("limited", [8], indirect=True)
    def test_exact_group_matches_serial(self, limited):
        tele = self._check([Tsv()] * 3)
        assert tele.count("ragged.packs") == 0

    def test_failed_pack_reruns_only_the_failing_group_serially(
        self, monkeypatch
    ):
        """A failed pack re-runs each exact group as its own stack.

        The pack and the strict run of the group holding the hard TSV
        are made to fail; only that group's requests are re-solved one
        by one through ``measure``.
        """
        import repro.core.engines.stagedelay as stagedelay
        from repro.core.engines.base import MeasurementRequest
        from repro.spice.cache import cache_disabled
        from repro.spice.mna import ConvergenceError
        from repro.telemetry import use_telemetry

        hard = Tsv(fault=Leakage(3e4))
        nominal = Tsv().params
        tsvs = [Tsv(), Tsv(params=nominal.scaled(1.1)), hard]
        requests = [
            MeasurementRequest(
                tsv=tsv, seed=seed, variation=ProcessVariation(),
                num_samples=4,
            )
            for tsv in tsvs for seed in (1, 2)
        ]
        engine = StageDelayEngine(timestep=100e-12)
        with cache_disabled():
            serial = [engine.measure(r) for r in requests]

        def failing_pack(*args, **kwargs):
            raise ConvergenceError("pack failure")

        real_delays = StageDelayEngine._batched_segment_delays

        def delays(self, tsv, bypassed, params, *args, strict=False, **kw):
            if strict and tsv == hard:
                raise ConvergenceError("group failure")
            return real_delays(
                self, tsv, bypassed, params, *args, strict=strict, **kw
            )

        real_measure = StageDelayEngine.measure
        measured = []

        def measure(self, request):
            measured.append(request)
            return real_measure(self, request)

        monkeypatch.setattr(stagedelay, "ragged_transient", failing_pack)
        monkeypatch.setattr(
            StageDelayEngine, "_batched_segment_delays", delays
        )
        monkeypatch.setattr(StageDelayEngine, "measure", measure)
        with cache_disabled(), use_telemetry() as tele:
            batched = engine.measure_batch(requests)
        for got, want in zip(batched, serial):
            np.testing.assert_array_equal(got.samples, want.samples)
        assert measured == requests[4:]
        assert tele.count("stagedelay.stack_fallbacks") == 2


class TestStackedDeterministicMeasureBatch:
    """Deterministic requests stack per topology == serial ``measure``."""

    TIMESTEP = 40e-12

    @staticmethod
    def _same(got, want):
        """Bit-equal DeltaT, with NaN (stuck) equal to NaN."""
        return got == want or (math.isnan(got) and math.isnan(want))

    def _check(self, requests, engine=None):
        """Serial vs batched results (equal); returns the batch telemetry."""
        from repro.spice.cache import cache_disabled
        from repro.telemetry import use_telemetry

        engine = engine or StageDelayEngine(timestep=self.TIMESTEP)
        with cache_disabled():
            serial = [engine.measure(r) for r in requests]
            with use_telemetry() as tele:
                batched = engine.measure_batch(requests)
        assert len(batched) == len(serial)
        for got, want in zip(batched, serial):
            assert self._same(got.delta_t, want.delta_t), (got, want)
            assert (got.vdd, got.m, got.seed, got.engine, got.tags) == (
                want.vdd, want.m, want.seed, want.engine, want.tags
            )
            assert got.samples is None and want.samples is None
        assert tele.count("measure.stagedelay") == len(requests)
        return serial, tele

    @staticmethod
    def _requests(tsvs, **kwargs):
        from repro.core.engines.base import MeasurementRequest

        return [MeasurementRequest(tsv=tsv, **kwargs) for tsv in tsvs]

    def test_fault_free_capacitance_spread(self):
        nominal = Tsv().params
        tsvs = [Tsv(params=nominal.scaled(k)) for k in (0.85, 1.0, 1.2)]
        from repro.telemetry import use_telemetry

        requests = self._requests(tsvs, tags={"k": "v"})
        serial, tele = self._check(requests)
        assert len({r.delta_t for r in serial}) == 3
        assert tele.count("stagedelay.stacked_groups") == 1
        assert tele.count("stagedelay.stack_fallbacks") == 0
        # Three requests cost the Newton solves of one serial request.
        with use_telemetry() as one:
            StageDelayEngine(timestep=self.TIMESTEP).measure(requests[0])
        assert tele.count("newton_solves") == one.count("newton_solves")

    def test_resistive_opens_vary_r_and_x(self):
        tsvs = [
            Tsv(fault=ResistiveOpen(r_open=r, x=x))
            for r, x in ((300.0, 0.5), (3e3, 0.2), (1e5, 0.8),
                         (float("inf"), 0.5))
        ]
        _, tele = self._check(self._requests(tsvs))
        assert tele.count("stagedelay.stacked_groups") == 1

    def test_leakage_including_stuck(self):
        tsvs = [Tsv(fault=Leakage(r)) for r in (1e6, 5e3, 100.0)]
        serial, tele = self._check(self._requests(tsvs))
        assert math.isnan(serial[-1].delta_t)  # the ring never switches
        assert all(math.isfinite(r.delta_t) for r in serial[:-1])
        assert tele.count("stagedelay.stacked_groups") == 1

    def test_mixed_kinds_supplies_and_m(self):
        from repro.core.engines.base import MeasurementRequest

        kinds = [
            Tsv(params=Tsv().params.scaled(0.9)),
            Tsv(fault=ResistiveOpen(r_open=2e3, x=0.5)),
            Tsv(fault=Leakage(2e4)),
            Tsv(),
            Tsv(fault=ResistiveOpen(r_open=500.0, x=0.3)),
            Tsv(fault=Leakage(3e3)),
        ]
        requests = [
            MeasurementRequest(tsv=tsv, vdd=vdd, m=m)
            for vdd, m in ((None, 1), (0.8, 2))
            for tsv in kinds
        ]
        # Not stackable: a scalar request with process variation.
        requests.append(MeasurementRequest(
            tsv=Tsv(), seed=3, variation=ProcessVariation()
        ))
        _, tele = self._check(requests)
        # Three fault topologies x two supplies.
        assert tele.count("stagedelay.stacked_groups") == 6

    @pytest.mark.parametrize("timestep,iterations,serial_bisects", [
        (40e-12, 6, False),   # only the stacked run fails to converge
        (100e-12, 12, True),  # serial runs need step bisection too
    ])
    def test_convergence_failure_falls_back_per_request(
        self, monkeypatch, timestep, iterations, serial_bisects
    ):
        import functools

        import repro.spice.batch
        import repro.spice.mna
        from repro.spice.mna import NewtonOptions
        from repro.telemetry import use_telemetry

        limited = functools.partial(NewtonOptions, max_iterations=iterations)
        monkeypatch.setattr(repro.spice.batch, "NewtonOptions", limited)
        if serial_bisects:
            monkeypatch.setattr(repro.spice.mna, "NewtonOptions", limited)
        tsvs = [Tsv(params=Tsv().params.scaled(k)) for k in (0.9, 1.1)]
        engine = StageDelayEngine(timestep=timestep)
        with use_telemetry() as serial_tele:
            engine.measure(self._requests(tsvs[:1])[0])
        assert (serial_tele.count("step_halvings") > 0) == serial_bisects
        _, tele = self._check(self._requests(tsvs), engine)
        assert tele.count("stagedelay.stacked_groups") == 1
        assert tele.count("stagedelay.stack_fallbacks") == 1
