"""Load generator: deterministic streams, sound reports, both loops."""

import asyncio

import pytest

from repro.service import ScreeningService
from repro.telemetry import use_telemetry
from repro.workloads import DiePopulation, LoadReport, ServiceLoadGenerator

from tests.service.test_service_overload import SleepyEngine


def generator(**kwargs):
    kwargs.setdefault("num_tsvs", 6)
    kwargs.setdefault("seed", 11)
    return ServiceLoadGenerator(**kwargs)


class TestStreams:
    def test_streams_are_deterministic(self):
        a = generator(voltages=(None, 0.9)).requests(20)
        b = generator(voltages=(None, 0.9)).requests(20)
        assert [(r.seed, r.vdd, r.tags) for r in a] == \
               [(r.seed, r.vdd, r.tags) for r in b]
        assert [r.tsv for r in a] == [r.tsv for r in b]

    def test_stream_walks_tsvs_then_voltages(self):
        stream = generator(voltages=(None, 0.9)).requests(14)
        # First pass: every TSV at the first voltage...
        assert all(r.vdd is None for r in stream[:6])
        # ...then the same TSVs again at the second voltage.
        assert all(r.vdd == 0.9 for r in stream[6:12])
        assert stream[6].tags["tsv_index"] == stream[0].tags["tsv_index"]

    def test_seeds_are_unique_per_request(self):
        stream = generator().requests(50)
        assert len({r.seed for r in stream}) == 50

    def test_different_master_seeds_differ(self):
        a = generator(seed=1).requests(10)
        b = generator(seed=2).requests(10)
        assert [r.seed for r in a] != [r.seed for r in b]

    def test_explicit_population_is_used(self):
        population = DiePopulation(num_tsvs=3, seed=5)
        stream = generator(population=population).requests(6)
        assert stream[0].tsv == population[0].tsv
        assert stream[3].tsv == population[0].tsv

    def test_empty_voltages_rejected(self):
        with pytest.raises(ValueError):
            generator(voltages=())


class TestRuns:
    def test_closed_loop_reports_all_ok(self):
        engine = SleepyEngine(delay_s=0.002)
        gen = generator()

        async def scenario():
            with use_telemetry():
                async with ScreeningService(
                    engine=engine,
                ) as service:
                    return await gen.run_closed_loop(
                        service, num_requests=12, concurrency=4
                    )

        report = asyncio.run(scenario())
        assert isinstance(report, LoadReport)
        assert report.offered == report.completed == 12
        assert report.ok == 12
        assert report.rejected == report.expired == report.failed == 0
        assert report.throughput_rps > 0
        assert report.latency_p50_s <= report.latency_p99_s
        assert report.latency_max_s >= report.latency_p99_s
        assert report.num_batches >= 1
        assert report.batch_occupancy_mean >= 1.0

    def test_open_loop_overload_sheds_into_the_report(self):
        engine = SleepyEngine(delay_s=0.05)
        gen = generator()

        async def scenario():
            with use_telemetry():
                async with ScreeningService(
                    engine=engine, admission="shed", max_queue_depth=2,
                    max_batch_size=1, num_workers=1,
                ) as service:
                    return await gen.run_open_loop(
                        service, num_requests=20, rate_hz=2000.0
                    )

        report = asyncio.run(scenario())
        assert report.completed == 20
        assert report.rejected >= 1  # overload surfaced, not hidden
        assert report.ok >= 1
        assert report.ok + report.rejected + report.expired \
            + report.failed == 20

    def test_report_round_trips_to_json(self):
        import json

        engine = SleepyEngine(delay_s=0.001)
        gen = generator()

        async def scenario():
            with use_telemetry():
                async with ScreeningService(engine=engine) as service:
                    return await gen.run_closed_loop(
                        service, num_requests=6, concurrency=3
                    )

        report = asyncio.run(scenario())
        payload = json.loads(json.dumps(report.as_json_dict()))
        assert payload["ok"] == 6
        assert all(isinstance(k, str) for k in
                   payload["occupancy_buckets"])
        assert sum(payload["occupancy_buckets"].values()) == \
            payload["num_batches"]
