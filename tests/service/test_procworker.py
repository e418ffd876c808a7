"""The process-worker fleet: one pool constructor, one task scope.

The sharded wafer engine and the service's process transport both start
their workers through :func:`repro.service.procworker.process_pool` and
run every task under :func:`repro.service.procworker.run_scoped`; these
tests pin that there is no second way in.
"""

import ast
import asyncio
import multiprocessing
from pathlib import Path

import repro
from repro.core.engines.registry import process_engine_cache
from repro.core.tsv import Tsv
from repro.service import ScreenRequest, ScreeningService, ServiceConfig
from repro.service.procworker import process_pool, run_scoped
from repro.telemetry import get_telemetry, use_telemetry

SRC = Path(repro.__file__).resolve().parent


def _double_and_count(n):
    get_telemetry().incr("dies_screened", n)
    return 2 * n


def _engine_cache_bound():
    return process_engine_cache().max_entries


def _pool_constructor_sites():
    """``ProcessPoolExecutor(...)`` call sites under ``src/repro``."""
    sites = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (
                func.attr if isinstance(func, ast.Attribute)
                else getattr(func, "id", None)
            )
            if name == "ProcessPoolExecutor":
                sites.append(path.relative_to(SRC).as_posix())
    return sites


class TestOneFleet:
    """Worker processes start in exactly one place."""

    def test_single_pool_constructor(self):
        assert _pool_constructor_sites() == ["service/procworker.py"]


class TestRunScoped:
    def test_returns_value_and_task_telemetry(self):
        with use_telemetry() as outer:
            value, snapshot = run_scoped(_double_and_count, 3)
        assert value == 6
        assert snapshot["counters"] == {"dies_screened": 3}
        # The task's counts travel in the snapshot, not the caller's
        # registry: merging is the caller's job.
        assert "dies_screened" not in outer.snapshot()["counters"]


class TestProcessPool:
    def test_prefers_fork_and_applies_engine_cache_bound(self):
        with process_pool(1, engine_cache_size=7) as pool:
            bound, snapshot = pool.submit(
                run_scoped, _engine_cache_bound
            ).result()
            if "fork" in multiprocessing.get_all_start_methods():
                assert pool._mp_context.get_start_method() == "fork"
        assert bound == 7
        assert snapshot["counters"] == {}

    def test_process_transport_counts_both_attaches(self):
        # The whole shipped solve runs under run_scoped, so the worker's
        # attach of the result segment is merged too: every segment the
        # parent creates is attached exactly once.
        async def scenario():
            async with ScreeningService(ServiceConfig(
                engine="analytic", transport="process", num_workers=1,
            )) as service:
                return await service.submit_many(
                    [ScreenRequest(tsv=Tsv(), seed=i, num_samples=4)
                     for i in range(3)]
                )

        with use_telemetry() as telemetry:
            asyncio.run(scenario())
        counters = telemetry.snapshot()["counters"]
        assert counters["arena.created"] > 0
        assert counters["arena.attached"] == counters["arena.created"]
