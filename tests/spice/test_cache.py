"""Unit tests for the content-addressed solve cache."""

import numpy as np
import pytest

from repro.core.tsv import Tsv
from repro.spice import Circuit, DC
from repro.spice.cache import (
    SolveCache,
    cache_disabled,
    circuit_fingerprint,
    fingerprint,
    get_cache,
    memoize,
    memoize_many,
    use_cache,
)
from repro.spice.montecarlo import ProcessVariation
from repro.spice.netlist import GROUND
from repro.telemetry import use_telemetry


def rc_circuit(r=1000.0, title="rc"):
    c = Circuit(title)
    c.add_vsource("vs", "a", GROUND, DC(1.0))
    c.add_resistor("r1", "a", "b", r)
    c.add_capacitor("c1", "b", GROUND, 1e-12)
    return c


class TestFingerprint:
    def test_deterministic(self):
        parts = ("tag", 1.25, ProcessVariation(), Tsv(), [1, 2, 3])
        assert fingerprint(*parts) == fingerprint(*parts)

    def test_sensitive_to_any_part(self):
        base = fingerprint("tag", 1.25, 100)
        assert fingerprint("tag", 1.25, 101) != base
        assert fingerprint("tag", 1.26, 100) != base
        assert fingerprint("gat", 1.25, 100) != base

    def test_dataclass_field_changes_key(self):
        a = ProcessVariation()
        b = ProcessVariation(sigma_vth=a.sigma_vth * 2)
        assert fingerprint(a) != fingerprint(b)

    def test_ndarray_content_and_shape(self):
        x = np.arange(6, dtype=float)
        assert fingerprint(x) == fingerprint(x.copy())
        assert fingerprint(x) != fingerprint(x.reshape(2, 3))
        y = x.copy()
        y[3] += 1e-15
        assert fingerprint(x) != fingerprint(y)

    def test_float_precision_is_exact(self):
        assert fingerprint(0.1 + 0.2) != fingerprint(0.3)

    def test_dict_ordering_is_canonical(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_nesting_depth_guard(self):
        deep: list = []
        node = deep
        for _ in range(20):
            inner: list = []
            node.append(inner)
            node = inner
        with pytest.raises(ValueError):
            fingerprint(deep)


class TestCircuitFingerprint:
    def test_identical_builds_match(self):
        assert circuit_fingerprint(rc_circuit()) == \
            circuit_fingerprint(rc_circuit())

    def test_value_change_misses(self):
        assert circuit_fingerprint(rc_circuit(1000.0)) != \
            circuit_fingerprint(rc_circuit(1001.0))

    def test_circuit_usable_as_key_part(self):
        assert fingerprint(rc_circuit(), 1.1) == fingerprint(rc_circuit(), 1.1)
        assert fingerprint(rc_circuit(), 1.1) != fingerprint(rc_circuit(), 0.8)


class TestSolveCache:
    def test_memoize_computes_once(self):
        cache = SolveCache()
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert cache.memoize("k", compute) == 42
        assert cache.memoize("k", compute) == 42
        assert len(calls) == 1
        assert cache.hits == 1 and cache.misses == 1
        assert cache.hit_rate == pytest.approx(0.5)

    def test_eviction_is_fifo(self):
        cache = SolveCache(max_entries=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.store("c", 3)
        assert "a" not in cache
        assert "b" in cache and "c" in cache
        assert len(cache) == 2

    def test_stats_and_clear(self):
        cache = SolveCache()
        cache.memoize("k", lambda: 1)
        stats = cache.stats()
        assert stats["entries"] == 1 and stats["misses"] == 1
        cache.clear()
        assert len(cache) == 0

    def test_telemetry_accounting(self):
        cache = SolveCache()
        with use_telemetry() as tele:
            cache.memoize("k", lambda: 1)
            cache.memoize("k", lambda: 1)
        assert tele.count("cache_misses") == 1
        assert tele.count("cache_hits") == 1


class TestMemoizeMany:
    KEYS = ["a", "b", "a", "c", "b"]

    def test_computes_distinct_misses_once(self):
        cache = SolveCache()
        cache.store("c", "cached")
        calls = []

        def compute(positions):
            calls.append(list(positions))
            return [self.KEYS[i].upper() for i in positions]

        got = cache.memoize_many(self.KEYS, compute)
        assert got == ["A", "B", "A", "cached", "B"]
        assert calls == [[0, 1]]
        assert cache.memoize_many(self.KEYS, compute) == got
        assert calls == [[0, 1]]  # second batch: all hits

    def test_accounting_equals_one_memoize_per_key(self):
        batched, serial = SolveCache(), SolveCache()
        with use_telemetry() as tele_batched:
            batched.memoize_many(self.KEYS, lambda pos: [0] * len(pos))
        with use_telemetry() as tele_serial:
            for key in self.KEYS:
                serial.memoize(key, lambda: 0)
        assert (batched.hits, batched.misses) == (serial.hits, serial.misses)
        assert tele_batched.counters == tele_serial.counters

    def test_disabled_cache_computes_every_key(self):
        with cache_disabled():
            got = memoize_many(self.KEYS, lambda pos: list(pos))
        assert got == [0, 1, 2, 3, 4]


class TestScoping:
    def test_use_cache_swaps_and_restores(self):
        outer = get_cache()
        mine = SolveCache()
        with use_cache(mine):
            assert get_cache() is mine
            assert memoize("k", lambda: 7) == 7
            assert memoize("k", lambda: 8) == 7
        assert get_cache() is outer
        assert mine.hits == 1

    def test_cache_disabled_always_computes(self):
        calls = []
        with cache_disabled():
            assert get_cache() is None
            memoize("k", lambda: calls.append(1))
            memoize("k", lambda: calls.append(1))
        assert len(calls) == 2

    def test_flow_characterization_is_shared_through_cache(self):
        from repro.core.engines.registry import spec as engine_spec
        from repro.workloads.flow import ScreeningFlow

        def make():
            return ScreeningFlow(
                engine_spec("analytic"), voltages=(1.1, 0.8),
                characterization_samples=30, seed=11,
            )

        with use_cache(SolveCache()) as cache, use_telemetry() as tele:
            first = make()
            second = make()
        assert cache.hits > 0
        assert tele.count("cache_hits") == cache.hits
        for vdd in (1.1, 0.8):
            assert first.band(vdd).low == second.band(vdd).low
            assert first.band(vdd).high == second.band(vdd).high
