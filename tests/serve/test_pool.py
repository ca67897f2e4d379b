"""Shard routing and the worker-pool round trip."""

from __future__ import annotations

import queue

import pytest

from repro.runner.units import build_units, resolve_configs, \
    unit_trace_key
from repro.serve.pool import ShardedPool, shard_of
from repro.sim.trace_store import TraceStore


class TestShardOf:
    def test_deterministic_and_in_range(self):
        keys = [f"{i:040x}" for i in range(64)]
        for shards in (1, 2, 3, 8):
            for key in keys:
                shard = shard_of(key, shards)
                assert 0 <= shard < shards
                assert shard == shard_of(key, shards)

    def test_single_shard_takes_everything(self):
        assert shard_of("ffffffffffff", 1) == 0

    def test_spreads_across_shards(self):
        import hashlib
        keys = [hashlib.sha256(str(i).encode()).hexdigest()
                for i in range(64)]
        hit = {shard_of(k, 4) for k in keys}
        assert hit == {0, 1, 2, 3}

    def test_same_trace_same_shard(self):
        """Units of one functional execution (same kernel/scale/seed,
        different config) share a trace key, hence a shard — the
        capture-exactly-once invariant."""
        units = build_units(["qrng_K2"],
                            configs=resolve_configs(["ladder"]),
                            scale=0.25, aux=False)
        assert len(units) > 1
        shards = {shard_of(unit_trace_key(u, "v0"), 4) for u in units}
        assert len(shards) == 1

    def test_rejects_zero_shards(self, tmp_path):
        with pytest.raises(ValueError):
            ShardedPool(0, str(tmp_path))


class TestPoolRoundTrip:
    def test_submit_executes_and_reports(self, tmp_path):
        """One real worker: submit two units of the same trace,
        results come back on the drainer callback with the obs
        snapshot attached, and the trace lands in the pool's store."""
        results = queue.Queue()
        pool = ShardedPool(
            1, str(tmp_path), on_result=lambda tid, ok, payload:
            results.put((tid, ok, payload)))
        pool.start()
        try:
            units = build_units(["qrng_K2"],
                                configs=resolve_configs(["st2"]),
                                scale=0.25, aux=False)
            for i, unit in enumerate(units):
                pool.submit(f"task-{i}", unit,
                            unit_trace_key(unit, "v0"))
            seen = {}
            for _ in units:
                tid, ok, payload = results.get(timeout=120)
                assert ok, payload
                seen[tid] = payload
        finally:
            pool.close()
        assert set(seen) == {f"task-{i}" for i in range(len(units))}
        payload = seen["task-0"]
        assert payload["kernel"] == "qrng_K2"
        assert "metrics" in payload
        assert "obs" in payload     # transient snapshot for the parent
        assert payload["obs"]["counters"]
        assert TraceStore(tmp_path).has(unit_trace_key(units[0]))
