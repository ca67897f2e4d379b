"""Trace-key routing (which worker — which *shard* — a key lands on)
and the serve-mode round trip of the worker pool behind ``st2-serve``."""

from __future__ import annotations

import hashlib
import os
import queue
import sys
import threading

import pytest

from repro.runner.pool import WorkerPool, _fan_out, run_unit, task_value
from repro.runner.units import build_units, resolve_configs, \
    unit_trace_key
from repro.sim.trace_store import TraceStore


def worker_pid(_arg) -> int:
    return os.getpid()


def shards_of(pool, keys) -> dict:
    """``{key: pid of the worker that ran it}`` for one task per key."""
    for i, key in enumerate(keys):
        pool.submit(i, worker_pid, None, key=key, label=key)
    pids = {}
    while len(pids) < len(keys):
        for i, ok, value in pool.collect():
            pids[keys[i]] = task_value(ok, value)
    return pids


def hex_keys(n: int) -> list:
    return [hashlib.sha256(str(i).encode()).hexdigest() for i in range(n)]


class TestShardOf:
    def test_deterministic_and_in_range(self):
        """Each key is pinned to the worker that first ran it: every
        later task of the key lands on that worker, and no more
        workers than the pool's size ever run."""
        keys = hex_keys(8)
        with WorkerPool(3) as pool:
            first = {}
            for key in keys:            # one at a time: all pin to one
                first.update(shards_of(pool, [key]))
            again = shards_of(pool, keys)
            mixed = shards_of(pool, keys[::-1])
        assert again == first == mixed
        assert 1 <= len(set(first.values())) <= 3

    def test_single_shard_takes_everything(self):
        with WorkerPool(1) as pool:
            assert len(set(shards_of(pool, hex_keys(6)).values())) == 1

    def test_spreads_across_shards(self):
        """Tasks of unpinned keys go to idle workers, so a batch of
        distinct keys occupies every worker."""
        with WorkerPool(4) as pool:
            assert len(set(shards_of(pool, hex_keys(8)).values())) == 4

    def test_same_trace_same_shard(self):
        """Units of one functional execution (same kernel/scale/seed,
        different config) share a trace key, hence a worker — the
        capture-exactly-once invariant."""
        units = build_units(["qrng_K2"],
                            configs=resolve_configs(["ladder"]),
                            scale=0.25, aux=False)
        assert len(units) > 1
        tasks = [(unit_trace_key(u, "v0"), u.label, None) for u in units]
        with WorkerPool(4) as pool:
            assert len({pid for _, pid in _fan_out(pool, worker_pid,
                                                   tasks)}) == 1

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            WorkerPool(0)


class TestPoolRoundTrip:
    def test_submit_executes_and_reports(self, tmp_path):
        """One real worker in serve mode: submit two units of the same
        trace, results come back on the drain callback with the obs
        snapshot attached, and the trace lands in the store."""
        results = queue.Queue()
        pool = WorkerPool(1)
        pool.serve(lambda tid, ok, payload:
                   results.put((tid, ok, payload)))
        try:
            units = build_units(["qrng_K2"],
                                configs=resolve_configs(["st2"]),
                                scale=0.25, aux=False)
            for i, unit in enumerate(units):
                pool.submit(f"task-{i}", run_unit,
                            (str(tmp_path), unit),
                            key=unit_trace_key(unit, "v0"),
                            label=unit.label)
            seen = {}
            for _ in units:
                tid, ok, payload = results.get(timeout=120)
                assert ok, payload
                seen[tid] = payload.to_dict()
        finally:
            pool.close()
        assert set(seen) == {f"task-{i}" for i in range(len(units))}
        payload = seen["task-0"]
        assert payload["kernel"] == "qrng_K2"
        assert "metrics" in payload
        assert "obs" in payload     # transient snapshot for the parent
        assert payload["obs"]["counters"]
        assert TraceStore(tmp_path).has(unit_trace_key(units[0]))

    def test_close_joins_every_worker(self):
        with WorkerPool(2) as pool:
            shards_of(pool, hex_keys(2))
            procs = [slot.proc for slot in pool._slots]
        assert all(p is not None and p.exitcode == 0 for p in procs)
        with pytest.raises(RuntimeError):
            pool.submit(0, worker_pid, None)


class TestConcurrentSubmits:
    def test_every_task_answered_once_on_its_pinned_worker(self):
        """Four threads submit while the drain thread answers, with
        more workers than cores and a tiny switch interval: no task
        is lost or answered twice, and each key stays on one worker."""
        keys = hex_keys(16)
        results = queue.Queue()
        pool = WorkerPool(4)
        pool.serve(lambda tid, ok, payload:
                   results.put((tid, ok, payload)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            def client(c):
                for i in range(50):
                    pool.submit((c, i), worker_pid, None,
                                key=keys[(7 * c + i) % 16])

            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            seen = {}
            for _ in range(200):
                tid, ok, pid = results.get(timeout=60)
                assert ok and tid not in seen
                seen[tid] = pid
        finally:
            sys.setswitchinterval(interval)
            pool.close()
        assert results.empty()
        workers = {}
        for (c, i), pid in seen.items():
            workers.setdefault(keys[(7 * c + i) % 16], set()).add(pid)
        assert all(len(pids) == 1 for pids in workers.values())
