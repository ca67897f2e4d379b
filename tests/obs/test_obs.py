"""Registry semantics: counters, timers, spans, scoping, merging."""

from __future__ import annotations

import threading

import pytest

from repro import obs
from repro.obs import Obs, TimerStat, get_obs, scoped


class TestCounters:
    def test_accumulate(self):
        reg = Obs()
        reg.add("a.b")
        reg.add("a.b", 2)
        assert reg.counter("a.b") == 3

    def test_unwritten_counter_reads_zero(self):
        assert Obs().counter("nothing") == 0

    def test_thread_safety(self):
        """4 threads x 10k increments must not lose a single one."""
        reg = Obs()

        def hammer():
            for _ in range(10_000):
                reg.add("hits")

        threads = [threading.Thread(target=hammer) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert reg.counter("hits") == 40_000


class TestTimers:
    def test_record_and_stats(self):
        reg = Obs()
        reg.record_timer("t", 1.0)
        reg.record_timer("t", 3.0)
        stat = reg.snapshot()["timers"]["t"]
        assert stat["count"] == 2
        assert stat["total_s"] == pytest.approx(4.0)
        assert stat["max_s"] == pytest.approx(3.0)
        assert stat["mean_s"] == pytest.approx(2.0)

    def test_timer_context_manager(self):
        """A span is the one way to time a block: it lands in the
        timers of the snapshot."""
        reg = Obs()
        with reg.span("block"):
            pass
        stat = reg.snapshot()["timers"]["block"]
        assert stat["count"] == 1
        assert stat["total_s"] >= 0.0

    def test_timer_records_on_exception(self):
        reg = Obs()
        with pytest.raises(RuntimeError):
            with reg.span("boom"):
                raise RuntimeError
        assert reg.snapshot()["timers"]["boom"]["count"] == 1

    def test_mean_of_empty_timer(self):
        assert TimerStat().mean_s == 0.0


class TestSpans:
    def test_nesting_joins_paths(self):
        reg = Obs()
        with reg.span("outer"):
            with reg.span("inner"):
                pass
        timers = reg.snapshot()["timers"]
        assert set(timers) == {"outer", "outer/inner"}

    def test_span_stack_is_thread_local(self):
        """A span open on one thread never prefixes another thread's."""
        reg = Obs()

        def other():
            with reg.span("worker"):
                pass

        with reg.span("main"):
            t = threading.Thread(target=other)
            t.start()
            t.join()
        assert set(reg.snapshot()["timers"]) == {"main", "worker"}

    def test_span_pops_on_exception(self):
        reg = Obs()
        with pytest.raises(RuntimeError):
            with reg.span("bad"):
                raise RuntimeError
        with reg.span("after"):
            pass
        assert set(reg.snapshot()["timers"]) == {"bad", "after"}


class TestSnapshotMerge:
    def test_snapshot_is_json_native_and_sorted(self):
        import json
        reg = Obs()
        reg.add("z", 1)
        reg.add("a", 2)
        reg.record_timer("t", 0.5)
        snap = reg.snapshot()
        assert list(snap["counters"]) == ["a", "z"]
        json.dumps(snap)    # must not raise

    def test_merge_accumulates(self):
        a, b = Obs(), Obs()
        a.add("n", 1)
        a.record_timer("t", 1.0)
        b.add("n", 2)
        b.add("only_b", 5)
        b.record_timer("t", 3.0)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"] == {"n": 3, "only_b": 5}
        assert snap["timers"]["t"]["count"] == 2
        assert snap["timers"]["t"]["max_s"] == pytest.approx(3.0)

    def test_merge_empty_is_noop(self):
        reg = Obs()
        reg.add("n")
        reg.merge({})
        reg.merge(None)
        assert reg.counter("n") == 1

    def test_reset_and_len(self):
        reg = Obs()
        reg.add("c")
        reg.record_timer("t", 1.0)
        assert len(reg) == 2
        reg.reset()
        assert len(reg) == 0
        assert reg.snapshot() == {"counters": {}, "timers": {}}


class TestActiveRegistry:
    def test_module_helpers_hit_scoped_registry(self):
        with scoped() as reg:
            obs.add("c", 2)
            obs.record_timer("t", 1.0)
            with obs.span("s"):
                pass
            assert get_obs() is reg
        snap = reg.snapshot()
        assert snap["counters"] == {"c": 2}
        assert set(snap["timers"]) == {"t", "s"}

    def test_scopes_nest_and_restore(self):
        with scoped() as outer:
            with scoped() as inner:
                assert get_obs() is inner
                obs.add("x")
            assert get_obs() is outer
        assert inner.counter("x") == 1
        assert outer.counter("x") == 0

    def test_scoped_accepts_existing_registry(self):
        mine = Obs()
        with scoped(mine) as reg:
            assert reg is mine
            obs.add("y")
        assert mine.counter("y") == 1

    def test_scope_is_thread_local(self):
        """A scope on the main thread must not capture other threads'
        instrumentation (workers install their own scopes)."""
        hits = {}

        def worker():
            hits["registry"] = get_obs()

        with scoped() as reg:
            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert hits["registry"] is not reg

    def test_unscoped_falls_back_to_global(self):
        from repro.obs import _GLOBAL
        assert get_obs() is _GLOBAL
