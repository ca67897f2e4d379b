"""Parallel-vs-serial equivalence and pool scheduling behaviour."""

from __future__ import annotations

import copy

import pytest

from repro.core.speculation import CASA, PREV, ST2_DESIGN, VALHALLA
from repro.runner import ResultCache, RunOptions, build_units, run_units
from repro.runner.pool import default_workers, run_suite_units
from repro.runner.units import results_equal

KERNELS = ["qrng_K2", "sortNets_K2"]       # the two fastest tracers


@pytest.fixture(scope="module")
def serial_results():
    units = build_units(KERNELS, aux=False)
    return units, run_units(units, RunOptions(workers=1,
                                              use_cache=False))


def test_parallel_equals_serial(serial_results, pools):
    units, serial = serial_results
    parallel = run_units(units, RunOptions(workers=2, use_cache=False))
    assert pools, "the evaluation fan-out never started a pool"
    assert len(parallel) == len(serial)
    for s, p in zip(serial, parallel):
        assert p.kernel == s.kernel         # order preserved
        assert results_equal(s, p), \
            f"parallel diverged from serial on {s.kernel}"


def test_parallel_cache_round_trip(tmp_path, serial_results, pools):
    units, serial = serial_results
    cache = ResultCache(tmp_path)
    cold = run_units(units, RunOptions(workers=2, cache=cache))
    assert pools
    assert [r.cached for r in cold] == [False, False]
    warm = run_units(units, RunOptions(workers=2, cache=cache))
    assert [r.cached for r in warm] == [True, True]
    for s, c, w in zip(serial, cold, warm):
        assert results_equal(s, c)
        assert results_equal(c, w)


def test_progress_sees_every_unit(tmp_path, serial_results, pools):
    units, _ = serial_results
    seen = []
    run_units(units, RunOptions(
        workers=2, cache=ResultCache(tmp_path),
        progress=lambda spec, result: seen.append(
            (spec.kernel, result.cached))))
    assert pools
    assert sorted(k for k, _ in seen) == sorted(KERNELS)
    assert all(not cached for _, cached in seen)


def test_run_suite_units_keying(tmp_path, serial_results):
    units, serial = serial_results
    keyed = run_suite_units(units, RunOptions(
        workers=1, cache=ResultCache(tmp_path)))
    for spec, expect in zip(units, serial):
        assert results_equal(keyed[(spec.kernel, spec.config.name)],
                             expect)


def test_rejects_non_unitspec():
    with pytest.raises(TypeError):
        run_units(["qrng_K2"], RunOptions(workers=1, use_cache=False))


def test_default_workers_bounded():
    assert 1 <= default_workers() <= 4


class TestOncePerTrace:
    """Config-independent work runs once per trace per run: every unit
    of a trace runs on one worker, and the aux measurements are
    memoised on the trace's plan."""

    CONFIGS = (ST2_DESIGN, VALHALLA, PREV, CASA)

    def test_aux_measured_once_per_trace(self, monkeypatch, pools):
        from repro.core import correlation
        from repro.sim.vec.plan import clear_plans

        calls = []
        real = correlation.slice_carry_correlation

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(correlation, "slice_carry_correlation",
                            counting)
        units = build_units(KERNELS, configs=self.CONFIGS, aux=True)
        clear_plans()
        serial = run_units(units, RunOptions(workers=1, use_cache=False))
        assert len(calls) == len(KERNELS)

        # every unit owns its aux dict: mutating one leaves its
        # siblings and the plan's memo untouched
        siblings = [copy.deepcopy(r.aux) for r in serial[1:]]
        serial[0].aux["correlation"].clear()
        serial[0].aux["valhalla_misprediction_rate"] = -1.0
        assert [r.aux for r in serial[1:]] == siblings
        again = run_units(units, RunOptions(workers=1, use_cache=False))
        assert len(calls) == len(KERNELS)       # served from the memo

        clear_plans()       # forked workers must not inherit the memo
        pooled = run_units(units, RunOptions(workers=2, use_cache=False))
        assert pools, "the evaluation fan-out never started a pool"
        for a, p in zip(again, pooled):
            assert a.aux and results_equal(a, p), a.label

    def test_each_trace_runs_on_one_worker(self, tmp_path, monkeypatch):
        """A config-major work list interleaves its traces and holds one
        cache hit: inline, each trace's units run back to back; on two
        workers every pending unit is sent exactly once, every unit of
        a trace to the same worker, and the results equal the inline
        run's, in work-list order."""
        from repro.runner.pool import WorkerPool, run_unit
        from repro.runner.units import unit_trace_key

        units = [u for cfg in self.CONFIGS
                 for u in build_units(KERNELS, configs=(cfg,),
                                      scale=0.1, aux=False)]
        cache = ResultCache(tmp_path)
        run_units([units[2]], RunOptions(workers=1, cache=cache))
        evaluated = []
        inline = run_units(units, RunOptions(
            workers=1, use_cache=False,
            progress=lambda spec, _: evaluated.append(spec)))
        # inline, one trace's units run back to back (the plan LRU)
        assert evaluated == sorted(units,
                                   key=lambda u: KERNELS.index(u.kernel))

        sends = []                  # (unit, worker slot)
        real = WorkerPool._send

        def spy(pool, slot, task):
            if task.fn is run_unit:
                sends.append((task.arg[1], pool._slots.index(slot)))
            return real(pool, slot, task)

        monkeypatch.setattr(WorkerPool, "_send", spy)
        results = run_units(units, RunOptions(workers=2, cache=cache))

        assert [r.cached for r in results] \
            == [i == 2 for i in range(len(units))]
        pending = [u for i, u in enumerate(units) if i != 2]
        by_trace = {}
        for unit, slot in sends:
            by_trace.setdefault(unit_trace_key(unit), []).append(
                (unit, slot))
        assert len(by_trace) == len(KERNELS)
        for key, sent in by_trace.items():
            # each pending unit once, in work-list order, on one worker
            assert [u for u, _ in sent] \
                == [u for u in pending if unit_trace_key(u) == key]
            assert len({slot for _, slot in sent}) == 1, sent
        assert len({slot for _, slot in sends}) == 2
        for a, r in zip(inline, results):
            assert results_equal(a, r), a.label


class TestRunOptionsOnly:
    """The RunOptions migration is complete: the pre-RunOptions
    keyword surface of ``run_units`` is gone, not deprecated."""

    def test_legacy_kwargs_rejected(self, serial_results):
        units, _ = serial_results
        for kwargs in ({"workers": 1}, {"use_cache": False},
                       {"cache": None}, {"progress": print},
                       {"frobnicate": True}):
            with pytest.raises(TypeError):
                run_units(units, **kwargs)

    def test_positional_options_still_work(self, serial_results):
        units, serial = serial_results
        again = run_units(units, RunOptions(workers=1,
                                            use_cache=False))
        for s, a in zip(serial, again):
            assert results_equal(s, a)

    def test_cache_counters(self, tmp_path, serial_results):
        """The invocation registry counts result-cache misses and hits
        across calls that share it."""
        units, _ = serial_results
        opts = RunOptions(workers=1, cache=ResultCache(tmp_path))
        run_units(units, opts)
        run_units(units, opts)
        assert opts.obs.counter("runner.units.executed") == len(units)
        assert opts.obs.counter("runner.units.cached") == len(units)
