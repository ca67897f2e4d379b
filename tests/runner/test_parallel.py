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


def spy_eval_fan_outs(monkeypatch) -> list:
    """Record ``(items, pool)`` of every evaluation fan-out: the
    ``[(index, spec), ...]`` of each task, and the pool it ran on
    (``None`` inline)."""
    from repro.runner import pool

    seen = []
    real = pool._fan_out

    def spy(live, fn, tasks):
        if fn is pool._run_trace:
            seen.append(([arg[1] for _, _, arg in tasks], live))
        return real(live, fn, tasks)

    monkeypatch.setattr(pool, "_fan_out", spy)
    return seen


class TestOncePerTrace:
    """Config-independent work runs once per trace per run: the
    evaluation fan-out has one item per trace, and the aux measurements
    are memoised on the trace's plan."""

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

    def test_one_fan_out_item_per_trace(self, tmp_path, monkeypatch):
        """Items hold exactly the pending units of one trace, in
        work-list order, even when the work list interleaves traces and
        some units are cache hits."""
        # config-major, so each trace's units are not adjacent
        units = [u for cfg in self.CONFIGS
                 for u in build_units(KERNELS, configs=(cfg,),
                                      scale=0.1, aux=False)]
        cache = ResultCache(tmp_path)
        run_units([units[2]], RunOptions(workers=1, cache=cache))
        seen = spy_eval_fan_outs(monkeypatch)
        results = run_units(units, RunOptions(workers=1, cache=cache))
        assert [r.cached for r in results].count(True) == 1

        ((items, _),) = seen
        pending = [i for i in range(len(units)) if i != 2]
        assert sorted(i for item in items for i, _ in item) == pending
        for item in items:
            indices = [i for i, _ in item]
            assert indices == sorted(indices)
            assert len({(s.kernel, s.scale, s.seed)
                        for _, s in item}) == 1
            assert all(units[i] == s for i, s in item)
        assert len(items) == len(KERNELS)


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
