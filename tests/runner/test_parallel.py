"""Parallel-vs-serial equivalence and pool scheduling behaviour."""

from __future__ import annotations

import pytest

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


class TestInlineDispatch:
    """Evaluation fan-outs of at most ``INLINE_MAX_UNITS`` units skip
    the pool (its fork + IPC overhead dominates millisecond-priced
    units); larger ones honour ``options.workers``."""

    def eval_workers(self, monkeypatch, cutoff=None):
        from repro.runner import pool

        seen = []
        real = pool._map_parallel

        def spy(fn, items, workers, store_root=None,
                need_models=True, chunksize=1):
            if fn is pool._run_one:
                seen.append(workers)
            return real(fn, items, workers, store_root,
                        need_models=need_models, chunksize=chunksize)

        monkeypatch.setattr(pool, "_map_parallel", spy)
        if cutoff is not None:
            monkeypatch.setattr(pool, "INLINE_MAX_UNITS", cutoff)
        units = build_units(KERNELS, scale=0.1, aux=False)
        run_units(units, RunOptions(workers=2, use_cache=False))
        assert len(seen) == 1
        return seen[0]

    def test_small_grid_runs_inline(self, monkeypatch):
        from repro.runner.pool import INLINE_MAX_UNITS
        assert len(KERNELS) <= INLINE_MAX_UNITS
        assert self.eval_workers(monkeypatch) == 1

    def test_large_grid_honours_workers(self, monkeypatch):
        assert self.eval_workers(monkeypatch, cutoff=1) == 2


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

    def test_timer_hook_counts(self, tmp_path, serial_results):
        from repro.runner.pool import RunTimer
        units, _ = serial_results
        timer = RunTimer()
        opts = RunOptions(workers=1, cache=ResultCache(tmp_path),
                          timer=timer)
        run_units(units, opts)
        run_units(units, opts)
        assert timer.misses == len(units)
        assert timer.hits == len(units)
