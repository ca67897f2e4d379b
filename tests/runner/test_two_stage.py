"""The two-stage (capture → evaluate) runner pipeline."""

from __future__ import annotations

import pytest

from repro.core.speculation import PREV, ST2_DESIGN
from repro.kernels.suite import run_kernel
from repro.lint.facts import facts_for_kernel
from repro.runner import RunOptions, build_units, run_units
from repro.runner.units import (RESULT_SCHEMA, ModelBundle,
                                evaluation_payload, execute_unit,
                                results_equal, unit_trace_key)
from repro.sim.trace_store import TraceStore

KERNELS = ["qrng_K2", "sortNets_K2"]
CONFIGS = (ST2_DESIGN, PREV)


@pytest.fixture(scope="module")
def units():
    return build_units(KERNELS, configs=CONFIGS, aux=False)


def live_run(spec):
    return run_kernel(spec.kernel, scale=spec.scale, seed=spec.seed)


@pytest.fixture(scope="module")
def live_payloads(units):
    """The reference: ``evaluation_payload`` on a live capture, with no
    trace store in between."""
    models = ModelBundle().ensure()
    runs = {spec.kernel: live_run(spec) for spec in units}
    return [evaluation_payload(runs[spec.kernel], spec.config,
                               models=models,
                               facts=facts_for_kernel(spec.kernel))
            for spec in units]


def payload_of(result) -> dict:
    data = result.to_dict()
    return {"metrics": data["metrics"],
            "energy_stacks": data["energy_stacks"]}


def two_stage_options(tmp_path, workers=1) -> RunOptions:
    return RunOptions(workers=workers, use_cache=False,
                      trace_store=TraceStore(tmp_path / "traces"))


class TestTwoStagePipeline:
    def test_one_capture_per_kernel_not_per_config(self, tmp_path,
                                                   units):
        """The whole point: a (2-kernel × 2-config) grid captures two
        traces, not four."""
        opts = two_stage_options(tmp_path)
        run_units(units, opts)
        assert opts.obs.counter("runner.traces.total") == len(KERNELS)
        assert opts.obs.counter("runner.traces.captured") == len(KERNELS)
        assert opts.obs.counter("runner.traces.warm") == 0
        assert len(opts.trace_store) == len(KERNELS)

    def test_warm_store_zero_reexecution(self, tmp_path, units, pools):
        cold_opts = two_stage_options(tmp_path)
        cold = run_units(units, cold_opts)
        warm_opts = two_stage_options(tmp_path, workers=2)
        warm = run_units(units, warm_opts)
        assert pools, "the warm evaluation never started a pool"
        assert warm_opts.obs.counter("runner.traces.captured") == 0
        assert warm_opts.obs.counter("runner.traces.warm") == len(KERNELS)
        assert all(r.trace_cache_hit for r in warm)
        assert all(not r.trace_cache_hit for r in cold)
        for c, w in zip(cold, warm):
            assert results_equal(c, w)

    def test_bit_identical_to_single_stage(self, tmp_path, units,
                                           live_payloads, pools):
        """Evaluation from the memmapped store must reproduce
        ``evaluation_payload`` on the live capture exactly, serial and
        parallel."""
        for workers in (1, 2):
            results = run_units(
                units, two_stage_options(tmp_path, workers=workers))
            for expect, r in zip(live_payloads, results):
                assert results_equal(payload_of(r), expect), \
                    (workers, r.kernel)
        assert pools, "the parallel pass never started a pool"

    def test_aux_metrics_from_store(self, tmp_path):
        """VaLHALLA + correlation aux measurements work off memmaps."""
        from repro.core.batch import build_pack
        from repro.runner.units import _aux_metrics

        (spec,) = build_units(["qrng_K2"], aux=True)
        (stored,) = run_units([spec], two_stage_options(tmp_path))
        live = live_run(spec)
        assert stored.aux is not None
        assert results_equal(stored.aux,
                             _aux_metrics(live, build_pack(live.trace)))
        assert results_equal(
            payload_of(stored),
            evaluation_payload(live, spec.config,
                               facts=facts_for_kernel(spec.kernel)))

    def test_stage_timings_recorded(self, tmp_path, units):
        opts = two_stage_options(tmp_path)
        run_units(units, opts)
        timers = opts.obs.snapshot()["timers"]
        assert timers["runner.stage.capture"]["total_s"] > 0
        assert timers["runner.stage.eval"]["total_s"] > 0

    def test_result_cache_short_circuits_stage_one(self, tmp_path,
                                                   units):
        """Units served from the result cache never touch the store."""
        from repro.runner import ResultCache
        cache = ResultCache(tmp_path / "cache")
        store = TraceStore(tmp_path / "traces")
        run_units(units, RunOptions(cache=cache, trace_store=store))
        opts = RunOptions(cache=cache, trace_store=store)
        again = run_units(units, opts)
        assert all(r.cached for r in again)
        counters = opts.obs.snapshot()["counters"]
        assert "runner.traces.total" not in counters    # stage 1 skipped


class TestExecuteUnitWithStore:
    def test_capture_on_miss_then_hit(self, tmp_path, units):
        store = TraceStore(tmp_path / "t")
        spec = units[0]
        cold = execute_unit(spec, store=store)
        assert cold.trace_cache_hit is False
        assert cold.capture_time_s > 0
        assert store.has(unit_trace_key(spec))
        warm = execute_unit(spec, store=store)
        assert warm.trace_cache_hit is True
        assert warm.capture_time_s == 0.0
        assert results_equal(cold, warm)

    def test_schema_v5_fields_present(self, units):
        result = execute_unit(units[0])
        for fieldname in ("trace_cache_hit", "capture_time_s",
                          "eval_time_s"):
            assert fieldname in result.data
        assert "engine" not in result.data
        assert result.eval_time_s > 0
        static = result.data["metrics"]["static_peek"]
        assert static["events_reduced"] >= 0
        assert static["dynamic_events_static"] \
            <= static["dynamic_events_base"]
        assert RESULT_SCHEMA == 5

    def test_pre_v2_cache_entries_invalidated(self, tmp_path, units):
        """A disk entry written by the old schema (no trace fields)
        must be recomputed, not served."""
        import json

        from repro.runner import ResultCache
        from repro.runner.cache import unit_key
        cache = ResultCache(tmp_path / "cache")
        spec = units[0]
        (cold,) = run_units([spec], RunOptions(cache=cache))
        key = unit_key(spec)
        path = cache.path(key)
        payload = json.loads(path.read_text())
        for stale in ("trace_cache_hit", "capture_time_s",
                      "eval_time_s"):
            del payload["result"][stale]
        path.write_text(json.dumps(payload))
        (again,) = run_units([spec], RunOptions(cache=cache))
        assert again.cached is False         # stale shape -> recomputed
        assert results_equal(cold, again)
