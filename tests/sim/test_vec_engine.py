"""The evaluation engine vs slow, independent references, end to end.

The engine (:mod:`repro.sim.vec`) is the only evaluation path, so its
ground truth is a deliberately slow re-assembly of the same unit from
references that share none of its batched kernels:

* predictions from :class:`~repro.core.history.ReferencePredictor` and
  the per-width / per-row formulations of
  ``tests/core/reference_speculation.py``;
* the ST2-adder outcome from one :class:`~repro.core.adder.ST2Adder`
  per adder width;
* timing from the sequential event loop of
  ``tests/sim/reference_timing.py``.

Every full-suite kernel's ``execute_unit`` payload — all metrics, the
energy stacks and the static-peek row — must equal the reference
exactly.  Plus per-PC array parity, the seeded random-draw sweep and
the obs counter semantics.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.batch import evaluate_trace_batch, predict_trace_batch
from repro.core.predictors import (MAX_PREDICTIONS, SpeculationResult,
                                   trace_n_predictions, trace_static_peek)
from repro.core.speculation import (CASA, DESIGN_LADDER, PREV,
                                    ST2_DESIGN, VALHALLA)
from repro.kernels.suite import KERNEL_NAMES, run_kernel
from repro.lint.facts import facts_for_kernel
from repro.runner import RunOptions, build_units, run_units
from repro.runner.units import (ModelBundle, UnitSpec, execute_unit,
                                results_equal)
from repro.sim.trace_store import TraceStore
from repro.sim.vec.engine import fact_bits
from repro.sim.vec.plan import clear_plans, plan_for
from tests.core import reference_speculation as ref_spec
from tests.sim.reference_timing import reference_pair

SCALE = 0.1


@pytest.fixture(scope="module")
def models():
    return ModelBundle().ensure()


@pytest.fixture(autouse=True)
def fresh_plans():
    clear_plans()
    yield
    clear_plans()


def reference_payload(run, config, models, facts) -> dict:
    """The unit's ``{"metrics", "energy_stacks"}`` from the slow
    references (energy from the same power model on their outputs)."""
    from repro.power.activity import activity_from_run
    from repro.st2.architecture import KernelEvaluation
    from repro.st2.energy import (EnergyComparison, baseline_breakdown,
                                  st2_breakdown)

    trace = run.trace
    n = len(trace)
    bits, _ = ref_spec.predict(trace, config)
    mis, rec, wrong = ref_spec.evaluate(trace, bits)
    base_t, st2_t = reference_pair(run, mis)
    speculation = SpeculationResult(config=config, n_ops=n,
                                    mispredicted=mis, recomputed=rec,
                                    wrong_bits=wrong)
    activity = activity_from_run(run, base_t, name=run.name)
    energy = EnergyComparison(
        name=run.name,
        baseline=baseline_breakdown(models.power_model, activity),
        st2=st2_breakdown(
            models.power_model, activity, speculation,
            models.adder_model,
            duration_scale=st2_t.total_cycles
            / max(base_t.total_cycles, 1)))
    ev = KernelEvaluation(name=run.name, speculation=speculation,
                          timing_baseline=base_t, timing_st2=st2_t,
                          energy=energy)

    # the static carry-fact overlay and its ablation row
    static_known, static_value = trace_static_peek(trace, facts)
    mis_s = ref_spec.evaluate(
        trace, np.where(static_known, static_value, bits))[0]
    runtime_peek = ref_spec.peek(trace)[0]
    dyn_resolved = runtime_peek if config.peek \
        else np.zeros_like(runtime_peek)
    valid = (np.arange(MAX_PREDICTIONS)[None, :]
             < trace_n_predictions(trace)[:, None])
    events_base = int((valid & ~dyn_resolved).sum())
    events_static = int((valid & ~(dyn_resolved | static_known)).sum())
    base_stack, st2_stack = energy.normalized_stacks()
    return {
        "metrics": {
            "misprediction_rate": ev.misprediction_rate,
            "recomputed_per_misprediction":
                ev.recomputed_per_misprediction,
            "slowdown": ev.slowdown,
            "baseline_cycles": base_t.total_cycles,
            "st2_cycles": st2_t.total_cycles,
            "system_saving": ev.system_saving,
            "chip_saving": ev.chip_saving,
            "alu_fpu_share": energy.alu_fpu_share,
            "arithmetic_intensive": ev.arithmetic_intensive,
            "static_peek": {
                "fact_labels": len(facts),
                "fact_bits": fact_bits(facts),
                "static_bits": int(static_known.sum()),
                "new_static_bits":
                    int((static_known & ~runtime_peek).sum()),
                "dynamic_events_base": events_base,
                "dynamic_events_static": events_static,
                "events_reduced": events_base - events_static,
                "misprediction_rate_base":
                    float(mis.mean()) if n else 0.0,
                "misprediction_rate_static":
                    float(mis_s.mean()) if n else 0.0,
            },
        },
        "energy_stacks": {"baseline": base_stack, "st2": st2_stack},
    }


def assert_matches_reference(spec, models):
    result = execute_unit(spec, models=models)
    run = run_kernel(spec.kernel, scale=spec.scale, seed=spec.seed)
    expect = reference_payload(run, spec.config, models,
                               facts_for_kernel(spec.kernel))
    got = {"metrics": result.to_dict()["metrics"],
           "energy_stacks": result.to_dict()["energy_stacks"]}
    assert results_equal(got, expect), (spec.kernel, spec.config.name)


class TestFullSuiteBitIdentity:
    @pytest.mark.parametrize("name", KERNEL_NAMES)
    def test_unit_results_identical(self, name, models):
        assert_matches_reference(
            UnitSpec(kernel=name, scale=SCALE, seed=0,
                     config=ST2_DESIGN, aux=False), models)

    @pytest.mark.parametrize("config", [PREV, VALHALLA, CASA],
                             ids=lambda c: c.name)
    def test_other_mechanisms_identical(self, config, models):
        assert_matches_reference(
            UnitSpec(kernel="qrng_K2", scale=SCALE, seed=0,
                     config=config, aux=False), models)


class TestSupported:
    def test_suite_runs_supported(self):
        """Every suite kernel's run is inside the engine's input range:
        planning it raises none of the field refusals (adder width,
        packed block/seq/warp ids, opcodes) of tests/runner/
        test_refusals.py, and the plan covers every row."""
        for name in KERNEL_NAMES:
            run = run_kernel(name, scale=SCALE, seed=0)
            width = np.asarray(run.trace.width)
            assert len(run.trace) > 0, name
            assert 1 <= int(width.min()) and int(width.max()) <= 64, name
            plan = plan_for(run)
            assert plan.n_rows == plan.pack.n_rows == len(run.trace), name
            assert plan.n_insts == len(run.insts), name


class TestPlanIdentity:
    def test_store_key_reuses_one_plan(self, tmp_path):
        """Two opens of one trace-store entry share a plan: the key
        names the entry's exact bytes."""
        from repro.sim.trace_store import trace_key

        run = run_kernel("qrng_K2", scale=SCALE, seed=0)
        key = trace_key("qrng_K2", SCALE, 0, "v-test")
        TraceStore(tmp_path).put(key, run, code_version="v-test")
        first = TraceStore(tmp_path).get(key)
        second = TraceStore(tmp_path).get(key)
        assert first is not second and first.key == key
        assert plan_for(first) is plan_for(second)

    def test_live_run_gets_fresh_plan(self):
        run = run_kernel("qrng_K2", scale=SCALE, seed=0)
        assert plan_for(run) is not plan_for(run)


class TestArrayLevelParity:
    @pytest.mark.parametrize("name", ["qrng_K1", "sortNets_K2",
                                      "pathfinder"])
    def test_per_pc_recompute_totals(self, name):
        """The padded evaluation must agree with the reference not
        just in total but per program counter — the resolution the
        paper's per-PC analyses read."""
        run = run_kernel(name, scale=SCALE, seed=0)
        bits, _ = ref_spec.predict(run.trace, ST2_DESIGN)
        ref_mis, ref_rec, ref_wrong = ref_spec.evaluate(run.trace, bits)
        plan = plan_for(run)
        pred = predict_trace_batch(run.trace, ST2_DESIGN, plan.pack)
        mis, rec, wrong = evaluate_trace_batch(plan.pack, pred.bits)
        assert int(mis.sum()) == int(ref_mis.sum())
        np.testing.assert_array_equal(
            np.bincount(run.trace.pc, weights=rec),
            np.bincount(run.trace.pc, weights=ref_rec))
        np.testing.assert_array_equal(
            np.bincount(run.trace.pc, weights=mis),
            np.bincount(run.trace.pc, weights=ref_mis))
        np.testing.assert_array_equal(wrong, ref_wrong)


class TestSeededRandomDraws:
    """Property-style sweep: random (kernel, config, scale) draws from
    a fixed seed must match the references.  Failures print the draw,
    which reproduces deterministically."""

    DRAWS = 6

    @pytest.mark.parametrize("draw", range(DRAWS))
    def test_random_unit_bit_identical(self, draw, models):
        rng = np.random.default_rng(1234 + draw)
        kernel = KERNEL_NAMES[int(rng.integers(len(KERNEL_NAMES)))]
        config = DESIGN_LADDER[int(rng.integers(len(DESIGN_LADDER)))]
        scale = float(rng.choice([0.06, 0.1, 0.14]))
        seed = int(rng.integers(3))
        assert_matches_reference(
            UnitSpec(kernel=kernel, scale=scale, seed=seed,
                     config=config, aux=False), models)


class TestObsCounterParity:
    KERNELS = ["qrng_K1", "qrng_K2"]

    def grid(self, tmp_path, workers=1):
        units = build_units(self.KERNELS, configs=(ST2_DESIGN, PREV),
                            scale=SCALE, aux=False)
        opts = RunOptions(
            workers=workers, use_cache=False,
            trace_store=TraceStore(tmp_path / f"ts-{workers}"))
        results = run_units(units, opts)
        return results, opts.obs.snapshot()["counters"]

    def test_counters_count_one_evaluation_per_unit(self, tmp_path):
        """Each unit adds one prediction and one evaluation; the adder
        misprediction counter is the units' dynamic mispredictions."""
        results, counters = self.grid(tmp_path)
        rows = sum(r.trace_rows for r in results)
        assert counters["core.predict.ops"] == rows
        assert counters["core.adder.ops"] == rows
        assert counters["core.adder.mispredicts"] == sum(
            round(r.metrics.misprediction_rate * r.trace_rows)
            for r in results)

    def test_counters_worker_independent(self, tmp_path):
        _, serial = self.grid(tmp_path, workers=1)
        _, parallel = self.grid(tmp_path, workers=2)
        assert serial == parallel
