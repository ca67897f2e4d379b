"""End-to-end ST2 GPU evaluation (the Section VI experiment)."""

import numpy as np
import pytest

from repro.core.speculation import ST2_DESIGN, STATIC_ONE
from repro.kernels.suite import run_kernel
from repro.power.components import Component
from repro.st2.architecture import default_adder_model, evaluate_run


@pytest.fixture(scope="module")
def pathfinder_run():
    return run_kernel("pathfinder", scale=0.3, seed=0)


@pytest.fixture(scope="module")
def pathfinder_eval(pathfinder_run):
    return evaluate_run(pathfinder_run)


class TestKernelEvaluation:
    def test_misprediction_rate_reasonable(self, pathfinder_eval):
        assert 0.0 <= pathfinder_eval.misprediction_rate < 0.5

    def test_saves_energy(self, pathfinder_eval):
        assert pathfinder_eval.system_saving > 0.02
        assert pathfinder_eval.chip_saving > pathfinder_eval.system_saving

    def test_slowdown_small(self, pathfinder_eval):
        assert abs(pathfinder_eval.slowdown) < 0.10

    def test_recompute_bounded(self, pathfinder_eval):
        assert 1.0 <= pathfinder_eval.recomputed_per_misprediction <= 7.0

    def test_energy_breakdowns_consistent(self, pathfinder_eval):
        e = pathfinder_eval.energy
        assert e.baseline.system_j > e.st2.system_j
        # only ALU+FPU shrinks; other components unchanged
        for c in Component:
            if c is Component.ALU_FPU:
                assert e.st2.components[c] < e.baseline.components[c]
            else:
                assert e.st2.components[c] \
                    == pytest.approx(e.baseline.components[c])

    def test_normalized_stacks_sum_to_one_for_baseline(self,
                                                       pathfinder_eval):
        base, st2 = pathfinder_eval.energy.normalized_stacks()
        assert sum(base.values()) == pytest.approx(1.0)
        assert sum(st2.values()) < 1.0


class TestDesignSensitivity:
    def test_worse_predictor_saves_less(self, pathfinder_run):
        good = evaluate_run(pathfinder_run, config=ST2_DESIGN)
        bad = evaluate_run(pathfinder_run, config=STATIC_ONE)
        assert bad.misprediction_rate > good.misprediction_rate
        assert bad.system_saving < good.system_saving
        assert bad.slowdown >= good.slowdown - 0.01


class TestSuiteEvaluation:
    @pytest.fixture(scope="class")
    def evals(self):
        names = ("pathfinder", "sad_K1", "msort_K2", "qrng_K1")
        return {name: evaluate_run(run_kernel(name, scale=0.15))
                for name in names}

    def test_all_kernels_evaluated(self, evals):
        assert len(evals) == 4

    def test_every_kernel_saves_chip_energy(self, evals):
        for name, e in evals.items():
            assert e.chip_saving > 0, name

    def test_average_slowdown_tiny(self, evals):
        avg = np.mean([e.slowdown for e in evals.values()])
        assert avg < 0.02       # paper: 0.36 %

    def test_arithmetic_intensity_flag(self, evals):
        assert any(e.arithmetic_intensive for e in evals.values())


class TestAdderModelDefaults:
    def test_memoised(self):
        assert default_adder_model() is default_adder_model()

    def test_headline_saving_in_band(self):
        m = default_adder_model()
        assert 0.6 < m.saving(0.09, 1.94) < 0.8
