"""The 23-kernel suite registry and its paper-level properties."""

import numpy as np
import pytest

from repro.isa.opcodes import MixCategory
from repro.kernels.runtime import blocks_for, scaled
from repro.kernels.suite import KERNEL_NAMES, SUITE, run_suite, spec_by_name

SCALE = 0.15


@pytest.fixture(scope="module")
def suite_runs():
    return run_suite(scale=SCALE, seed=0)


class TestRegistry:
    def test_exactly_23_kernels(self):
        assert len(SUITE) == 23
        assert len(set(KERNEL_NAMES)) == 23

    def test_paper_kernel_names_present(self):
        for name in ("pathfinder", "msort_K2", "qrng_K1", "b+tree_K2",
                     "sgemm", "mri-q_K1", "dwt2d_K1", "sobolQRNG"):
            assert name in KERNEL_NAMES

    def test_three_source_suites(self):
        suites = {s.suite for s in SUITE}
        assert suites == {"Rodinia", "CUDA Samples", "Parboil"}

    def test_unknown_kernel_raises(self):
        with pytest.raises(KeyError):
            spec_by_name("nonexistent_K9")


class TestSuiteProperties:
    def test_every_kernel_produces_adder_trace(self, suite_runs):
        for name, run in suite_runs.items():
            assert len(run.trace) > 100, name
            assert len(run.insts) > 10, name

    def test_arithmetic_intensity_figure1(self, suite_runs):
        """Paper Fig 1: most kernels have >20 % ALU+FPU instructions."""
        intensive = 0
        for run in suite_runs.values():
            mix = run.insts.mix()
            total = sum(mix.values())
            arith = sum(v for k, v in mix.items()
                        if k is not MixCategory.OTHER)
            if arith / total > 0.20:
                intensive += 1
        assert intensive >= 20       # paper: 21 of 23

    def test_traces_are_deterministic(self):
        a = spec_by_name("kmeans_K1").run(scale=SCALE, seed=3)
        b = spec_by_name("kmeans_K1").run(scale=SCALE, seed=3)
        assert np.array_equal(a.trace.op_a, b.trace.op_a)
        assert np.array_equal(a.trace.pc, b.trace.pc)

    def test_seed_changes_data_not_structure(self):
        a = spec_by_name("sad_K1").run(scale=SCALE, seed=0)
        b = spec_by_name("sad_K1").run(scale=SCALE, seed=9)
        assert a.n_static_pcs == b.n_static_pcs
        assert not np.array_equal(a.trace.op_a, b.trace.op_a)

    def test_scaling_grows_traces(self):
        small = spec_by_name("histo_K1").run(scale=0.1)
        large = spec_by_name("histo_K1").run(scale=0.4)
        assert len(large.trace) > len(small.trace)

    def test_mixed_widths_across_suite(self, suite_runs):
        widths = set()
        for run in suite_runs.values():
            widths.update(np.unique(run.trace.width).tolist())
        assert {23, 32, 64}.issubset(widths)


class TestRuntimeHelpers:
    def test_scaled_minimum_and_multiple(self):
        assert scaled(10, 0.01, minimum=4) == 4
        assert scaled(10, 1.0, multiple=8) == 16
        assert scaled(16, 1.0, multiple=8) == 16

    def test_blocks_for(self):
        assert blocks_for(100, 128) == 1
        assert blocks_for(129, 128) == 2
