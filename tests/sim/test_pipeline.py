"""Cycle-approximate timing model behaviour."""

import numpy as np
import pytest

from repro.core.predictors import run_speculation
from repro.core.speculation import ST2_DESIGN
from repro.kernels import pathfinder
from repro.kernels.suite import resolve_kernels, run_kernel
from repro.sim.config import LaunchConfig, TITAN_V
from repro.sim.functional import GridLauncher
from repro.sim.pipeline import compare_baseline_st2, simulate_sm
from repro.sim.vec.timing import build_timing_plan, plan_miss_frac
from tests.sim.reference_timing import reference_pair


@pytest.fixture(scope="module")
def small_run():
    return pathfinder.prepare(scale=0.3, seed=1).run()


class TestSimulateSm:
    def test_nonzero_makespan(self, small_run):
        t = simulate_sm(small_run.insts, small_run.launch)
        assert t.cycles > 0
        assert t.instructions > 0
        assert t.total_cycles == t.cycles * t.waves

    def test_duration_from_clock(self, small_run):
        t = simulate_sm(small_run.insts, small_run.launch)
        expect = t.total_cycles / (TITAN_V.core_clock_ghz * 1e9)
        assert t.duration_s() == pytest.approx(expect)

    def test_deterministic(self, small_run):
        t1 = simulate_sm(small_run.insts, small_run.launch)
        t2 = simulate_sm(small_run.insts, small_run.launch)
        assert t1.total_cycles == t2.total_cycles

    def test_more_work_takes_longer(self):
        def light(k):
            k.iadd(1, 1)

        def heavy(k):
            for _i in k.range(64):
                k.iadd(1, 1)

        launcher = GridLauncher()
        r_light = launcher.run(light, LaunchConfig(1, 128))
        r_heavy = launcher.run(heavy, LaunchConfig(1, 128))
        t_light = simulate_sm(r_light.insts, r_light.launch)
        t_heavy = simulate_sm(r_heavy.insts, r_heavy.launch)
        assert t_heavy.cycles > t_light.cycles

    def test_waves_scale_with_grid(self):
        def kernel(k):
            k.iadd(1, 1)

        launcher = GridLauncher()
        # 16 blocks of 128 threads fit one SM; 80 SMs -> 1281 blocks
        # need a second wave
        big = launcher.run(kernel, LaunchConfig(2000, 128))
        t = simulate_sm(big.insts, big.launch)
        assert t.waves == 2


class TestAgainstReference:
    """:func:`simulate_sm` is the baseline GPU: the sequential
    reference pair under a zero miss mask, on every suite kernel.  (The
    pair's baseline is *not* mask-independent — heap ties between warps
    break on the ST2 timeline — so a random mask would not do.)"""

    @pytest.mark.parametrize("name", resolve_kernels("full"))
    def test_simulate_sm_matches_reference(self, name):
        run = run_kernel(name, scale=0.1, seed=0)
        ref_base, _ = reference_pair(
            run, np.zeros(len(run.trace), dtype=bool))
        assert simulate_sm(run.insts, run.launch) == ref_base


class TestST2Stalls:
    def test_mispredictions_never_speed_up_fu_time(self, small_run):
        res = run_speculation(small_run.trace, ST2_DESIGN)
        base, st2 = compare_baseline_st2(small_run, res.mispredicted)
        assert st2.extra_recompute_insts > 0
        # makespans may jitter slightly from scheduling, but the ST2
        # run can never be meaningfully faster
        assert st2.total_cycles >= base.total_cycles * 0.95

    def test_no_mispredictions_means_identical_timing(self, small_run):
        none = np.zeros(len(small_run.trace), dtype=bool)
        base, st2 = compare_baseline_st2(small_run, none)
        assert base.total_cycles == st2.total_cycles
        assert st2.extra_recompute_insts == 0

    def test_all_mispredicted_slower_than_none(self, small_run):
        every = np.ones(len(small_run.trace), dtype=bool)
        base, st2 = compare_baseline_st2(small_run, every)
        assert st2.total_cycles > base.total_cycles


class TestWarpMispredictionMap:
    """Lane-level mispredictions aggregate to per-warp-instruction
    mispredicted-lane fractions (:func:`plan_miss_frac`)."""

    def test_fraction_aggregation(self, small_run):
        miss = np.zeros(len(small_run.trace), dtype=bool)
        miss[:5] = True
        frac = plan_miss_frac(build_timing_plan(small_run), miss)
        hit = frac[frac > 0]
        assert len(hit) >= 1
        assert ((0 < hit) & (hit <= 1)).all()

    def test_empty(self, small_run):
        frac = plan_miss_frac(build_timing_plan(small_run),
                              np.zeros(len(small_run.trace), bool))
        assert not frac.any()

    def test_full_warp_miss_fraction_one(self):
        def kernel(k):
            k.isub(0, 1)   # every lane: 0 - 1 -> borrow everywhere

        launcher = GridLauncher()
        run = launcher.run(kernel, LaunchConfig(1, 32))
        miss = np.ones(len(run.trace), dtype=bool)
        plan = build_timing_plan(run)
        frac = plan_miss_frac(plan, miss)
        assert set(frac[plan.inst_match].tolist()) == {1.0}
