"""The planned timing pair vs the sequential reference loop.

:func:`repro.sim.vec.timing.run_pair` must reproduce the slow,
per-instruction reference (``tests/sim/reference_timing.py``) exactly —
makespans included, since they feed the energy model's duration
scaling — so every assertion here is ``==`` on the whole dataclass,
never approx.  Every ``full``-suite kernel is replayed under fixed and
random miss masks.  :func:`replay_pair`'s per-plan memo is checked on a
few kernels: equal miss fractions replay once, and every call counts.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro import obs
from repro.core.predictors import run_speculation
from repro.core.speculation import PREV, ST2_DESIGN
from repro.kernels.suite import resolve_kernels, run_kernel
from repro.sim.config import TITAN_V
from repro.sim.vec import timing
from repro.sim.vec.timing import (baseline_timing, build_timing_plan,
                                  plan_miss_frac, replay_pair, run_pair)
from tests.sim.reference_timing import (reference_pair,
                                        warp_misprediction_map)

KERNELS = list(resolve_kernels("full"))
SCALE = 0.1


@pytest.fixture(scope="module", params=KERNELS)
def run(request):
    return run_kernel(request.param, scale=SCALE, seed=0)


@pytest.fixture(scope="module")
def patterns(run):
    """Lane-level miss masks: none, all, two real configs, random."""
    n = len(run.trace)
    rng = np.random.default_rng(n)
    return {
        "none": np.zeros(n, dtype=bool),
        "all": np.ones(n, dtype=bool),
        "st2": run_speculation(run.trace, ST2_DESIGN).mispredicted,
        "prev": run_speculation(run.trace, PREV).mispredicted,
        "random": rng.random(n) < rng.uniform(0.01, 0.5),
    }


class TestRunPairExactEquality:
    @pytest.mark.parametrize("pattern",
                             ["none", "all", "st2", "prev", "random"])
    def test_timing_results_identical(self, run, patterns, pattern):
        mispredicted = patterns[pattern]
        ref_base, ref_st2 = reference_pair(run, mispredicted)
        plan = build_timing_plan(run)
        base, st2 = run_pair(plan, plan_miss_frac(plan, mispredicted))
        assert base == ref_base, pattern
        assert st2 == ref_st2, pattern

    def test_plan_reusable_across_configs(self, run, patterns):
        """One plan must serve every config without mutation."""
        plan = build_timing_plan(run)
        first = {k: run_pair(plan, plan_miss_frac(plan, m))
                 for k, m in patterns.items()}
        again = {k: run_pair(plan, plan_miss_frac(plan, m))
                 for k, m in patterns.items()}
        assert first == again


class TestPlanMissFrac:
    def test_matches_dict_lookup(self, run, patterns):
        """The vectorised gather vs the reference dict of decoded
        ``(block, seq, warp)`` tuples, instruction for instruction."""
        from repro.sim.config import TITAN_V
        from repro.sim.pipeline import _resident_blocks

        mispredicted = patterns["random"]
        ref_map = warp_misprediction_map(run.trace, mispredicted)
        plan = build_timing_plan(run)
        frac = plan_miss_frac(plan, mispredicted)
        assert len(frac) == plan.n_insts

        # rebuild the planned rows' identities the way the plan did
        # (resident-block selection + the same lexsort), then compare
        # every row against the reference dict lookup
        insts = run.insts
        resident = _resident_blocks(insts, TITAN_V,
                                    run.launch.block_threads)
        sel = np.isin(insts.block, resident)
        blocks = insts.block[sel]
        seqs = insts.seq[sel]
        warps = insts.warp[sel]
        order = np.lexsort((seqs, warps))
        blocks, seqs, warps = blocks[order], seqs[order], warps[order]
        hits = 0
        for i in range(plan.n_insts):
            key = (int(blocks[i]), int(seqs[i]), int(warps[i]))
            expect = ref_map.get(key, 0.0)
            assert float(frac[i]) == expect, (i, key)
            hits += expect > 0
        assert hits > 0      # the pattern actually exercises the map

    def test_no_mispredictions_all_zero(self, run):
        plan = build_timing_plan(run)
        frac = plan_miss_frac(
            plan, np.zeros(len(run.trace), dtype=bool))
        assert not frac.any()


#: a few ``full`` kernels with at least two blocks, so a one-block SM
#: leaves trace lanes outside the resident blocks
MEMO_KERNELS = ["sgemm", "bprop_K2", "pathfinder"]


@pytest.fixture(scope="module", params=MEMO_KERNELS)
def memo_run(request):
    return run_kernel(request.param, scale=SCALE, seed=0)


@pytest.fixture
def run_pair_calls(monkeypatch):
    """Every :func:`run_pair` call :func:`replay_pair` makes."""
    calls = []
    real = timing.run_pair

    def spy(plan, miss_frac):
        calls.append(1)
        return real(plan, miss_frac)

    monkeypatch.setattr(timing, "run_pair", spy)
    return calls


def st2_mask(run) -> np.ndarray:
    return run_speculation(run.trace, ST2_DESIGN).mispredicted.copy()


class TestPairMemo:
    def test_identical_masks_replay_once(self, memo_run, run_pair_calls):
        plan = build_timing_plan(memo_run)
        mask = st2_mask(memo_run)
        first = replay_pair(plan, mask)
        again = replay_pair(plan, mask.copy())
        assert len(run_pair_calls) == 1
        assert again == first

    def test_lanes_outside_resident_blocks_replay_once(
            self, memo_run, run_pair_calls):
        one_block = dataclasses.replace(TITAN_V, max_blocks_per_sm=1)
        plan = build_timing_plan(memo_run, one_block)
        mask = st2_mask(memo_run)
        outside = memo_run.trace.block != memo_run.insts.block.min()
        assert outside.any()
        other = mask.copy()
        other[outside] = ~other[outside]
        np.testing.assert_array_equal(plan_miss_frac(plan, mask),
                                      plan_miss_frac(plan, other))
        first = replay_pair(plan, mask)
        again = replay_pair(plan, other)
        assert len(run_pair_calls) == 1
        assert again == first

    def test_flipped_matched_lane_replays_again(self, memo_run,
                                                run_pair_calls):
        plan = build_timing_plan(memo_run)
        mask = st2_mask(memo_run)
        matched = np.isin(plan.lane_inverse,
                          plan.inst_pos[plan.inst_match])
        lane = int(np.flatnonzero(matched)[0])
        other = mask.copy()
        other[lane] = ~other[lane]
        replay_pair(plan, mask)
        replay_pair(plan, other)
        assert len(run_pair_calls) == 2
        assert replay_pair(plan, other) == run_pair(
            plan, plan_miss_frac(plan, other))

    def test_counters_grow_on_every_call(self, memo_run):
        plan = build_timing_plan(memo_run)
        mask = st2_mask(memo_run)
        with obs.scoped() as registry:
            base, st2 = replay_pair(plan, mask)
            replay_pair(plan, mask)
        assert registry.counter("sim.timing.warp_insts") \
            == 2 * base.instructions
        assert registry.counter("sim.timing.stall_cycles_fu") \
            == 2 * base.stall_cycles_fu
        assert registry.counter("sim.timing.recompute_insts") \
            == 2 * st2.extra_recompute_insts

    def test_memo_hit_equals_reference(self, memo_run, run_pair_calls):
        plan = build_timing_plan(memo_run)
        mask = st2_mask(memo_run)
        replay_pair(plan, mask)
        hit = replay_pair(plan, mask)
        assert len(run_pair_calls) == 1
        assert hit == reference_pair(memo_run, mask)

    def test_baseline_timing_is_the_zero_mask_pair(self, memo_run):
        plan = build_timing_plan(memo_run)
        zero = run_pair(plan, np.zeros(plan.n_insts))[0]
        assert baseline_timing(memo_run.insts, memo_run.launch) == zero

    def test_results_are_frozen(self, memo_run):
        plan = build_timing_plan(memo_run)
        base, _ = replay_pair(plan, st2_mask(memo_run))
        with pytest.raises(dataclasses.FrozenInstanceError):
            base.cycles = 0
