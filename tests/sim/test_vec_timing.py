"""The planned timing pair vs the sequential reference loop.

:func:`repro.sim.vec.timing.run_pair` must reproduce the slow,
per-instruction reference (``tests/sim/reference_timing.py``) exactly —
makespans included, since they feed the energy model's duration
scaling — so every assertion here is ``==`` on the whole dataclass,
never approx.  Every ``full``-suite kernel is replayed under fixed and
random miss masks.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.predictors import run_speculation
from repro.core.speculation import PREV, ST2_DESIGN
from repro.kernels.suite import resolve_kernels, run_kernel
from repro.sim.vec.timing import (build_timing_plan, plan_miss_frac,
                                  run_pair)
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
