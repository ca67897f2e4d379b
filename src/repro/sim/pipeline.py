"""Cycle-approximate SM timing model.

The stand-in for GPGPU-Sim's performance simulation, detailed enough to
reproduce the paper's *performance* claim: ST2's extra recompute cycle
stalls the issuing warp and keeps the functional unit occupied one more
cycle, yet GPUs hide nearly all of it (0.36 % mean slowdown, 3.5 %
worst case).

Model per SM:

* all blocks that fit the SM's thread budget run concurrently, their
  warps scheduled greedy-oldest-first with ``schedulers_per_sm`` issue
  slots per cycle;
* a warp issues in order; instruction ``i`` waits for the completion of
  instruction ``i - ILP`` (a fixed lookahead approximating register
  dependencies, ILP=2) and for its functional-unit pool;
* an FU pool of width ``w`` dispatches a 32-thread warp instruction in
  ``ceil(32/w)`` cycles and is busy for that long; results appear after
  the opcode latency;
* **ST2 mode**: a warp instruction whose lanes include a carry
  misprediction holds its FU one extra cycle (the recompute) and
  delivers its result one cycle later — the stall signal of the paper's
  Figure 4.

The simulation consumes the warp-level :class:`InstStream` of one SM's
resident blocks; the whole-kernel duration is the SM makespan times the
number of block waves over the chip.  The event loop itself runs over a
pre-resolved schedule in :mod:`repro.sim.vec.timing`;
:func:`simulate_sm` and :func:`compare_baseline_st2` are the public
entry points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.isa.opcodes import FunctionalUnit
from repro.sim.config import GPUConfig, TITAN_V

#: instruction-level-parallelism lookahead: instruction i waits on i-2
ILP_DEPTH = 2


def _pool_width(gpu: GPUConfig, unit: FunctionalUnit) -> int:
    return {
        FunctionalUnit.ALU: gpu.alus_per_sm,
        FunctionalUnit.FPU: gpu.fpus_per_sm,
        FunctionalUnit.DPU: gpu.dpus_per_sm,
        FunctionalUnit.SFU: gpu.sfus_per_sm,
        FunctionalUnit.INT_MUL: gpu.alus_per_sm,
        FunctionalUnit.FP_MUL: gpu.fpus_per_sm,
        FunctionalUnit.LDST: gpu.ldst_per_sm,
        FunctionalUnit.CONTROL: gpu.warp_size,  # free issue
        FunctionalUnit.TENSOR: gpu.tensor_cores_per_sm * 4,
    }[unit]


@dataclass(frozen=True)
class TimingResult:
    """Outcome of one SM-level timing simulation (frozen: memoised
    replays share result objects)."""

    cycles: int                 # SM makespan for its resident blocks
    waves: int                  # block waves over the whole chip
    instructions: int
    stall_cycles_fu: int        # cycles lost to busy functional units
    extra_recompute_insts: int  # warp insts that paid the ST2 stall

    @property
    def total_cycles(self) -> int:
        """Whole-kernel duration in cycles."""
        return self.cycles * self.waves

    def duration_s(self, gpu: GPUConfig = TITAN_V) -> float:
        return self.total_cycles / (gpu.core_clock_ghz * 1e9)


def _resident_blocks(insts, gpu: GPUConfig, block_threads: int) -> list:
    """Pick the blocks co-resident on one SM (thread-budget limited)."""
    blocks = np.unique(insts.block)
    per_sm = max(1, min(gpu.max_blocks_per_sm,
                        gpu.max_threads_per_sm // block_threads))
    return list(blocks[:per_sm])


def simulate_sm(insts, launch, gpu: GPUConfig = TITAN_V) -> TimingResult:
    """Simulate one fully-loaded SM executing its resident blocks
    (baseline GPU: no carry mispredictions)."""
    from repro.sim.vec.timing import baseline_timing

    result = baseline_timing(insts, launch, gpu)
    obs.add("sim.timing.warp_insts", result.instructions)
    obs.add("sim.timing.stall_cycles_fu", result.stall_cycles_fu)
    obs.add("sim.timing.recompute_insts", 0)
    return result


def compare_baseline_st2(run, mispredicted: np.ndarray,
                         gpu: GPUConfig = TITAN_V) -> tuple:
    """Timing of the baseline and the ST2 GPU for one kernel run under
    lane-level ``mispredicted`` flags, on one shared schedule.

    Returns ``(baseline: TimingResult, st2: TimingResult)``.
    """
    from repro.sim.vec.timing import build_timing_plan, replay_pair

    return replay_pair(build_timing_plan(run, gpu), mispredicted)
