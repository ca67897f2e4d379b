"""Cycle-driven SM pipeline — the structural model of Figure 4.

Where :mod:`repro.sim.pipeline` is an event-driven approximation tuned
for speed, this model steps the SM cycle by cycle through the stages the
paper's Figure 4 draws:

* **issue** — ``schedulers_per_sm`` warp schedulers, each issuing one
  ready warp instruction per cycle (greedy-then-oldest or loose
  round-robin policy);
* **operand collection** — a pool of collector units; each instruction
  occupies one for ``1 + register-bank-conflict`` cycles. Adder-class
  instructions additionally read the Carry Register File: the CRF has a
  limited number of read ports per SM, and the read *piggy-backs on the
  operand collector* exactly as Section IV-C describes;
* **execute** — per-unit FU pools with initiation intervals; an ST2
  misprediction keeps the mispredicted lanes' adders busy one extra
  cycle and delays the warp's result by one cycle (the stall signal);
* **write-back** — adder instructions update the CRF; simultaneous
  writers to one entry are counted as conflicts (random arbitration
  drops all but one — dropped updates only stale predictions).

The model reports a stall breakdown (dependency / FU / collector / CRF
ports), which the event model cannot, and cross-checks its magnitudes.

A caveat the paper's own methodology shares: in a cycle-driven model,
tiny latency perturbations (the ST2 stalls) also perturb *scheduling
decisions*, so a single paired run measures "within X % of baseline"
rather than a strictly-positive slowdown — use
:func:`repro.sim.pipeline.compare_baseline_st2` (shared-schedule
paired simulation) when the isolated stall cost is the quantity of interest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.isa.opcodes import FunctionalUnit
from repro.sim.config import GPUConfig, TITAN_V
from repro.sim.pipeline import _pool_width, _resident_blocks
from repro.sim.trace import opcode_from_id

ILP_DEPTH = 2


@dataclass
class CycleStats:
    """Outcome of one cycle-driven simulation."""

    cycles: int
    instructions: int
    issued_per_cycle: float
    stall_dependency: int
    stall_fu: int
    stall_collector: int
    crf_reads: int
    crf_read_port_conflicts: int
    crf_write_conflicts: int
    extra_recompute_insts: int

    def stall_breakdown(self) -> dict:
        return {"dependency": self.stall_dependency,
                "functional units": self.stall_fu,
                "operand collector": self.stall_collector}


@dataclass
class _WarpState:
    rows: np.ndarray
    ptr: int = 0
    completions: list = field(default_factory=list)
    last_issue: int = -10**9

    def done(self) -> bool:
        return self.ptr >= len(self.rows)


class CycleModel:
    """One SM, cycle by cycle."""

    def __init__(self, gpu: GPUConfig = TITAN_V, policy: str = "gto",
                 n_collectors: int = 8, n_banks: int = 16,
                 crf_read_ports: int = 2, seed: int = 0):
        if policy not in ("gto", "lrr"):
            raise ValueError(f"unknown scheduler policy {policy!r}")
        self.gpu = gpu
        self.policy = policy
        self.n_collectors = n_collectors
        self.n_banks = n_banks
        self.crf_read_ports = crf_read_ports
        self._rng = np.random.default_rng(seed)

    # -- register-bank synthesis ---------------------------------------

    def _bank_conflicts(self, pc: int, n_sources: int = 2) -> int:
        """Deterministic pseudo register allocation: operand j of the
        instruction at ``pc`` lives in bank ``hash(pc, j) % banks``;
        same-bank operands serialise the collector."""
        banks = {(pc * 2654435761 + j * 40503) % self.n_banks
                 for j in range(n_sources)}
        return n_sources - len(banks)

    # -- main loop -------------------------------------------------------

    def simulate(self, insts, launch, warp_mispredicts: dict = None
                 ) -> CycleStats:
        gpu = self.gpu
        resident = _resident_blocks(insts, gpu, launch.block_threads)
        sel = np.isin(insts.block, resident)
        blocks = insts.block[sel]
        seqs = insts.seq[sel]
        warps = insts.warp[sel]
        opcodes = insts.opcode[sel]
        order = np.lexsort((seqs, warps))
        blocks, seqs, warps, opcodes = (a[order] for a in
                                        (blocks, seqs, warps, opcodes))
        mispred = warp_mispredicts or {}

        states = {int(w): _WarpState(rows=np.nonzero(warps == w)[0])
                  for w in np.unique(warps)}
        warp_order = sorted(states)
        fu_free = {u: 0.0 for u in FunctionalUnit}
        collectors_free_at: list = [0] * self.n_collectors

        cycle = 0
        issued_total = 0
        stall_dep = stall_fu = stall_coll = 0
        crf_reads = crf_read_conflicts = crf_write_conflicts = 0
        extra = 0
        pending_writebacks: dict = {}
        n_insts = len(blocks)
        lrr_next = 0
        last_issued_warp = -1

        guard = 0
        while any(not s.done() for s in states.values()):
            guard += 1
            if guard > 10_000_000:
                raise RuntimeError("cycle model failed to converge")

            # write-back: CRF entry conflicts among this cycle's writers
            writers = pending_writebacks.pop(cycle, [])
            if writers:
                entries: dict = {}
                for entry in writers:
                    entries[entry] = entries.get(entry, 0) + 1
                crf_write_conflicts += sum(v - 1 for v in
                                           entries.values())

            # issue stage: each scheduler picks one ready warp
            candidates = self._schedule_order(warp_order, states,
                                              last_issued_warp, lrr_next)
            issued_this_cycle = 0
            crf_reads_this_cycle = 0
            for w in candidates:
                if issued_this_cycle >= gpu.schedulers_per_sm:
                    break
                state = states[w]
                if state.done():
                    continue
                row = state.rows[state.ptr]
                op = opcode_from_id(int(opcodes[row]))

                # dependency on instruction ILP_DEPTH back
                if len(state.completions) >= ILP_DEPTH and \
                        state.completions[-ILP_DEPTH] > cycle:
                    stall_dep += 1
                    continue

                unit = op.unit
                width = _pool_width(gpu, unit)
                dispatch = (math.ceil(gpu.warp_size
                                      / max(width // 4, 1))
                            if unit != FunctionalUnit.CONTROL else 1)
                # operand collector allocation
                coll = min(range(self.n_collectors),
                           key=lambda i: collectors_free_at[i])
                if collectors_free_at[coll] > cycle:
                    stall_coll += 1
                    continue
                collect = 1 + self._bank_conflicts(int(seqs[row]))
                crf_port_wait = (op.is_adder_op and
                                 crf_reads_this_cycle + 1
                                 > self.crf_read_ports)
                if crf_port_wait:
                    collect += 1          # wait for a CRF port

                # the FU must accept the op when collection finishes
                # (it is free to serve other warps while we collect)
                if fu_free[unit] > cycle + collect:
                    stall_fu += 1
                    continue
                # committed: account the CRF traffic exactly once
                if op.is_adder_op:
                    crf_reads += 1
                    crf_reads_this_cycle += 1
                    if crf_port_wait:
                        crf_read_conflicts += 1
                collectors_free_at[coll] = cycle + collect

                miss_frac = mispred.get(
                    (int(blocks[row]), int(seqs[row]), w), 0.0)
                if miss_frac > 0:
                    extra += 1
                fu_free[unit] = cycle + collect + dispatch + miss_frac
                done = cycle + collect + dispatch + op.latency \
                    + (1 if miss_frac > 0 else 0)
                state.completions.append(done)
                if len(state.completions) > 4:
                    del state.completions[0:len(state.completions) - 4]
                state.ptr += 1
                state.last_issue = cycle
                if op.is_adder_op:
                    entry = int(seqs[row]) % 16       # PC[3:0] proxy
                    pending_writebacks.setdefault(
                        int(done), []).append(entry)
                issued_this_cycle += 1
                issued_total += 1
                last_issued_warp = w
            lrr_next = (lrr_next + 1) % max(len(warp_order), 1)
            cycle += 1

        obs.add("sim.cycle.instructions", n_insts)
        obs.add("sim.cycle.cycles", cycle)
        obs.add("sim.cycle.stall_dependency", stall_dep)
        obs.add("sim.cycle.stall_fu", stall_fu)
        obs.add("sim.cycle.stall_collector", stall_coll)
        obs.add("sim.cycle.crf_reads", crf_reads)
        obs.add("sim.cycle.crf_read_port_conflicts", crf_read_conflicts)
        obs.add("sim.cycle.crf_write_conflicts", crf_write_conflicts)
        return CycleStats(
            cycles=cycle, instructions=n_insts,
            issued_per_cycle=issued_total / max(cycle, 1),
            stall_dependency=stall_dep, stall_fu=stall_fu,
            stall_collector=stall_coll, crf_reads=crf_reads,
            crf_read_port_conflicts=crf_read_conflicts,
            crf_write_conflicts=crf_write_conflicts,
            extra_recompute_insts=extra)

    def _schedule_order(self, warp_order, states, last_issued, lrr_next):
        """Warp visiting order per the scheduler policy."""
        if self.policy == "gto":
            # greedy: last-issued warp first, then oldest (lowest id)
            if last_issued in states and not states[last_issued].done():
                return [last_issued] + [w for w in warp_order
                                        if w != last_issued]
            return list(warp_order)
        # loose round-robin: rotate the start point each cycle
        n = len(warp_order)
        return [warp_order[(lrr_next + i) % n] for i in range(n)]


def compare_policies(insts, launch, gpu: GPUConfig = TITAN_V) -> dict:
    """Makespan under both scheduler policies.

    On dependency-bound kernels loose round-robin tends to win (greedy
    re-picks a warp that immediately stalls on its own result); GTO's
    advantage (cache locality on memory-bound kernels) is outside this
    model's scope — the study shows the *sensitivity*, not a winner."""
    return {policy: CycleModel(gpu, policy=policy).simulate(insts, launch)
            for policy in ("gto", "lrr")}
